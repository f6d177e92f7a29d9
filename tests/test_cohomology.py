"""Complex assembly and homology dimensions.

The expected Hochschild numbers are reproduced here first by a brute-force
oracle that builds the textbook coboundary matrices straight from the
structure constants and row-reduces them, independently of the library's
differential and matrix code.  Only then are they compared against betti().
The key-level matrix assembly is also checked against matrices summed from
the Element-level operators, column by column, and betti() against closed
forms for three more algebras in three characteristics.
"""

import gc
import itertools
import tracemalloc

import pytest

from operad_lab import (
    AssocOperad,
    ComplexSpec,
    Element,
    EndoOperad,
    FinAlgebra,
    OperadError,
    ShiftOperad,
    SparseMatrix,
    betti,
    boundary,
    classical_coboundary,
    coboundary,
    differential_matrix,
    get_field,
)
from operad_lab.cli import make_operad
from operad_lab.cohomology import DIFFERENTIALS
from operad_lab.endo import algebra_from_json, dual_numbers, ground_field_algebra, matrix2
from operad_lab.linalg import equal_up_to_global_sign
from test_linalg import to_dense

Q = get_field("q")
F3 = get_field("gfp:3")
F5 = get_field("gfp:5")


# --- the oracle -----------------------------------------------------------


def oracle_matrix(algebra, n):
    """Dense matrix of the degree-n Hochschild coboundary from first principles."""
    F = algebra.field
    d = algebra.dim
    c = algebra.mul  # c[i][j][k]: coefficient of e_k in e_i e_j

    if n == 0:
        # columns: elements a = e_j; rows: (k, l) for the map x -> x a - a x
        rows = [(k, l) for k in range(d) for l in range(d)]
        cols = list(range(d))
        mat = [[F.zero for _ in cols] for _ in rows]
        for col, j in enumerate(cols):
            for r, (k, l) in enumerate(rows):
                mat[r][col] = F.sub(c[k][j][l], c[j][k][l])
        return mat

    cols = [key + (j,) for key in itertools.product(range(d), repeat=n) for j in range(d)]
    rows = [key + (l,) for key in itertools.product(range(d), repeat=n + 1) for l in range(d)]
    row_index = {key: i for i, key in enumerate(rows)}
    mat = [[F.zero for _ in cols] for _ in rows]
    sign = [F.one if t % 2 == 0 else F.neg(F.one) for t in range(n + 2)]
    for col, key in enumerate(cols):
        ivec, j = key[:n], key[n]
        for ks in itertools.product(range(d), repeat=n + 1):
            # left multiplication by the first argument
            if ks[1:] == ivec:
                for l in range(d):
                    v = c[ks[0]][j][l]
                    if not F.is_zero(v):
                        r = row_index[ks + (l,)]
                        mat[r][col] = F.add(mat[r][col], v)
            # merge arguments p and p+1 into one product slot
            for p in range(1, n + 1):
                rest = ks[:p - 1] + ks[p + 1:]
                if rest == ivec[:p - 1] + ivec[p:]:
                    v = F.mul(sign[p], c[ks[p - 1]][ks[p]][ivec[p - 1]])
                    if not F.is_zero(v):
                        r = row_index[ks + (j,)]
                        mat[r][col] = F.add(mat[r][col], v)
            # right multiplication by the last argument
            if ks[:n] == ivec:
                for l in range(d):
                    v = F.mul(sign[n + 1], c[j][ks[n]][l])
                    if not F.is_zero(v):
                        r = row_index[ks + (l,)]
                        mat[r][col] = F.add(mat[r][col], v)
    return mat


def oracle_rank(mat, F):
    mat = [row[:] for row in mat]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if not F.is_zero(mat[r][col])), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = F.inv(mat[rank][col])
        mat[rank] = [F.mul(inv, v) for v in mat[rank]]
        for r in range(n_rows):
            if r != rank and not F.is_zero(mat[r][col]):
                factor = mat[r][col]
                mat[r] = [F.sub(v, F.mul(factor, w)) for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_dims(algebra, lo, hi):
    F = algebra.field
    d = algebra.dim
    ranks = {}
    for n in range(max(lo - 1, 0), hi + 1):
        ranks[n] = oracle_rank(oracle_matrix(algebra, n), F)
    dims = []
    for n in range(lo, hi + 1):
        n_cols = d if n == 0 else d ** (n + 1)
        kernel = n_cols - ranks[n]
        incoming = ranks.get(n - 1, 0)
        dims.append(kernel - incoming)
    return dims, ranks


# --- oracle reproduces the frozen numbers ---------------------------------


def test_oracle_ground_field():
    dims, _ = oracle_dims(ground_field_algebra(Q), 1, 3)
    assert dims == [0, 0, 0]


def test_oracle_dual_numbers():
    dims, ranks = oracle_dims(dual_numbers(F3), 0, 3)
    assert dims == [2, 1, 1, 1]
    assert ranks[1] == 3


def test_oracle_matrix_algebra():
    dims, _ = oracle_dims(matrix2(F5), 0, 2)
    assert dims == [1, 0, 0]


# --- the library agrees with the oracle -----------------------------------


def test_betti_matches_oracle_ground_field():
    op = EndoOperad(ground_field_algebra(Q))
    report = betti(ComplexSpec(op, "hochschild", 1, 3))
    assert report["dims"] == [0, 0, 0]
    assert report["field"] == "q"


def test_betti_matches_oracle_dual_numbers():
    op = EndoOperad(dual_numbers(F3))
    report = betti(ComplexSpec(op, "hochschild", 0, 3))
    assert report["dims"] == [2, 1, 1, 1]
    assert report["ranks"][1] == 3
    assert report["warnings"] == []


def test_betti_matches_oracle_matrix_algebra():
    op = EndoOperad(matrix2(F5))
    report = betti(ComplexSpec(op, "hochschild", 0, 2))
    assert report["dims"] == [1, 0, 0]


def test_matrices_match_oracle_entrywise():
    algebra = dual_numbers(F3)
    op = EndoOperad(algebra)
    for n in (1, 2):
        spec = ComplexSpec(op, "hochschild", n, n)
        lib = to_dense(differential_matrix(spec, n))
        assert lib == oracle_matrix(algebra, n)


def test_operadic_and_classical_ranks_agree():
    for algebra in (dual_numbers(F3), matrix2(F5)):
        op = EndoOperad(algebra)
        for n in (1, 2):
            a = differential_matrix(ComplexSpec(op, "coboundary", n, n), n)
            b = differential_matrix(ComplexSpec(op, "hochschild", n, n), n)
            assert equal_up_to_global_sign(a, b) == 1
            assert a.rank() == b.rank()


# --- key-level assembly against the Element operators ---------------------

ELEMENT_OPERATORS = {
    "boundary": boundary,
    "coboundary": coboundary,
    "hochschild": classical_coboundary,
}


def element_matrix(spec, degree):
    """The differential matrix summed from the Element-level operator applied
    to each basis key; a term outside the row basis raises OperadError."""
    op = spec.operad
    cols = list(spec.keys_at(degree))
    rows = list(spec.keys_at(spec.target_degree(degree)))
    row_index = {key: r for r, key in enumerate(rows)}
    apply = ELEMENT_OPERATORS[spec.differential]
    triples = []
    for c, key in enumerate(cols):
        for bkey, coeff in apply(Element.basis(op, key)).terms.items():
            if bkey not in row_index:
                raise OperadError(f"{bkey!r} is outside the row basis")
            triples.append((row_index[bkey], c, coeff))
    return SparseMatrix(len(rows), len(cols), op.field, triples)


def scaled_line(field):
    """The ground field on the basis vector e = 2: e*e = 2e and the unit is
    e/2, so the product and the point carry coefficients other than 0 and 1."""
    two = field.from_int(2)
    return EndoOperad(FinAlgebra("2k", field, 1, (field.inv(two),), (((two,),),)))


# k[x]/(x^2 - 2/3) on the basis 1, x: x*x = (2/3)*1, a structure constant
# other than 0 and +-1
FRACTIONAL_X2 = {"dim": 2, "unit": [1, 0], "mul": [[[1, 0], [0, 1]], [[0, 1], ["2/3", 0]]]}

KEY_LEVEL_CASES = [
    (selector, top, field)
    for field in ("q", "gfp:5")
    for selector, top in [("assoc", 6), ("shift", 6), ("endo:k", 6), ("endo:dual", 6),
                          ("endo:m2", 4), ("2k", 6)]
] + [
    # the closed-form algebras below; T_2's unit [1,0,1] is not basis vector 0
    (name, 4, field)
    for name in ("group_c3", "triangular_t2", "truncated_x3")
    for field in ("q", "gfp:2", "gfp:3")
] + [("fractional_x2", 4, "q")]


def key_level_operad(selector, field):
    if selector == "2k":
        return scaled_line(field)
    if selector == "fractional_x2":
        return EndoOperad(algebra_from_json(FRACTIONAL_X2, field, selector))
    if selector in CLOSED_FORM_ALGEBRAS:
        return EndoOperad(algebra_from_json(CLOSED_FORM_ALGEBRAS[selector], field, selector))
    return make_operad(selector, field)


@pytest.mark.parametrize("selector,top,field", KEY_LEVEL_CASES)
def test_key_level_matrices_match_element_operators(selector, top, field):
    field = get_field(field)
    op = key_level_operad(selector, field)
    kinds = ["boundary", "coboundary"] + (["hochschild"] if isinstance(op, EndoOperad) else [])
    for kind in kinds:
        spec = ComplexSpec(op, kind, 0, top)
        for n in range(top + 1):
            try:
                expected = element_matrix(spec, n)
            except OperadError:
                # the shift basis truncated at max-entry is not closed under
                # the coboundary: both paths must refuse
                with pytest.raises(OperadError):
                    differential_matrix(spec, n)
                continue
            assert differential_matrix(spec, n) == expected, (kind, n)


# --- generic complex behavior ----------------------------------------------


def test_boundary_on_two_letter_words_is_zero_map():
    op = AssocOperad(Q)
    spec = ComplexSpec(op, "boundary", 1, 2)
    mat = differential_matrix(spec, 2)
    assert (mat.n_rows, mat.n_cols) == (1, 2)
    assert mat.nnz == 0


def test_consecutive_matrices_compose_to_zero():
    cases = [
        (EndoOperad(dual_numbers(F3)), "hochschild", 0, 3),
        (EndoOperad(dual_numbers(F3)), "coboundary", 1, 3),
        (AssocOperad(Q), "boundary", 1, 4),
        (ShiftOperad(Q, max_entry=6), "boundary", 1, 3),
        (AssocOperad(Q), "coboundary", 1, 3),
    ]
    for op, kind, lo, hi in cases:
        spec = ComplexSpec(op, kind, lo, hi)
        for n in range(lo, hi):
            a = differential_matrix(spec, n)
            b = differential_matrix(spec, n + 1)
            first, second = (a, b) if spec.ascending else (b, a)
            # entry check: second @ first = 0
            dense_first = to_dense(first)
            dense_second = to_dense(second)
            F = op.field
            for r in range(second.n_rows):
                for c in range(first.n_cols):
                    total = F.zero
                    for k in range(first.n_rows):
                        total = F.add(total, F.mul(dense_second[r][k], dense_first[k][c]))
                    assert F.is_zero(total), (op.label, kind, n)


def test_shift_truncation_is_a_subcomplex():
    # faces only lower entries, so the bounded basis is closed under boundary
    op = ShiftOperad(Q, max_entry=5)
    spec = ComplexSpec(op, "boundary", 1, 4)
    for n in range(2, 5):
        mat = differential_matrix(spec, n)
        assert mat.n_cols == len(list(op.basis_keys(n)))


def test_column_cap():
    op = AssocOperad(Q)
    # the default cap rejects 8! = 40320 columns before doing any work
    with pytest.raises(OperadError):
        differential_matrix(ComplexSpec(op, "boundary", 1, 8), 8)
    tight = ComplexSpec(op, "boundary", 1, 4, column_cap=10)
    with pytest.raises(OperadError):
        differential_matrix(tight, 4)
    overridden = ComplexSpec(op, "boundary", 1, 4, column_cap=10, allow_large=True)
    assert differential_matrix(overridden, 4).n_cols == 24
    # the classical degree 0 is the algebra itself: dim A columns, not 1
    m2 = EndoOperad(matrix2(Q))
    with pytest.raises(OperadError, match="^4 columns at degree 0 exceed the cap 3;"):
        differential_matrix(ComplexSpec(m2, "hochschild", 0, 1, column_cap=3), 0)
    # its 4 columns pass a cap of 4, but its 4^2 rows are capped too
    with pytest.raises(OperadError, match="^16 rows at degree 1 exceed the cap 4;"):
        differential_matrix(ComplexSpec(m2, "hochschild", 0, 1, column_cap=4), 0)
    assert differential_matrix(ComplexSpec(m2, "hochschild", 0, 1, column_cap=16), 0).n_cols == 4


def _bounded_shift_spec(monkeypatch, differential, degree):
    """A shift complex at max-entry 200 whose basis raises as soon as it is
    listed past the cap: listing C(200, k) keys would exhaust memory."""
    op = ShiftOperad(Q, max_entry=200)
    spec = ComplexSpec(op, differential, degree, degree)
    listed = op.basis_keys

    def bounded(arity):
        for count, key in enumerate(listed(arity)):
            if count > spec.column_cap:
                raise RuntimeError("the basis was listed past the cap")
            yield key

    monkeypatch.setattr(op, "basis_keys", bounded)
    return spec


def test_column_cap_is_checked_before_listing_the_basis(monkeypatch):
    spec = _bounded_shift_spec(monkeypatch, "boundary", 5)
    with pytest.raises(OperadError, match="^2535650040 columns at degree 5 exceed the cap 20000;"):
        differential_matrix(spec, 5)


def test_row_cap_is_checked_before_listing_the_basis(monkeypatch):
    # C(200, 2) = 19900 columns pass the cap, but the coboundary's target
    # basis has C(200, 3) = 1313400 keys
    spec = _bounded_shift_spec(monkeypatch, "coboundary", 2)
    with pytest.raises(OperadError, match=(
        r"^1313400 rows at degree 3 exceed the cap 20000; pass allow_large=True "
        r"\(--allow-large on the command line\) to override$"
    )):
        differential_matrix(spec, 2)


def test_empty_degrees_are_capped():
    # at max-entry 2 the boundary complex is empty from degree 4 on, so
    # degrees 4, 5 and 6 are the three empty ones past the cap 2
    op = ShiftOperad(Q, max_entry=2)
    with pytest.raises(OperadError, match=(
        r"^3 empty degrees up to degree 6 exceed the cap 2; pass allow_large=True "
        r"\(--allow-large on the command line\) to override$"
    )):
        betti(ComplexSpec(op, "boundary", 0, 10, column_cap=2))
    # two empty degrees are within the cap; the flag lifts it
    within = betti(ComplexSpec(op, "boundary", 0, 5, column_cap=2))
    assert within["dims"] == [0, 1, 1, 0, 0, 0]
    lifted = betti(ComplexSpec(op, "boundary", 0, 10, column_cap=2, allow_large=True))
    assert lifted["degrees"] == list(range(11)) and lifted["dims"] == within["dims"] + [0] * 5


@pytest.mark.parametrize("selector,max_entry,top", [
    ("assoc", 8, 6), ("shift", 8, 10), ("shift", 3, 5),
    ("endo:k", 8, 6), ("endo:dual", 8, 6), ("endo:m2", 8, 4),
])
def test_dimension_counts_the_keys(selector, max_entry, top):
    # differential_matrix sizes a matrix by dimension_at and walks keys_at
    # lazily; the two agree on every preset and kind, below degree 0, at the
    # classical degree 0 (the algebra itself) and above a truncated shift
    op = make_operad(selector, Q, max_entry)
    kinds = DIFFERENTIALS if isinstance(op, EndoOperad) else ("boundary", "coboundary")
    for kind in kinds:
        spec = ComplexSpec(op, kind, 0, top)
        for n in range(-1, top + 1):
            keys = list(spec.keys_at(n))
            assert spec.dimension_at(n) == len(keys) == len(set(keys)), (kind, n)
    assert list(ComplexSpec(op, "boundary", 0, 1).keys_at(-1)) == []
    if isinstance(op, EndoOperad):
        spec = ComplexSpec(op, "hochschild", 0, 1)
        assert list(spec.keys_at(0)) == [(j,) for j in range(op.algebra.dim)]


@pytest.mark.parametrize("off", [1, -1])
def test_column_count_must_match_the_dimension(off):
    # a spec whose dimension is off at degree 4: the walk counts the columns
    # it yields and refuses the matrix, with an error that survives python -O
    class OffSpec(ComplexSpec):
        def dimension_at(self, degree):
            return super().dimension_at(degree) + (off if degree == 4 else 0)

    spec = OffSpec(AssocOperad(Q), "boundary", 0, 4)
    with pytest.raises(OperadError, match=(
        f"^the degree-4 basis has 24 keys, but its dimension is {24 + off}$"
    )):
        differential_matrix(spec, 4)
    assert differential_matrix(spec, 3).n_cols == 6


def test_assembly_and_rank_hold_little_besides_the_matrix():
    # Column-major assembly keeps only the row index and one column besides
    # the growing entry tuple, and the rank only one column besides its
    # pivots.  Sorting a list of every triple (assembly), or grouping the
    # entries into one dict per column (rank), costs about 0.38 and 0.77 of
    # the matrix's own size on this matrix (5040 columns, nnz 20076); the
    # column-major code stays near 0.05 and 0.10.
    spec = ComplexSpec(AssocOperad(F5), "boundary", 0, 7)
    differential_matrix(spec, 3)  # build the point and the caches first
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mat = differential_matrix(spec, 7)
        held, build_peak = (size - base for size in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        rank = mat.rank()
        rank_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (mat.nnz, rank) == (20076, 620)
    assert (build_peak - held) / held < 0.2
    assert (rank_peak - held) / held < 0.35


def test_one_sided_warnings():
    op = EndoOperad(dual_numbers(F3))
    ascending = betti(ComplexSpec(op, "hochschild", 1, 2))
    assert any("one-sided" in w for w in ascending["warnings"])
    closed = betti(ComplexSpec(op, "hochschild", 0, 2))
    assert closed["warnings"] == []
    descending = betti(ComplexSpec(AssocOperad(Q), "boundary", 1, 3))
    assert any("one-sided" in w for w in descending["warnings"])


def test_spec_validation():
    op = AssocOperad(Q)
    with pytest.raises(OperadError):
        ComplexSpec(op, "nonsense", 0, 1)
    with pytest.raises(OperadError):
        ComplexSpec(op, "boundary", 3, 1)
    with pytest.raises(OperadError):
        ComplexSpec(op, "hochschild", 0, 1)


def test_field_independence_of_dual_number_dims():
    for label in ("q", "gfp:32003"):
        op = EndoOperad(dual_numbers(get_field(label)))
        report = betti(ComplexSpec(op, "hochschild", 0, 3))
        assert report["dims"] == [2, 1, 1, 1], label


# --- closed forms for algebras given as structure-constant JSON -----------


def algebra_json(dim, unit, product):
    """Structure constants where ``product(i, j)`` is the index of e_i e_j,
    or None when the product is 0."""
    mul = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in itertools.product(range(dim), repeat=2):
        k = product(i, j)
        if k is not None:
            mul[i][j][k] = 1
    return {"dim": dim, "unit": unit, "mul": mul}


T2_PRODUCTS = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}  # e11, e12, e22

CLOSED_FORM_ALGEBRAS = {
    "truncated_x3": algebra_json(3, [1, 0, 0], lambda i, j: i + j if i + j < 3 else None),
    "group_c3": algebra_json(3, [1, 0, 0], lambda i, j: (i + j) % 3),
    "triangular_t2": algebra_json(3, [1, 0, 1], lambda i, j: T2_PRODUCTS.get((i, j))),
}


def closed_form_hh(name, p):
    """HH^0..HH^5 in characteristic p (0 for Q).  k[x]/(x^3): HH^0 = 3 and
    HH^n = 2, or 3 when p = 3 (Holm 2000).  k[C_3] is semisimple unless
    p = 3, where it is k[x]/(x^3).  T_2 is hereditary (Happel 1989)."""
    if name == "truncated_x3":
        return [3] + [3 if p == 3 else 2] * 5
    if name == "group_c3":
        return [3] + [3 if p == 3 else 0] * 5
    return [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("field_label,p", [("q", 0), ("gfp:2", 2), ("gfp:3", 3)])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_ALGEBRAS))
def test_betti_matches_closed_forms(name, field_label, p):
    algebra = algebra_from_json(CLOSED_FORM_ALGEBRAS[name], get_field(field_label), name)
    report = betti(ComplexSpec(EndoOperad(algebra), "hochschild", 0, 5))
    # degree 0 closes the window, so every degree is two-sided
    assert report["warnings"] == []
    assert report["dims"] == closed_form_hh(name, p)


@pytest.mark.parametrize("field_label", ["q", "gfp:2"])
def test_assoc_boundary_is_acyclic(field_label):
    report = betti(ComplexSpec(AssocOperad(get_field(field_label)), "boundary", 0, 6))
    # the top degree is one-sided (no incoming rank); every other one is zero
    assert report["dims"][:-1] == [0] * 6

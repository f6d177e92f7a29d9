"""Complex assembly and homology dimensions.

The expected Hochschild numbers are reproduced here first by a brute-force
oracle that builds the textbook coboundary matrices straight from the
structure constants and row-reduces them, independently of the library's
differential and matrix code.  Only then are they compared against betti().
Every kind's matrix assembly is also checked against matrices summed,
column by column, from code it does not share: the compose-and-sum
definitions of the boundary and coboundary in ``test_core`` and
``classical_coboundary``.  betti() is checked against closed forms for
three more algebras in three characteristics, and the endo coboundary's
dims against the classical kind's as theory relates them.
"""

import gc
import itertools
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial
from types import FrameType, GeneratorType

import pytest

from operad_lab import (
    AssocOperad,
    ComplexSpec,
    Element,
    EndoOperad,
    OperadError,
    ShiftOperad,
    SparseMatrix,
    betti,
    boundary,
    classical_coboundary,
    differential_matrix,
    get_field,
)
from operad_lab import assoc, cohomology, core
from operad_lab.cli import main, make_operad
from operad_lab.cohomology import DEFAULT_COLUMN_CAP, DIFFERENTIALS, _by_key
from operad_lab.endo import algebra_from_json, dual_numbers, ground_field_algebra, matrix2
from operad_lab.linalg import _columns, _reduce, equal_up_to_global_sign, rank_complex
from test_core import summed_boundary, summed_coboundary
from test_linalg import scaled_line, to_dense

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
    # the library reads both kinds off key ranks on an endomorphism operad,
    # so the operadic side is summed from the compose-and-sum coboundary
    for algebra in (dual_numbers(F3), matrix2(F5)):
        op = EndoOperad(algebra)
        for n in (1, 2):
            a = element_matrix(ComplexSpec(op, "coboundary", n, n), n)
            b = differential_matrix(ComplexSpec(op, "hochschild", n, n), n)
            assert equal_up_to_global_sign(a, b) == 1
            assert a.rank() == b.rank()


# --- every kind's assembly against Element-level oracles -------------------

# the operadic kinds' columns come from ``core.boundary`` and
# ``core.coboundary``, so their oracles are the compose-and-sum definitions
ELEMENT_OPERATORS = {
    "boundary": summed_boundary,
    "coboundary": summed_coboundary,
    "hochschild": classical_coboundary,
}


def basis_keys(spec, degree):
    """The degree-n basis keys in the order of the matrices' columns: the
    operad's, or for the classical kind the keys (i1..in, j) in
    ``itertools.product`` order, degree 0 keyed (j,)."""
    if degree < 0:
        return []
    if spec.differential == "hochschild":
        return list(itertools.product(range(spec.operad.algebra.dim), repeat=degree + 1))
    return list(spec.operad.basis_keys(degree))


def element_columns(spec, degree):
    """The columns of the degree-n matrix, each summed from the kind's
    oracle in ``ELEMENT_OPERATORS`` applied to its basis key; a term outside
    the row basis raises OperadError."""
    rows = {key: r for r, key in enumerate(basis_keys(spec, spec.target_degree(degree)))}
    apply = ELEMENT_OPERATORS[spec.differential]
    for key in basis_keys(spec, degree):
        column = []
        for bkey, coeff in apply(Element.basis(spec.operad, key)).terms.items():
            if bkey not in rows:
                raise OperadError(f"{bkey!r} is outside the row basis")
            column.append((rows[bkey], coeff))
        yield sorted(column)


def element_matrix(spec, degree):
    """The differential matrix of ``element_columns``, through the
    constructor that checks every entry."""
    n_rows, n_cols = (len(basis_keys(spec, n)) for n in (spec.target_degree(degree), degree))
    columns = enumerate(element_columns(spec, degree))
    triples = [(r, c, v) for c, column in columns for r, v in column]
    return SparseMatrix(n_rows, n_cols, spec.operad.field, triples)


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


SHIFT_COBOUNDARY_REFUSAL = (
    "^the shift basis truncated at max-entry {} is not closed under the coboundary$"
)


@pytest.mark.parametrize("selector,top,field", KEY_LEVEL_CASES)
def test_key_level_matrices_match_element_operators(selector, top, field):
    field = get_field(field)
    op = key_level_operad(selector, field)
    kinds = ["boundary", "coboundary"] + (["hochschild"] if isinstance(op, EndoOperad) else [])
    if isinstance(op, ShiftOperad):
        # the shift basis truncated at max-entry is not closed under the
        # coboundary: the kind is refused before any matrix is built
        kinds.remove("coboundary")
        with pytest.raises(OperadError, match=SHIFT_COBOUNDARY_REFUSAL.format(8)):
            ComplexSpec(op, "coboundary", 0, top)
    for kind in kinds:
        spec = ComplexSpec(op, kind, 0, top)
        for n in range(top + 1):
            assert differential_matrix(spec, n) == element_matrix(spec, n), (kind, n)


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


def _bounded_spec(monkeypatch, op, differential, degree):
    """A complex whose basis raises as soon as it is listed past the cap.
    The builder takes ``op.basis_keys`` when the spec is made, so the bound
    goes on first."""
    listed = op.basis_keys

    def bounded(arity):
        for count, key in enumerate(listed(arity)):
            if count > DEFAULT_COLUMN_CAP:
                raise RuntimeError("the basis was listed past the cap")
            yield key

    monkeypatch.setattr(op, "basis_keys", bounded)
    return ComplexSpec(op, differential, degree, degree)


def test_column_cap_is_checked_before_listing_the_basis(monkeypatch):
    # listing C(200, 5) keys would exhaust memory
    spec = _bounded_spec(monkeypatch, ShiftOperad(Q, max_entry=200), "boundary", 5)
    with pytest.raises(OperadError, match="^2535650040 columns at degree 5 exceed the cap 20000;"):
        differential_matrix(spec, 5)


def test_row_cap_is_checked_before_listing_the_basis(monkeypatch):
    # 4^7 = 16384 columns pass the cap, but the coboundary's target basis
    # has 4^8 = 65536 keys
    spec = _bounded_spec(monkeypatch, EndoOperad(matrix2(Q)), "coboundary", 6)
    with pytest.raises(OperadError, match=(
        r"^65536 rows at degree 7 exceed the cap 20000; pass allow_large=True "
        r"\(--allow-large on the command line\) to override$"
    )):
        differential_matrix(spec, 6)


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


PRESET_WINDOWS = [
    ("assoc", 8, 6), ("shift", 8, 10), ("shift", 3, 5),
    ("endo:k", 8, 6), ("endo:dual", 8, 6), ("endo:m2", 8, 4),
]


def preset_specs(selector, max_entry, top):
    """A complex over degrees 0..top for each kind the preset accepts; the
    shift coboundary is refused, as the check of that refusal shows."""
    op = make_operad(selector, Q, max_entry)
    kinds = list(DIFFERENTIALS) if isinstance(op, EndoOperad) else ["boundary", "coboundary"]
    if isinstance(op, ShiftOperad):
        kinds.remove("coboundary")
        with pytest.raises(OperadError, match=SHIFT_COBOUNDARY_REFUSAL.format(max_entry)):
            ComplexSpec(op, "coboundary", 0, top)
    return [ComplexSpec(op, kind, 0, top) for kind in kinds]


@pytest.mark.parametrize("selector,max_entry,top", PRESET_WINDOWS)
def test_dimension_counts_the_keys(selector, max_entry, top):
    # differential_matrix sizes a matrix by dimension_at, which lists no
    # key; it counts the basis on every preset and kind, below degree 0, at
    # the classical degree 0 (the algebra itself) and above a truncated shift
    for spec in preset_specs(selector, max_entry, top):
        for n in range(-1, top + 1):
            keys = basis_keys(spec, n)
            assert spec.dimension_at(n) == len(keys) == len(set(keys)), (spec.differential, n)
    if selector.startswith("endo:"):
        spec = ComplexSpec(make_operad(selector, Q), "hochschild", 0, 1)
        assert spec.dimension_at(0) == spec.operad.algebra.dim


@pytest.mark.parametrize("selector,max_entry,top", PRESET_WINDOWS)
def test_every_stream_yields_its_dimension_in_sorted_columns(selector, max_entry, top):
    # the trusted constructor takes a stream's raw terms on trust: exactly
    # dimension_at(n) columns, every row in the target basis and no value
    # zero, a row possibly repeated.  It sorts and merges them into the
    # matrix the public constructor builds from the same terms, which
    # checks every entry
    for spec in preset_specs(selector, max_entry, top):
        field = spec.operad.field
        for n in range(top + 1):
            n_rows, n_cols = (spec.dimension_at(m) for m in (spec.target_degree(n), n))
            columns = [list(column) for column in spec.columns(n)]
            assert len(columns) == n_cols, (spec.differential, n)
            for column in columns:
                assert all(0 <= r < n_rows for r, _ in column), (spec.differential, n)
                assert not any(field.is_zero(v) for _, v in column), (spec.differential, n)
            triples = [(r, c, v) for c, column in enumerate(columns) for r, v in column]
            mat = differential_matrix(spec, n)
            assert mat == SparseMatrix(n_rows, n_cols, field, triples), (spec.differential, n)


@pytest.mark.parametrize("selector,max_entry,top", PRESET_WINDOWS)
def test_a_negative_degree_has_no_columns(selector, max_entry, top):
    # dimension_at says every degree below 0 is empty, and every stream
    # agrees: the matrix out of it is the empty dim(target) x 0 one
    for spec in preset_specs(selector, max_entry, top):
        for n in (-1, -2):
            assert list(spec.columns(n)) == [], (spec.differential, n)
            n_rows = spec.dimension_at(spec.target_degree(n))
            mat = differential_matrix(spec, n)
            assert mat == SparseMatrix(n_rows, 0, spec.operad.field), (spec.differential, n)


def test_construction_refusals_come_in_order(capsys):
    # DIFFERENTIALS is the one table of kinds: the kind is looked up first,
    # then its builder refuses the operad, and only then is the window checked
    assert list(DIFFERENTIALS) == ["boundary", "coboundary", "hochschild"]
    with pytest.raises(OperadError, match=r"^unknown differential 'nope'$"):
        ComplexSpec(AssocOperad(Q), "nope", 3, 1)
    for op in (AssocOperad(Q), ShiftOperad(Q)):
        with pytest.raises(OperadError, match="^the classical complex needs an endomorphism operad$"):
            ComplexSpec(op, "hochschild", 3, 1)
    with pytest.raises(OperadError, match=SHIFT_COBOUNDARY_REFUSAL.format(8)):
        ComplexSpec(ShiftOperad(Q), "coboundary", 3, 1)
    with pytest.raises(OperadError, match=r"^bad degree range \[3, 1\]$"):
        ComplexSpec(make_operad("endo:k", Q), "hochschild", 3, 1)
    code = main(["cohomology", "--operad", "assoc", "--differential", "hochschild",
                 "--lo", "0", "--hi", "1"])
    assert (code, *capsys.readouterr()) == (
        1, "", "error: the classical complex needs an endomorphism operad\n")


@pytest.mark.parametrize("lo,hi,cap", [
    (0.5, 2, 5), (0, True, 5), (0, 2.0, 5), ("0", 2, 5), (0, 2, 2.5),
], ids=("lo 0.5", "hi True", "hi 2.0", "lo '0'", "column_cap 2.5"))
def test_construction_refuses_a_bound_that_is_not_an_int(lo, hi, cap):
    # refused by name at construction, not by a TypeError in betti or by
    # running a bool as an int
    message = f"lo, hi and column_cap must be ints, got {lo!r}, {hi!r} and {cap!r}"
    with pytest.raises(OperadError, match=f"^{re.escape(message)}$"):
        ComplexSpec(AssocOperad(Q), "boundary", lo, hi, column_cap=cap)


def test_assembly_and_rank_hold_little_besides_the_matrix():
    # Assembly keeps only the row index and the column it merges besides
    # the growing dict of stored columns, and the rank only its pivots and
    # the column it reduces, each a copy of a stored column.  Sorting a
    # list of every triple (assembly) costs about 0.4 of the matrix's own
    # size on this matrix (5040 columns, nnz 20076), and copying every
    # column before the reduction (rank) about 0.83; the code stays near
    # 0.03 and 0.14.  The build step reads ``columns``, which builds and
    # stores every column, so the two ratios measure a whole assembly and
    # a rank on a whole matrix.
    spec = ComplexSpec(AssocOperad(F5), "boundary", 0, 7)
    differential_matrix(spec, 3)  # build the point and the caches first
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mat = differential_matrix(spec, 7)
        mat.columns
        held, build_peak = (size - base for size in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        rank = mat.rank()
        rank_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (mat.nnz, rank) == (20076, 620)
    assert (build_peak - held) / held < 0.2
    assert (rank_peak - held) / held < 0.35


# --- the assoc boundary from face ranks against the key-by-key stream, and
# the hochschild kind from key ranks against classical_coboundary ---


class KeyLevelSpec(ComplexSpec):
    """A boundary complex whose matrices are assembled key by key from
    ``core.boundary``, by the stream the boundary builder gives every
    operad but assoc: the oracle of the assoc boundary's face-rank
    assembly."""

    def columns(self, degree, skip=()):
        return _by_key(boundary, self.operad, -1, degree, skip)


class ElementLevelSpec(ComplexSpec):
    """A complex whose columns are summed key by key from the Element-level
    operator of its kind (``element_columns``)."""

    def columns(self, degree, skip=()):
        return element_columns(self, degree)


@pytest.mark.parametrize("field", ["q", "gfp:2", "gfp:3", "gfp:5"])
def test_face_rank_matrices_match_the_key_level_ones(field):
    # over gfp:2 the signs +1 and -1 of two coinciding faces are equal
    op = AssocOperad(get_field(field))
    spec, oracle = ComplexSpec(op, "boundary", 0, 7), KeyLevelSpec(op, "boundary", 0, 7)
    for n in range(8):
        mat, want = differential_matrix(spec, n), differential_matrix(oracle, n)
        assert mat == want, n
        # the same values of the same types: ints over q
        assert [type(v) for *_, v in mat.entries] == [type(v) for *_, v in want.entries], n
    # a window above degree 0, whose first rank no lower degree bounds
    window = betti(ComplexSpec(op, "boundary", 3, 7))
    assert window == betti(KeyLevelSpec(op, "boundary", 3, 7))
    assert window["ranks"] == [2, 4, 20, 100, 620]


def test_face_tables_are_built_once_in_any_order_of_degrees(monkeypatch):
    # degrees read out of order, 8 twice: each matrix is the key-level
    # one, and the stream builds tables 1..7 once, 5913 rows in all
    op, rows = AssocOperad(F5), []
    face_rows = assoc._face_rows
    monkeypatch.setattr(assoc, "_face_rows", lambda n, below: (
        rows.append(n) or row for row in face_rows(n, below)))
    spec = ComplexSpec(op, "boundary", 0, 8, allow_large=True)
    oracle = KeyLevelSpec(op, "boundary", 0, 8, allow_large=True)
    want = {n: differential_matrix(oracle, n) for n in (3, 5, 7, 8)}
    for n in (7, 3, 8, 5, 8):
        assert differential_matrix(spec, n) == want[n], n
    assert len(rows) == sum(factorial(n) for n in range(1, 8)) == 5913


class CountingSpec(ComplexSpec):
    """A complex that counts, per degree, the columns the stream it last
    opened yields (``pulled``) and the columns among them that it built,
    those with terms (``built``): a cleared column may come empty.  It
    records the ``skip`` that stream was opened with (``skips``)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pulled, self.built, self.skips = {}, {}, {}

    def columns(self, degree, skip=()):
        self.pulled[degree] = self.built[degree] = 0
        self.skips[degree] = skip
        for column in super().columns(degree, skip):
            column = list(column)
            self.pulled[degree] += 1
            self.built[degree] += bool(column)
            yield column


@pytest.mark.parametrize("field", ["gfp:5", "q"])
def test_betti_assembles_each_matrix_as_far_as_its_reduction_reads(field, monkeypatch):
    # each reduction of assoc boundary 0..7 reaches its bound after the
    # first (n-1)! columns of d_n, the permutations that start with 1, so
    # betti pulls only those, and none where the bound is 0 (degrees 0 and
    # 2); reading ``columns`` pulls every column, and each matrix is then
    # the one the public constructor builds eagerly
    field = get_field(field)
    built = {}

    def recording(spec, degree):
        built[degree] = mat = differential_matrix(spec, degree)
        return mat

    monkeypatch.setattr(cohomology, "differential_matrix", recording)
    spec = CountingSpec(AssocOperad(field), "boundary", 0, 7)
    assert betti(spec)["ranks"] == [0, 1, 0, 2, 4, 20, 100, 620]
    monkeypatch.undo()
    dims = [spec.dimension_at(n) for n in range(8)]
    assert dims == [1, 1, 2, 6, 24, 120, 720, 5040]
    assert [spec.pulled.get(n, 0) for n in range(8)] == [0, 1, 0, 2, 6, 24, 120, 720]
    eager = ComplexSpec(AssocOperad(field), "boundary", 0, 7)
    for n, mat in built.items():
        mat.columns
        assert spec.pulled[n] == dims[n]
        twin = SparseMatrix(mat.n_rows, mat.n_cols, field, differential_matrix(eager, n).entries)
        assert mat == twin and hash(mat) == hash(twin) and repr(mat) == repr(twin), n
        assert (mat.entries, mat.nnz) == (twin.entries, twin.nnz), n
        assert twin.rank() == mat.rank(), n


def test_cleared_columns_are_never_built():
    # on endo:m2 Hochschild 0..5 the columns that d_{n-1}'s pivots clear
    # come empty, never built, and every other column the reduction reads
    # is a pivot, so each degree builds as many columns as its rank
    spec = CountingSpec(make_operad("endo:m2", Q), "hochschild", 0, 5)
    assert betti(spec)["ranks"] == [3, 13, 51, 205, 819, 3277]
    assert [spec.dimension_at(n) for n in range(6)] == [4, 16, 64, 256, 1024, 4096]
    assert [spec.built[n] for n in range(6)] == [4, 13, 51, 205, 819, 3277]


def test_cleared_keys_are_never_sent_to_the_coboundary(monkeypatch):
    # assoc coboundary 0..6 over gfp:5, key by key: ``core.coboundary`` is
    # applied to no key whose column d_{n-1}'s pivots clear, and to the
    # others in basis order, up to the reduction's bound
    op = AssocOperad(F5)
    eager = ComplexSpec(op, "coboundary", 0, 6)
    cleared = [set(_reduce(F5, _columns(m), min(m.n_rows, m.n_cols)))
               for m in (differential_matrix(eager, n) for n in range(6))]
    calls = {}

    def spy(x):
        (key,) = x.terms
        calls.setdefault(x.arity, []).append(key)
        return core.coboundary(x)

    monkeypatch.setattr(cohomology, "coboundary", spy)
    spec = ComplexSpec(op, "coboundary", 0, 6)
    assert betti(spec)["ranks"] == [0, 1, 1, 5, 19, 101, 619]
    assert [len(c) for c in cleared] == [0, 1, 1, 5, 19, 101]
    for n in range(1, 7):
        index = {key: c for c, key in enumerate(op.basis_keys(n))}
        called = [index[key] for key in calls.get(n, [])]
        kept = [c for c in range(spec.dimension_at(n)) if c not in cleared[n - 1]]
        assert called == kept[:len(called)], n
    assert len(calls[6]) == 619


@pytest.mark.parametrize("selector,kind,hi,label", [
    ("endo:m2", "hochschild", 5, "q"), ("assoc", "coboundary", 6, "gfp:5")])
def test_each_stream_is_told_only_the_rows_it_skips(selector, kind, hi, label):
    # d_{n-1}'s pivots reach d_n's stream as their rows alone, ints: no
    # reduced column of d_{n-1} lives through d_n's reduction
    spec = CountingSpec(make_operad(selector, get_field(label)), kind, 0, hi)
    ranks = betti(spec)["ranks"]
    for n in range(1, hi + 1):
        skip = spec.skips[n]
        assert len(skip) == ranks[n - 1], n
        assert all(type(obj) is int for obj in gc.get_referents(skip)), n


def test_betti_lists_each_row_basis_and_each_column_basis_once(monkeypatch):
    # making a matrix opens no stream, and ``_by_key`` lists its row basis
    # once, into its row index, and its column basis once, to build its
    # columns: so on assoc coboundary 0..6 arity n is listed once as the
    # rows of d_{n-1} and once as the columns of d_n
    op = AssocOperad(F5)
    listed, keys = Counter(), op.basis_keys

    def counted(arity):
        listed[arity] += 1
        return keys(arity)

    monkeypatch.setattr(op, "basis_keys", counted)
    assert betti(ComplexSpec(op, "coboundary", 0, 6))["ranks"] == [0, 1, 1, 5, 19, 101, 619]
    assert [listed[n] for n in range(8)] == [1, 2, 2, 2, 2, 2, 2, 1]


def test_no_matrix_keeps_its_stream_after_the_ranking():
    # each reduction drops its stream, the key-by-key row index with it, even
    # where it stops at its bound before the last column: a matrix holds
    # only its opener, ``spec.columns`` bound to its degree
    spec = ComplexSpec(AssocOperad(F5), "coboundary", 0, 6)
    mats = [differential_matrix(spec, n) for n in range(7)]
    rank_complex(mats, ascending=True)
    assert [m.rank() for m in mats] == [0, 1, 1, 5, 19, 101, 619]
    for mat in mats:
        held = gc.get_referents(mat)
        held += [obj for ref in held if isinstance(ref, partial) for obj in gc.get_referents(ref)]
        assert not [obj for obj in held if isinstance(obj, (GeneratorType, FrameType))
                    or isinstance(obj, dict) and obj], mat


STREAMED_CASES = [
    (selector, kind, lo, hi, field)
    for selector, kind, lo, hi in [
        ("assoc", "boundary", 0, 5), ("assoc", "coboundary", 0, 5), ("shift", "boundary", 0, 5),
        ("endo:k", "boundary", 0, 6), ("endo:k", "coboundary", 0, 6),
        ("endo:k", "hochschild", 0, 6), ("endo:dual", "boundary", 0, 4),
        ("endo:dual", "coboundary", 0, 4), ("endo:dual", "hochschild", 1, 5),
        ("endo:m2", "boundary", 0, 3), ("endo:m2", "coboundary", 0, 3),
        ("endo:m2", "hochschild", 0, 3),
    ]
    for field in ("q", "gfp:2", "gfp:5")
]


@pytest.mark.parametrize("selector,kind,lo,hi,field", STREAMED_CASES)
def test_streamed_ranks_match_eager_twins(selector, kind, lo, hi, field, monkeypatch):
    # betti ranks each matrix off its column stream, bounded by the degree
    # before and cleared by its pivots; public, eagerly built twins ranked
    # one by one, each bounded only by its shape, give the same ranks and
    # dims, and every matrix betti made, read afterwards, is its twin
    op = make_operad(selector, get_field(field))
    made = {}

    def recording(spec, degree):
        made[degree] = mat = differential_matrix(spec, degree)
        return mat

    monkeypatch.setattr(cohomology, "differential_matrix", recording)
    spec = ComplexSpec(op, kind, lo, hi)
    report = betti(spec)
    monkeypatch.undo()
    eager = ComplexSpec(op, kind, lo, hi)
    twins = {}
    for n, mat in made.items():
        twins[n] = SparseMatrix(mat.n_rows, mat.n_cols, op.field,
                                differential_matrix(eager, n).entries)
    dims = []
    for n, twin in twins.items():
        # the incoming differential leaves degree m, if it is in the window
        m = 2 * n - spec.target_degree(n)
        dims.append(twin.kernel_dim() - (twins[m].rank() if m in twins else 0))
    assert report["ranks"] == [twins[n].rank() for n in twins]
    assert report["dims"] == dims
    for n, mat in made.items():
        twin = twins[n]
        assert mat == twin and hash(mat) == hash(twin), n
        assert (mat.entries, mat.nnz) == (twin.entries, twin.nnz), n


def traced_assembly(spec, warm, degree):
    """The degree's matrix, built whole by reading its ``columns``, with the
    memory its assembly held and peaked at, after degree ``warm`` has built
    the point and the caches."""
    differential_matrix(spec, warm).columns
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mat = differential_matrix(spec, degree)
        mat.columns
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return mat, held, peak


def test_face_rank_assembly_holds_no_more_than_the_key_level_one():
    # the face-rank assembly holds the face table of one degree, stored flat,
    # and shares one int object per row, as the key-level row index does
    op = AssocOperad(F5)
    mat, held, peak = traced_assembly(ComplexSpec(op, "boundary", 0, 7), 3, 7)
    want, oracle_held, oracle_peak = traced_assembly(KeyLevelSpec(op, "boundary", 0, 7), 3, 7)
    assert mat == want and mat.nnz == 20076
    assert held <= oracle_held and peak <= oracle_peak


HOCHSCHILD_CASES = [
    (selector, top, field)
    for selector, top in dict.fromkeys((s, t) for s, t, _ in KEY_LEVEL_CASES)
    if selector not in ("assoc", "shift")
    for field in ("q", "gfp:2", "gfp:3", "gfp:5")
    # 2k's unit 1/2 has no value over gfp:2, nor fractional_x2's 2/3 over gfp:3
    if (selector, field) not in {("2k", "gfp:2"), ("fractional_x2", "gfp:3")}
]


@pytest.mark.parametrize("selector,top,field", HOCHSCHILD_CASES)
def test_key_rank_matrices_match_the_key_level_ones(selector, top, field):
    # the key-level matrices are summed key by key from classical_coboundary,
    # which reads the structure constants ``mul`` on its own; over gfp:2 the
    # signs of a commutator's two terms are equal
    op = key_level_operad(selector, get_field(field))
    spec = ComplexSpec(op, "hochschild", 0, top)
    for n in range(top + 1):
        mat, want = differential_matrix(spec, n), element_matrix(spec, n)
        assert mat == want, n
        # the same values of the same types: ints over q, and the Fractions
        # of a non-integral algebra kept
        types = [type(v) for *_, v in mat.entries]
        assert types == [type(v) for *_, v in want.entries], n
        if field == "q":
            assert (Fraction in types) == (selector == "fractional_x2" and n > 0), n
    # a window above degree 0, whose first rank no lower degree bounds
    window = betti(ComplexSpec(op, "hochschild", 2, top))
    assert window == betti(ElementLevelSpec(op, "hochschild", 2, top))


def test_key_rank_assembly_holds_no_more_than_the_key_level_one():
    # the key-rank assembly shares one int object per row, as the row index
    # of the Element-level assembly does, and lists no row key; with a fresh
    # int per entry it would hold about a third more
    op = make_operad("endo:m2", Q)
    mat, held, peak = traced_assembly(ComplexSpec(op, "hochschild", 0, 5), 2, 5)
    oracle = ElementLevelSpec(op, "hochschild", 0, 5)
    want, oracle_held, oracle_peak = traced_assembly(oracle, 2, 5)
    assert mat == want and mat.nnz == 37028
    assert held <= oracle_held and peak <= oracle_peak


def test_ground_field_hochschild_runs_to_degree_300():
    # the column of (0..0) sums 1, the n signs (-1)^p and (-1)^(n+1): 0 at
    # even degrees and 1 at odd ones, so HH^0 = k and every other degree is 0
    report = betti(ComplexSpec(make_operad("endo:k", Q), "hochschild", 0, 300))
    assert report["dims"] == [1] + [0] * 300
    assert report["ranks"] == [n % 2 for n in range(301)]
    assert report["warnings"] == []


def test_one_sided_warnings():
    op = EndoOperad(dual_numbers(F3))
    ascending = betti(ComplexSpec(op, "hochschild", 1, 2))
    assert any("one-sided" in w for w in ascending["warnings"])
    closed = betti(ComplexSpec(op, "hochschild", 0, 2))
    assert closed["warnings"] == []
    descending = betti(ComplexSpec(AssocOperad(Q), "boundary", 1, 3))
    assert any("one-sided" in w for w in descending["warnings"])


def test_no_one_sided_warning_past_an_empty_basis():
    # the shift basis truncated at max-entry 8 is empty at degree 9, so the
    # rank into degree 8 is 0 and its dimension is exact; degree 5 is not
    op = ShiftOperad(Q)
    closed = betti(ComplexSpec(op, "boundary", 0, 8))
    assert closed["warnings"] == [] and closed["dims"][-1] == 1
    assert betti(ComplexSpec(op, "boundary", 0, 5))["warnings"] == [
        "degree 5: incoming rank at degree 6 not computed (one-sided)"]


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


@pytest.mark.parametrize("selector,kinds", [
    ("assoc", ("boundary", "coboundary")),
    # the shift basis truncated at max-entry is not closed under the coboundary
    ("shift", ("boundary",)),
    ("endo:dual", ("boundary", "coboundary", "hochschild")),
    ("endo:m2", ("boundary", "coboundary", "hochschild")),
])
def test_integral_data_assemble_int_matrices_over_q(selector, kinds):
    """Over Q the presets' data are ints, and so is every matrix entry: the
    columns run in int arithmetic, with no Fraction to build or clear."""
    op = make_operad(selector, Q)
    for kind in kinds:
        values = [v for n in (1, 2, 3)
                  for *_, v in differential_matrix(ComplexSpec(op, kind, n, n), n).entries]
        assert values and all(type(v) is int for v in values), kind


# the dual numbers on the basis 2*1, 2*x: (2*1)(2*1) = 2*(2*1), and the unit
# is (2*1)/2, so the unit carries a non-integral coordinate
SCALED_DUAL = {"dim": 2, "unit": ["1/2", 0], "mul": [[["2", 0], [0, "2"]], [[0, "2"], [0, 0]]]}


def test_non_integral_algebra_data_keep_their_fractions_and_answer():
    op = EndoOperad(algebra_from_json(SCALED_DUAL, Q, "scaled_dual"))
    assert op.algebra.unit == (Fraction(1, 2), 0)
    # a face plugs in the unit, so the boundary columns carry its halves
    entries = differential_matrix(ComplexSpec(op, "boundary", 2, 2), 2).entries
    assert Fraction(1, 2) in {abs(v) for *_, v in entries}
    report = betti(ComplexSpec(op, "hochschild", 0, 5))
    preset = betti(ComplexSpec(EndoOperad(dual_numbers(Q)), "hochschild", 0, 5))
    assert report["dims"] == preset["dims"] == [2, 1, 1, 1, 1, 1]
    assert report["ranks"] == preset["ranks"] == [0, 3, 4, 11, 20, 43]


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


# --- the endo coboundary, read off key ranks, against the classical kind ---


def test_endo_coboundary_lists_no_key_and_calls_no_operator(monkeypatch):
    # on an endomorphism operad the coboundary is read off key ranks, as the
    # classical kind is: no key is listed and core.coboundary never runs
    def refuse(*args):
        raise AssertionError("the key-by-key stream ran")

    op = make_operad("endo:m2", F5)
    for target in (core, cohomology):
        monkeypatch.setattr(target, "coboundary", refuse)
    monkeypatch.setattr(EndoOperad, "basis_keys", refuse)
    report = betti(ComplexSpec(op, "coboundary", 0, 4))
    assert report["dims"] == [1, 3, 0, 0, 0]
    assert report["ranks"] == [0, 13, 51, 205, 819]


ENDO_SELECTORS = [("endo:k", 6), ("endo:dual", 6), ("endo:m2", 4)] + [
    (name, 4) for name in sorted(CLOSED_FORM_ALGEBRAS)]


@pytest.mark.parametrize("field", ["q", "gfp:2", "gfp:3", "gfp:5"])
@pytest.mark.parametrize("selector,top", ENDO_SELECTORS)
def test_endo_coboundary_and_hochschild_dims_agree_as_theory_says(selector, top, field):
    # the two kinds share every differential of degree n >= 1 and differ at
    # degree 0: the operadic one is the point, whose coboundary is zero, and
    # the classical one the algebra, with d0(a) = [-, a].  So operadic H^0
    # is the point, operadic H^1 the derivations of A, which is HH^1 plus the
    # inner ones (the rank of d0), and H^n = HH^n for n >= 2
    op = key_level_operad(selector, get_field(field))
    operadic = betti(ComplexSpec(op, "coboundary", 0, top))
    classical = betti(ComplexSpec(op, "hochschild", 0, top))
    assert operadic["warnings"] == classical["warnings"] == []
    assert operadic["dims"][0] == 1
    assert operadic["dims"][1] == classical["dims"][1] + classical["ranks"][0]
    assert operadic["dims"][2:] == classical["dims"][2:]
    assert operadic["ranks"][1:] == classical["ranks"][1:]


@pytest.mark.parametrize("selector,field,top,operadic,classical", [
    # Der M_2 is sl_2, all inner, and M_2 is separable
    ("endo:m2", "gfp:5", 5, [1, 3, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]),
    # k[x]/(x^2) is commutative: no inner derivation, and Der = HH^1 = k
    ("endo:dual", "q", 6, [1] * 7, [2] + [1] * 6),
])
def test_endo_coboundary_and_hochschild_dims(selector, field, top, operadic, classical):
    op = make_operad(selector, get_field(field))
    assert betti(ComplexSpec(op, "coboundary", 0, top))["dims"] == operadic
    assert betti(ComplexSpec(op, "hochschild", 0, top))["dims"] == classical


@pytest.mark.parametrize("field_label", ["q", "gfp:2"])
def test_assoc_boundary_is_acyclic(field_label):
    report = betti(ComplexSpec(AssocOperad(get_field(field_label)), "boundary", 0, 6))
    # the top degree is one-sided (no incoming rank); every other one is zero
    assert report["dims"][:-1] == [0] * 6

"""Exact sparse matrices: construction, rank, kernel dimension.

The column reduction behind ``SparseMatrix.rank`` (``_integer_rank``) is
compared with two eliminations it replaced, kept below as oracles: the int
row-pivot elimination (``_row_pivot_rank``) and the field-generic one before
it (``_sparse_rank``), and with the dense path, on random matrices and on the
differential matrices of real complexes.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from operad_lab import ComplexSpec, EndoOperad, FinAlgebra, differential_matrix
from operad_lab.cli import make_operad
from operad_lab.linalg import (
    LinalgError,
    SparseMatrix,
    _dense_rank,
    _integer_rank,
    equal_up_to_global_sign,
)
from operad_lab.scalars import get_field

Q = get_field("q")
F5 = get_field("gfp:5")
ORACLE_FIELDS = ("q", "gfp:2", "gfp:5", "gfp:32003")


def M(rows, cols, field, entries):
    return SparseMatrix(rows, cols, field, entries)


def test_construction_merges_and_drops_zeros():
    m = M(2, 2, Q, [
        (0, 0, Q.from_int(2)),
        (0, 0, Q.from_int(-2)),
        (1, 1, Q.from_int(3)),
    ])
    assert m.nnz == 1
    assert m.to_dense() == [[Q.zero, Q.zero], [Q.zero, Q.from_int(3)]]


def test_bounds_checked():
    with pytest.raises(LinalgError):
        M(2, 2, Q, [(2, 0, Q.one)])
    with pytest.raises(LinalgError):
        M(2, 2, Q, [(0, -1, Q.one)])


def test_kernel_dim_rejects_impossible_rank(monkeypatch):
    monkeypatch.setattr(SparseMatrix, "rank", lambda self: 3)
    with pytest.raises(LinalgError, match="rank 3 outside 0..2"):
        M(2, 2, Q, []).kernel_dim()


def test_rank_rational_golden():
    m = M(3, 3, Q, [
        (0, 0, Q.from_int(1)), (0, 1, Q.from_int(2)), (0, 2, Q.from_int(3)),
        (1, 0, Q.from_int(2)), (1, 1, Q.from_int(4)), (1, 2, Q.from_int(6)),
        (2, 0, Q.from_int(1)), (2, 1, Q.from_int(1)), (2, 2, Q.from_int(1)),
    ])
    assert m.rank() == 2
    assert m.kernel_dim() == 1


def test_rank_mod_p_differs_from_rational():
    # determinant 5: invertible over the rationals, singular over GF(5)
    entries = [
        (0, 0, 1), (0, 1, 2),
        (1, 0, 1), (1, 1, 7),
    ]
    mq = M(2, 2, Q, [(r, c, Q.from_int(v)) for r, c, v in entries])
    m5 = M(2, 2, F5, [(r, c, F5.from_int(v)) for r, c, v in entries])
    assert mq.rank() == 2
    assert m5.rank() == 1


def test_zero_and_identity():
    z = M(4, 3, Q, [])
    assert z.rank() == 0
    assert z.kernel_dim() == 3
    eye = M(3, 3, Q, [(i, i, Q.one) for i in range(3)])
    assert eye.rank() == 3
    assert eye.kernel_dim() == 0


def test_transpose():
    m = M(2, 3, Q, [(0, 1, Q.from_int(5)), (1, 2, Q.from_int(-1))])
    t = m.transpose()
    assert t.n_rows == 3 and t.n_cols == 2
    assert t.to_dense()[1][0] == Q.from_int(5)
    assert m.rank() == t.rank()


def test_dense_and_sparse_paths_agree():
    rng = random.Random(5)
    for trial in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = []
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.35:
                    entries.append((r, c, Q.from_int(rng.randint(-4, 4))))
        m = M(rows, cols, Q, entries)
        dense = m.to_dense()
        # brute-force rank by row reduction over Fraction
        mat = [row[:] for row in dense]
        rank = 0
        col = 0
        while rank < rows and col < cols:
            pivot = next((r for r in range(rank, rows) if mat[r][col] != Q.zero), None)
            if pivot is None:
                col += 1
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = Q.inv(mat[rank][col])
            mat[rank] = [Q.mul(inv, v) for v in mat[rank]]
            for r in range(rows):
                if r != rank and mat[r][col] != Q.zero:
                    factor = mat[r][col]
                    mat[r] = [Q.sub(v, Q.mul(factor, w)) for v, w in zip(mat[r], mat[rank])]
            rank += 1
            col += 1
        assert m.rank() == rank, (trial, dense)


def test_equal_up_to_global_sign():
    a = M(2, 2, Q, [(0, 0, Q.one), (1, 1, Q.from_int(2))])
    b = M(2, 2, Q, [(0, 0, Q.from_int(-1)), (1, 1, Q.from_int(-2))])
    c = M(2, 2, Q, [(0, 0, Q.one), (1, 1, Q.from_int(-2))])
    z = M(2, 2, Q, [])
    assert equal_up_to_global_sign(a, a) == 1
    assert equal_up_to_global_sign(a, b) == -1
    assert equal_up_to_global_sign(a, c) is None
    assert equal_up_to_global_sign(z, z) == 1
    d = M(2, 3, Q, [])
    assert equal_up_to_global_sign(a, d) is None


# --- the column-major order ------------------------------------------------


def test_entries_are_column_major():
    rng = random.Random(17)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            cells = [(c, r) for r, c, _ in m.entries]
            assert cells == sorted(set(cells))
    m = M(2, 2, Q, [(0, 1, Q.one), (1, 0, Q.from_int(2)), (0, 0, Q.from_int(3))])
    assert m.entries == ((0, 0, Q.from_int(3)), (1, 0, Q.from_int(2)), (0, 1, Q.one))


def test_trusted_constructor_keeps_its_input_order():
    # it stores any iterable as it comes, a generator included, sorting nothing
    triples = [(1, 1, Q.one), (0, 0, Q.from_int(2)), (1, 0, Q.from_int(3))]
    trusted = SparseMatrix._from_canonical(2, 2, Q, (t for t in triples))
    assert trusted.entries == tuple(triples)


def test_trusted_and_public_matrices_agree():
    rng = random.Random(19)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            trusted = SparseMatrix._from_canonical(m.n_rows, m.n_cols, field, iter(m.entries))
            negated = SparseMatrix._from_canonical(
                m.n_rows, m.n_cols, field, [(r, c, field.neg(v)) for r, c, v in m.entries])
            assert trusted == m and hash(trusted) == hash(m)
            assert trusted.transpose() == m.transpose()
            assert hash(trusted.transpose()) == hash(m.transpose())
            # -m equals m when m is zero or the field has characteristic 2
            sign = 1 if negated == m else -1
            assert equal_up_to_global_sign(trusted, m) == 1
            assert equal_up_to_global_sign(negated, m) == sign
            assert equal_up_to_global_sign(m.transpose(), negated.transpose()) == sign


# --- the column reduction against the oracles ------------------------------


# The field-generic sparse elimination that ``SparseMatrix.rank`` ran before
# the int kernel, kept verbatim: same pivots, arithmetic through the field.
def _sparse_rank(mat):
    field = mat.field
    rows = {}
    for r, c, v in mat.entries:
        rows.setdefault(r, {})[c] = v
    work = [d for d in rows.values() if d]
    by_col = {}
    for idx, d in enumerate(work):
        for c in d:
            by_col.setdefault(c, set()).add(idx)
    eliminated = [False] * len(work)
    rank = 0
    for col in range(mat.n_cols):
        cands = [i for i in by_col.get(col, ()) if not eliminated[i] and col in work[i]]
        if not cands:
            continue
        pivot = min(cands, key=lambda i: len(work[i]))
        eliminated[pivot] = True
        rank += 1
        prow = work[pivot]
        inv = field.inv(prow[col])
        for i in cands:
            if i == pivot:
                continue
            row = work[i]
            factor = field.mul(row[col], inv)
            for c, v in prow.items():
                nv = field.sub(row.get(c, field.zero), field.mul(factor, v))
                if field.is_zero(nv):
                    row.pop(c, None)
                else:
                    if c not in row:
                        by_col.setdefault(c, set()).add(i)
                    row[c] = nv
    return rank


# The int row-pivot elimination that ``_integer_rank`` ran before the column
# reduction, kept verbatim: columns ascending, the shortest candidate row as
# pivot, modular over GF(p) and fraction-free over Q.
def _row_pivot_rank(mat):
    """Rank by sparse elimination on plain ints: columns ascending, the
    shortest candidate row as pivot.  Over GF(p) the pivot row is scaled to a
    leading 1 and each row is reduced mod p; over Q each row is first cleared
    of denominators, then updated fraction-free as ``(a/g) row - (b/g) pivot``
    with ``g = gcd(a, b)`` and divided by its content."""
    rows = {}
    for r, c, v in mat.entries:
        rows.setdefault(r, {})[c] = v
    work = list(rows.values())
    modulus = mat.field.p if mat.field.kind == "prime" else None
    if modulus is None:
        for row in work:
            den = lcm(*(v.denominator for v in row.values()))
            for c, v in row.items():
                row[c] = v.numerator * (den // v.denominator)
            _make_primitive(row)
    by_col = {}
    for idx, row in enumerate(work):
        for c in row:
            by_col.setdefault(c, set()).add(idx)
    eliminated = [False] * len(work)
    rank = 0
    for col in range(mat.n_cols):
        cands = [i for i in by_col.get(col, ()) if not eliminated[i] and col in work[i]]
        if not cands:
            continue
        pivot = min(cands, key=lambda i: len(work[i]))
        eliminated[pivot] = True
        rank += 1
        prow = work[pivot]
        a = prow[col]
        if modulus is not None and a != 1:
            inv = pow(a, -1, modulus)
            for c, v in prow.items():
                prow[c] = v * inv % modulus
        for i in cands:
            if i == pivot:
                continue
            row = work[i]
            if modulus is None:
                b = row[col]
                g = gcd(a, b)
                s, b = a // g, b // g
                if s != 1:
                    for c, v in row.items():
                        row[c] = s * v
                for c, v in prow.items():
                    old = row.get(c)
                    if old is None:
                        by_col[c].add(i)
                        row[c] = -b * v
                    elif old == b * v:
                        del row[c]
                    else:
                        row[c] = old - b * v
                _make_primitive(row)
            else:
                nb = modulus - row[col]
                for c, v in prow.items():
                    old = row.get(c)
                    if old is None:
                        by_col[c].add(i)
                        row[c] = nb * v % modulus
                    else:
                        nv = (old + nb * v) % modulus
                        if nv:
                            row[c] = nv
                        else:
                            del row[c]
    return rank


def _make_primitive(row):
    """Divide an int row by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for c, v in row.items():
            row[c] = v // content


def random_matrix(rng, field, rows, cols):
    """A random matrix with some all-zero rows and columns; over Q the entries
    include negatives and non-integral rationals."""
    live_rows = [r for r in range(rows) if rng.random() < 0.8]
    live_cols = [c for c in range(cols) if rng.random() < 0.8]
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    entries = []
    for r in live_rows:
        for c in live_cols:
            if rng.random() < density:
                if field.kind == "rational":
                    value = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7, 12)))
                else:
                    value = field.from_int(rng.randint(-field.p, field.p))
                entries.append((r, c, value))
    return SparseMatrix(rows, cols, field, entries)


def product(a, b):
    """The matrix product a b: its rank is at most the inner dimension, so
    its rows are dependent whenever that is below the row count."""
    field = a.field
    right = {}
    for r, c, v in b.entries:
        right.setdefault(r, []).append((c, v))
    triples = [(r, c, field.mul(u, v)) for r, k, u in a.entries for c, v in right.get(k, ())]
    return SparseMatrix(a.n_rows, b.n_cols, field, triples)


def assert_ranks_agree(m, dense=True):
    expected = _sparse_rank(m)
    assert _row_pivot_rank(m) == expected, m
    assert _integer_rank(m) == expected, m
    if dense:
        assert _dense_rank(m.to_dense(), m.field) == expected, m
    assert m.rank() == expected


@pytest.mark.parametrize("label", ORACLE_FIELDS)
def test_integer_rank_matches_oracles_on_random_matrices(label):
    field = get_field(label)
    rng = random.Random(label)
    for _ in range(200):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        assert_ranks_agree(random_matrix(rng, field, rows, cols))
        inner = rng.randint(0, min(rows, cols))
        low_rank = product(random_matrix(rng, field, rows, inner),
                           random_matrix(rng, field, inner, cols))
        assert_ranks_agree(low_rank)


def scaled_line(field):
    """The ground field on e = 2: e*e = 2e and the unit is e/2."""
    two = field.from_int(2)
    return EndoOperad(FinAlgebra("2k", field, 1, (field.inv(two),), (((two,),),)))


@pytest.mark.parametrize("selector,kinds,top,label", [
    *(("assoc", ("boundary",), 7, label) for label in ("q", "gfp:2", "gfp:5")),
    *(("shift", ("boundary",), 6, label) for label in ("q", "gfp:2", "gfp:5")),
    *(("endo:m2", ("hochschild",), 4, label) for label in ("q", "gfp:2", "gfp:5")),
    ("2k", ("boundary", "coboundary", "hochschild"), 6, "q"),
])
def test_integer_rank_matches_oracles_on_complexes(selector, kinds, top, label):
    field = get_field(label)
    op = scaled_line(field) if selector == "2k" else make_operad(selector, field)
    for kind in kinds:
        spec = ComplexSpec(op, kind, 0, top)
        for n in range(top + 1):
            m = differential_matrix(spec, n)
            assert_ranks_agree(m, dense=m.n_rows * m.n_cols <= 5000)


# --- the memoised rank -----------------------------------------------------


def test_rank_is_memoised_and_invisible():
    rng = random.Random(11)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            twin = SparseMatrix(m.n_rows, m.n_cols, field, m.entries)
            trusted = SparseMatrix._from_canonical(m.n_rows, m.n_cols, field, m.entries)
            r = m.rank()
            assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
            assert [m.rank(), m.rank()] == [r, r]
            assert m.kernel_dim() == m.kernel_dim() == m.n_cols - r
            assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
            assert twin.rank() == trusted.rank() == r
            assert trusted._rank == r
            assert m.transpose().rank() == r


def test_rank_leaves_its_input_alone():
    """The kernel reduces its own copies of the columns: the entries of a
    ranked matrix stay the same object, equal value for value (and type for
    type, so no Fraction turns into an int) to a twin that was never ranked."""
    rng = random.Random(13)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(30):
            seed, rows, cols = rng.random(), rng.randint(1, 12), rng.randint(1, 12)
            m = random_matrix(random.Random(seed), field, rows, cols)
            twin = random_matrix(random.Random(seed), field, rows, cols)
            entries, digest = m.entries, hash(m)
            _integer_rank(m)
            m.rank()
            assert m.entries is entries
            assert m == twin and hash(m) == hash(twin) == digest
            assert [type(v) for *_, v in m.entries] == [type(v) for *_, v in twin.entries]
            assert twin.rank() == m.rank()


def test_constructors_leave_the_rank_unset(monkeypatch):
    calls = []
    monkeypatch.setattr("operad_lab.linalg._integer_rank",
                        lambda mat: calls.append(mat) or 1)
    m = M(5, 5, Q, [(0, 0, Q.one), (1, 0, Q.one)])  # sparse: density 0.08
    trusted = SparseMatrix._from_canonical(5, 5, Q, m.entries)
    for mat in (m, trusted):
        assert not hasattr(mat, "_rank")
        assert [mat.rank(), mat.kernel_dim(), mat.rank()] == [1, 4, 1]
    assert calls == [m, trusted]

"""Exact sparse matrices: construction, rank, kernel dimension.

The column reduction behind ``SparseMatrix.rank`` (``_reduce``, fed by the
column stream ``_columns``) is compared with three eliminations it replaced,
kept below as oracles: the int row-pivot elimination (``_row_pivot_rank``),
the field-generic one before it (``_sparse_rank``) and the dense elimination
(``_dense_rank``), on random matrices and on the differential matrices of
real complexes.  The GF(p) reducer that scaled each pivot to a leading 1
(``_mod_p_normalising``) is the oracle of the unscaled one: the same lows
in pull order on real complexes and random matrices, and a count of the
inverses ``betti`` takes guards the cost.
``rank_complex``, which bounds each reduction by the rank of the previous
degree and clears columns, is compared with ``rank()`` and
``_row_pivot_rank`` on random chain complexes, and the columns it reads on
real complexes are counted.  A recording stream shows that ``_reduce``
pulls no column past its bound, and that a matrix from the trusted
constructor stores no column for the reduction: each reader opens a fresh
stream, the reduction's with the columns it clears, and drops it at its
bound; reading ``columns`` stores the matrix once, and later readers read
copies.  A stream that fails part way leaves a matrix that fails at every
read.
"""

import random
import re
import sys
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest

from operad_lab import ComplexSpec, assoc, betti, differential_matrix, linalg
from operad_lab.cli import make_operad
from operad_lab.linalg import (
    LinalgError,
    SparseMatrix,
    _columns,
    _reduce,
    equal_up_to_global_sign,
    rank_complex,
)
from operad_lab.scalars import ScalarError, get_field, linear_combination
from complexes import cases, operad

Q = get_field("q")
F5 = get_field("gfp:5")
ORACLE_FIELDS = ("q", "gfp:2", "gfp:5", "gfp:32003")


def M(rows, cols, field, entries):
    return SparseMatrix(rows, cols, field, entries)


def to_dense(m):
    """The matrix as a list of rows, zeros written out."""
    rows = [[m.field.zero] * m.n_cols for _ in range(m.n_rows)]
    for r, c, v in m.entries:
        rows[r][c] = v
    return rows


def transpose(m):
    return SparseMatrix(m.n_cols, m.n_rows, m.field, [(c, r, v) for r, c, v in m.entries])


def integer_rank(m):
    """The int column reduction bounded only by the shape, as ``rank()``
    runs it."""
    return len(_reduce(m.field, _columns(m), min(m.n_rows, m.n_cols)))


def test_construction_merges_and_drops_zeros():
    m = M(2, 2, Q, [
        (0, 0, Q.from_int(2)),
        (0, 0, Q.from_int(-2)),
        (1, 1, Q.from_int(3)),
    ])
    assert m.nnz == 1
    assert to_dense(m) == [[Q.zero, Q.zero], [Q.zero, Q.from_int(3)]]


def test_construction_refuses_an_index_that_is_not_an_int():
    # a float, a bool or a string index is refused by name, before the
    # range check, which a string would fail with a bare TypeError and a
    # float or a bool would pass
    for entry in [(0.5, 0, 1), (0, 1.0, 1), (True, 0, 1), ("1", 0, 1)]:
        message = f"entry ({entry[0]!r},{entry[1]!r}) has an index that is not an int"
        with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
            M(2, 2, F5, [(0, 1, 1), entry])
    assert M(2, 2, F5, [(1, 0, 1)]).entries == ((1, 0, 1),)


def test_construction_stores_field_scalars():
    # an int over gfp:p is stored reduced into [0, p), so 6 and -1 give
    # the matrix written with 1 and 4; a float or a bool is refused
    m = M(2, 2, F5, [(0, 0, 6), (1, 1, -1), (0, 1, 2), (1, 0, 2)])
    same = M(2, 2, F5, [(0, 0, 1), (1, 1, 4), (0, 1, 2), (1, 0, 2)])
    assert m == same and hash(m) == hash(same)
    assert m.entries == ((0, 0, 1), (1, 0, 2), (0, 1, 2), (1, 1, 4))
    assert equal_up_to_global_sign(m, same) == 1
    negated = M(2, 2, F5, [(r, c, -v) for r, c, v in m.entries])
    assert equal_up_to_global_sign(m, negated) == -1
    assert M(2, 2, F5, [(0, 0, 5), (1, 1, -10)]).nnz == 0
    for field in (Q, F5):
        for bad in (0.5, 2.0, 0.0, True):
            with pytest.raises(ScalarError, match=f"got {bad!r}$"):
                M(2, 2, field, [(0, 0, bad)])
    assert [type(v) for *_, v in M(1, 2, Q, [(0, 0, Fraction(1, 2)), (0, 1, 3)]).entries] == [
        Fraction, int]


def test_construction_refuses_a_shape_that_is_not_an_int():
    # a float, a bool or a string size is refused by name, before the
    # negativity check, which a string would fail with a bare TypeError,
    # and a float or a bool would pass, to print as 2.5x3 or Truex2 and to
    # give a float kernel dimension
    for shape in [(2.5, 3), (True, 2), (2.0, 2.0), (2, "3")]:
        message = f"shape {shape[0]!r}x{shape[1]!r} has a size that is not an int"
        with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
            M(*shape, Q, [(0, 0, 1)])
    with pytest.raises(LinalgError, match="^negative matrix dimensions$"):
        M(2, -1, Q, [])
    assert repr(M(2, 3, Q, [(0, 0, 1)])) == "SparseMatrix(2x3, nnz=1, q)"


def test_public_matrix_interns_only_the_rows_it_holds():
    # a row table of range(n_rows) could not even be made at 10^30 rows
    m = M(10**30, 1, Q, [(0, 0, 1)])
    assert m.entries == ((0, 0, 1),)
    assert m.rank() == 1 and m.kernel_dim() == 0


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
    t = transpose(m)
    assert t.n_rows == 3 and t.n_cols == 2
    assert to_dense(t)[1][0] == Q.from_int(5)
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
        dense = to_dense(m)
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


def raw_columns(m):
    """The columns of ``m`` as the trusted constructor's streams yield them:
    one list of (row, value) pairs per column, in column order, empty ones
    included."""
    return [list(m.columns.get(c, {}).items()) for c in range(m.n_cols)]


def trusted(n_rows, n_cols, field, columns):
    """The trusted matrix whose every stream yields the list ``columns``,
    whatever it skips."""
    return SparseMatrix._from_columns(n_rows, n_cols, field, lambda skip: columns)


def test_trusted_constructor_keeps_its_input_order():
    # column c is the stream's c-th iterable, empty ones included, pulled
    # from any iterable, a generator of generators included
    columns = [[(1, Q.from_int(3))], [], [(0, Q.from_int(2)), (1, Q.one)], []]
    made = SparseMatrix._from_columns(
        2, 4, Q, lambda skip: ((t for t in col) for col in columns))
    assert made.entries == ((1, 0, 3), (0, 2, 2), (1, 2, 1))
    assert made == M(2, 4, Q, [(r, c, v) for c, col in enumerate(columns) for r, v in col])


class SpyField(type(Q)):
    """Q, recording each ``add`` and ``is_zero`` it is asked and refusing
    ``coerce``, which no trusted constructor may call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def add(self, a, b):
        self.calls.append(("add", a, b))
        return super().add(a, b)

    def is_zero(self, a):
        self.calls.append(("is_zero", a))
        return super().is_zero(a)

    def coerce(self, a):
        raise AssertionError(f"coerce({a!r}) called on a trusted path")


def test_trusted_constructor_merges_repeated_rows_only():
    # a repeated row is merged, the older value first; only a sum can
    # cancel, so no other value is tested for zero
    spy = SpyField()
    columns = [[(2, 1), (0, 3), (2, 3)], [(1, 1), (0, 1), (1, -1)], [], [(3, 1), (1, 2)]]
    m = trusted(4, 4, spy, columns)
    assert m.entries == ((0, 0, 3), (2, 0, 4), (0, 1, 1), (1, 3, 2), (3, 3, 1))
    assert spy.calls == [("add", 1, 3), ("is_zero", 4), ("add", 1, -1), ("is_zero", 0)]


@pytest.mark.parametrize("label", ("q", "gfp:2", "gfp:5"))
def test_trusted_constructor_sums_each_column_as_linear_combination_does(label):
    # each column is the canonical sum of its terms, rows sorted; a pair
    # +1, -1 cancels in every field, since over gfp:2 the two signs are
    # equal and add to 2 = 0
    field = get_field(label)
    one, minus = field.one, field.neg(field.one)
    three = field.from_int(3)
    columns = [
        [(2, one), (0, three), (2, three)],  # a repeated row
        [(1, one), (0, one), (1, minus)],  # a pair that cancels
        [(0, one), (0, minus), (0, three)],  # a cancelled row met again
        [],  # an empty column
        [(3, one), (1, three), (0, minus)],  # no repeat, rows out of order
    ]
    m = trusted(4, 5, field, columns)
    want = [(r, c, v) for c, col in enumerate(columns)
            for r, v in sorted(linear_combination(field, col).items())]
    assert m.entries == tuple(want)
    assert [type(v) for *_, v in m.entries] == [type(v) for *_, v in want]
    assert (0, 1, one) in m.entries and not any(c == 1 and r == 1 for r, c, _ in m.entries)
    assert m == M(4, 5, field, [(r, c, v) for c, col in enumerate(columns) for r, v in col])


def test_trusted_constructor_keeps_the_value_types_over_q():
    # ints stay ints and a Fraction stays a Fraction even where it sums to
    # an integer, as ``linear_combination`` leaves them; a row that cancels
    # is dropped, so a later int on it stays an int, where
    # ``linear_combination`` adds it to a zero Fraction
    half = Fraction(1, 2)
    columns = [[(0, 2), (0, 3)], [(0, 1), (0, half)], [(0, half), (0, half)],
               [(0, half), (0, -half), (0, 3)]]
    m = trusted(1, 4, Q, columns)
    assert [(v, type(v)) for *_, v in m.entries] == [
        (5, int), (Fraction(3, 2), Fraction), (1, Fraction), (3, int)]
    for (*_, v), col in zip(m.entries[:3], columns):
        (want,) = linear_combination(Q, col).values()
        assert (v, type(v)) == (want, type(want))


def test_public_constructor_merges_its_columns_as_the_trusted_one_does():
    # the two constructors share one column merge: entries given in any
    # column order, zero values dropped, give the trusted matrix of the same
    # columns, value types included; a row that cancels is dropped, so a
    # later int on it stays an int
    half = Fraction(1, 2)
    columns = [[(0, 2), (0, 3)], [], [(1, half), (0, 0), (1, -half), (1, 3)],
               [(1, 1), (0, half)]]
    triples = [(r, c, v) for c, col in reversed(list(enumerate(columns))) for r, v in col]
    public = M(2, 4, Q, triples)
    made = trusted(2, 4, Q, [[t for t in col if t[1]] for col in columns])
    assert public.entries == made.entries == (
        (0, 0, 5), (1, 2, 3), (0, 3, half), (1, 3, 1))
    typed = [[(v, type(v)) for *_, v in m.entries] for m in (public, made)]
    assert typed[0] == typed[1] and typed[0][1] == (3, int)


def test_trusted_constructor_shares_one_object_per_row():
    # rows computed afresh are stored as one int object each, shared by
    # every column they appear in, by the trusted and the public constructor
    rows = [int(str(n)) for n in (700, 999, 700, 999)]
    assert rows[0] is not rows[2] and rows[1] is not rows[3]
    m = trusted(1000, 2, F5, [
        [(rows[0], 1), (rows[1], 2)], [(rows[3], 3), (rows[2], 4)]])
    public = M(1000, 2, F5, [(rows[0], 0, 1), (rows[1], 0, 2), (rows[3], 1, 3), (rows[2], 1, 4)])
    for mat in (m, public):
        assert mat.entries == ((700, 0, 1), (999, 0, 2), (700, 1, 4), (999, 1, 3))
        assert mat.entries[0][0] is mat.entries[2][0] and mat.entries[1][0] is mat.entries[3][0]


@pytest.mark.parametrize("selector,kind,degree,label", [
    ("assoc", "boundary", 7, "gfp:5"),
    ("assoc", "boundary", 7, "q"),
    ("endo:m2", "hochschild", 5, "q"),
])
def test_every_stored_column_is_compact(selector, kind, degree, label):
    # a column whose rows merged is copied once, so no stored column keeps
    # the dead slots its merges left: each is as small as a fresh copy
    spec = ComplexSpec(make_operad(selector, get_field(label)), kind, degree, degree)
    mat = differential_matrix(spec, degree)
    assert len(mat.columns) == mat.n_cols
    for col in mat.columns.values():
        assert sys.getsizeof(col) == sys.getsizeof(dict(col.items()))


def shuffled_columns(rng, m):
    """``raw_columns(m)``, each column in a random order with some of its
    values split into two nonzero summands: raw terms whose canonical sums
    are the columns of ``m``."""
    field = m.field
    columns = []
    for column in raw_columns(m):
        terms = []
        for r, v in column:
            a = random_scalar(rng, field)
            if rng.random() < 0.4 and not field.is_zero(a) and not field.is_zero(field.sub(v, a)):
                terms += [(r, a), (r, field.sub(v, a))]
            else:
                terms.append((r, v))
        rng.shuffle(terms)
        columns.append(terms)
    return columns


def test_trusted_and_public_matrices_agree():
    rng = random.Random(19)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            made = trusted(m.n_rows, m.n_cols, field, shuffled_columns(rng, m))
            negated = trusted(m.n_rows, m.n_cols, field, [
                [(r, field.neg(v)) for r, v in column] for column in shuffled_columns(rng, m)])
            assert made == m and hash(made) == hash(m)
            assert transpose(made) == transpose(m)
            assert hash(transpose(made)) == hash(transpose(m))
            # -m equals m when m is zero or the field has characteristic 2
            sign = 1 if negated == m else -1
            assert equal_up_to_global_sign(made, m) == 1
            assert equal_up_to_global_sign(negated, m) == sign
            assert equal_up_to_global_sign(transpose(m), transpose(negated)) == sign


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


# The int row-pivot elimination that the int kernel ran before the column
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


# The dense elimination that ``SparseMatrix.rank`` ran on a matrix more than
# a quarter full, kept verbatim: row echelon form through the field, on a
# list of rows that it reduces in place.
def _dense_rank(rows, field):
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        sel = None
        for r in range(pivot_row, n_rows):
            if not field.is_zero(rows[r][col]):
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = field.inv(rows[pivot_row][col])
        prow = rows[pivot_row]
        for r in range(pivot_row + 1, n_rows):
            factor = rows[r][col]
            if field.is_zero(factor):
                continue
            factor = field.mul(factor, inv)
            row = rows[r]
            for c in range(col, n_cols):
                row[c] = field.sub(row[c], field.mul(factor, prow[c]))
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def _make_primitive(row):
    """Divide an int row by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for c, v in row.items():
            row[c] = v // content


def rational(field, num, den):
    """num/den through the field: an int when den is 1, an integral Fraction
    when den divides num, else a non-integral Fraction, so a column mixes the
    forms a Q scalar takes."""
    return field.mul(field.from_int(num), field.inv(field.from_int(den)))


def random_matrix(rng, field, rows, cols):
    """A random matrix with some all-zero rows and columns; over Q the entries
    include negatives and non-integral rationals, beside ints and integral
    Fractions."""
    live_rows = [r for r in range(rows) if rng.random() < 0.8]
    live_cols = [c for c in range(cols) if rng.random() < 0.8]
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    entries = []
    for r in live_rows:
        for c in live_cols:
            if rng.random() < density:
                if field.kind == "rational":
                    value = rational(field, rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7, 12)))
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
    assert integer_rank(m) == expected, m
    if dense:
        assert _dense_rank(to_dense(m), m.field) == expected, m
    assert m.rank() == expected


@pytest.mark.parametrize("label", ORACLE_FIELDS)
def test_integer_rank_matches_oracles_on_random_matrices(label):
    field = get_field(label)
    rng = random.Random(label)
    forms = set()
    for _ in range(200):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        m = random_matrix(rng, field, rows, cols)
        forms.update((type(v), v.denominator == 1) for *_, v in m.entries)
        assert_ranks_agree(m)
        inner = rng.randint(0, min(rows, cols))
        low_rank = product(random_matrix(rng, field, rows, inner),
                           random_matrix(rng, field, inner, cols))
        assert_ranks_agree(low_rank)
    if field.kind == "rational":
        # ints, integral Fractions and non-integral ones, mixed in the columns
        assert forms == {(int, True), (Fraction, True), (Fraction, False)}


@pytest.mark.parametrize("row,label", cases(fields=("q", "gfp:2", "gfp:5")))
def test_integer_rank_matches_oracles_on_complexes(row, label):
    # over gfp:3 the unscaled-pivot test checks the ranks of complexes
    spec = ComplexSpec(operad(row.selector, label), row.kind, 0, row.top)
    for n in range(row.top + 1):
        m = differential_matrix(spec, n)
        assert_ranks_agree(m, dense=m.n_rows * m.n_cols <= 5000)


# The GF(p) column reducer before it kept each pivot unscaled, kept verbatim:
# each column that stays nonzero is scaled to a leading 1, so a column that
# reads a pivot subtracts it times ``p - col[low]``.
def _mod_p_normalising(p, col, pivots):
    """Reduce ``col`` in place mod p to a leading 1: its lowest row, or None."""
    low = max(col)
    while low in pivots:
        nb = p - col[low]
        for r, v in pivots[low].items():
            old = col.get(r)
            if old is None:
                col[r] = nb * v % p
            else:
                nv = (old + nb * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
        if not col:
            return None
        low = max(col)
    if col[low] != 1:
        inv = pow(col[low], -1, p)
        for r, v in col.items():
            col[r] = v * inv % p
    return low


def assert_pivots_match_the_normalising_reducer(monkeypatch, mats, ascending):
    """Rank ``mats`` as ``rank_complex`` does, each degree twice: with the
    unscaled reducer and with the normalising one.  Both give the same lows
    in pull order, so the same rank and cleared columns, and each unscaled
    pivot is its normalised twin times its lowest entry.  Returns the
    ranks."""
    ranks, rank, cleared = [], 0, set()
    for mat in mats:
        side = mat.n_cols if ascending else mat.n_rows
        bound = min(mat.n_rows, mat.n_cols, side - rank)
        pivots = _reduce(mat.field, _columns(mat, cleared), bound)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_mod_p", _mod_p_normalising)
            twins = _reduce(mat.field, _columns(mat, cleared), bound)
        assert list(pivots) == list(twins)
        p = mat.field.p
        for low, pivot in pivots.items():
            assert {r: v * pivot[low] % p for r, v in twins[low].items()} == pivot
        ranks.append(rank := len(pivots))
        cleared = set(pivots) if ascending else set()
    return ranks


PRIME_FIELDS = ("gfp:2", "gfp:3", "gfp:5", "gfp:32003")


@pytest.mark.parametrize("label", PRIME_FIELDS)
@pytest.mark.parametrize("selector,kind,top,ranks", [
    ("assoc", "boundary", 8, [0, 1, 0, 2, 4, 20, 100, 620, 4420]),
    ("assoc", "coboundary", 7, [0, 1, 1, 5, 19, 101, 619, 4421]),
    ("endo:m2", "hochschild", 5, [3, 13, 51, 205, 819, 3277]),
])
def test_unscaled_pivots_match_the_normalising_reducer_on_complexes(
        monkeypatch, selector, kind, top, ranks, label):
    spec = ComplexSpec(make_operad(selector, get_field(label)), kind, 0, top, allow_large=True)
    mats = [differential_matrix(spec, n) for n in range(top + 1)]
    assert assert_pivots_match_the_normalising_reducer(monkeypatch, mats, spec.ascending) == ranks


@pytest.mark.parametrize("label", PRIME_FIELDS)
def test_unscaled_pivots_match_the_normalising_reducer_on_random_matrices(monkeypatch, label):
    # each matrix gains a copy of one of its columns and a column that
    # cancels to zero, a combination of two others with random coefficients
    field = get_field(label)
    rng = random.Random(f"unscaled {label}")
    for _ in range(100):
        rows, cols = rng.randint(1, 12), rng.randint(2, 12)
        m = random_matrix(rng, field, rows, cols)
        a, b = rng.sample(range(cols), 2)
        x, y = random_scalar(rng, field), random_scalar(rng, field)
        extra = [(r, cols, v) for r, c, v in m.entries if c == a]
        extra += [(r, cols + 1, field.mul(x, v)) for r, c, v in m.entries if c == a]
        extra += [(r, cols + 1, field.mul(y, v)) for r, c, v in m.entries if c == b]
        m = M(rows, cols + 2, field, [*m.entries, *extra])
        assert assert_pivots_match_the_normalising_reducer(monkeypatch, [m], False) == [
            _row_pivot_rank(m)]


def test_betti_on_assoc_boundary_takes_one_inverse_per_pivot_read(monkeypatch):
    # a count, not a time: the normalising reducer took 5167 inverses here,
    # one per pivot, where the unscaled one takes one per pivot read; and
    # the face tables are each built once, table 7 (5913 rows) the largest
    inverses, rows = [], []
    monkeypatch.setattr(linalg, "pow", lambda *args: inverses.append(args) or pow(*args),
                        raising=False)
    face_rows = assoc._face_rows
    monkeypatch.setattr(assoc, "_face_rows", lambda n, below: (
        rows.append(n) or row for row in face_rows(n, below)))
    spec = ComplexSpec(make_operad("assoc", F5), "boundary", 0, 8, allow_large=True)
    assert betti(spec)["ranks"] == [0, 1, 0, 2, 4, 20, 100, 620, 4420]
    assert len(inverses) == 2160
    assert all(args[1:] == (-1, 5) for args in inverses)
    assert len(rows) == sum(factorial(n) for n in range(1, 8)) == 5913


# --- the memoised rank -----------------------------------------------------


def test_rank_is_memoised_and_invisible():
    rng = random.Random(11)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            twin = SparseMatrix(m.n_rows, m.n_cols, field, m.entries)
            made = trusted(m.n_rows, m.n_cols, field, raw_columns(m))
            r = m.rank()
            assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
            assert [m.rank(), m.rank()] == [r, r]
            assert m.kernel_dim() == m.kernel_dim() == m.n_cols - r
            assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
            assert twin.rank() == made.rank() == r
            assert made._rank == r
            assert transpose(m).rank() == r


def test_rank_leaves_its_input_alone():
    """The kernel reduces its own copies of the columns: the stored column
    dicts of a ranked matrix stay the same objects, equal value for value
    (and type for type, so no Fraction turns into an int) to those of a twin
    that was never ranked."""
    rng = random.Random(13)
    for label in ORACLE_FIELDS:
        field = get_field(label)
        for _ in range(30):
            seed, rows, cols = rng.random(), rng.randint(1, 12), rng.randint(1, 12)
            m = random_matrix(random.Random(seed), field, rows, cols)
            twin = random_matrix(random.Random(seed), field, rows, cols)
            stored, digest = list(m.columns.values()), hash(m)
            _reduce(field, _columns(m), min(rows, cols))
            m.rank()
            assert len(m.columns) == len(stored)
            assert all(a is b for a, b in zip(m.columns.values(), stored))
            assert m == twin and hash(m) == hash(twin) == digest
            typed = [[[(r, v, type(v)) for r, v in col.items()] for col in mat.columns.values()]
                     for mat in (m, twin)]
            assert typed[0] == typed[1]
            assert twin.rank() == m.rank()


def test_constructors_leave_the_rank_unset(monkeypatch):
    calls = []
    monkeypatch.setattr("operad_lab.linalg._reduce",
                        lambda field, columns, bound: calls.append(list(columns)) or {0: {0: 1}})
    m = M(5, 5, Q, [(0, 0, Q.one), (1, 0, Q.one)])  # sparse: density 0.08
    made = trusted(5, 5, Q, raw_columns(m))
    full = M(3, 3, Q, [(r, c, Q.one) for r in range(3) for c in range(3)])  # dense
    for mat in (m, made, full):
        assert not hasattr(mat, "_rank")
        assert [mat.rank(), mat.kernel_dim(), mat.rank()] == [1, mat.n_cols - 1, 1]
    assert calls == [list(_columns(mat)) for mat in (m, made, full)]


# --- ranking a whole complex -----------------------------------------------


def random_complex(rng, field, ascending):
    """Differentials d_0, ..., d_{k-1} of a random complex with d∘d = 0, in
    ascending degree order; reversed, the same matrices make a boundary
    complex, whose d_{n-1} d_n = 0.

    Each space splits into an image B (of the previous differential, or of
    a degree outside the list), a part L mapped one to one onto the next
    image, and homology H, which is often nonzero, so the rank bound is not
    always tight.  Placed at random positions, the block-diagonal complex is
    then conjugated space by space by random unitriangular changes of basis,
    each a product of elementary operations in one direction: row a += x row
    b in the differential into the space, column b -= x column a in the one
    out of it."""
    dims = [rng.randint(0, 6) for _ in range(rng.randint(1, 5) + 1)]
    # each space lists its positions in the order B, L, H
    order = [rng.sample(range(dim), dim) for dim in dims]
    image = rng.randint(0, dims[0])
    mats = []
    for n in range(len(dims) - 1):
        mapped = rng.randint(0, min(dims[n] - image, dims[n + 1]))
        dense = [[field.zero] * dims[n] for _ in range(dims[n + 1])]
        for j in range(mapped):
            dense[order[n + 1][j]][order[n][image + j]] = field.from_int(rng.randint(1, 9))
        mats.append(dense)
        image = mapped
    for n, dim in enumerate(dims):
        upper = rng.random() < 0.5
        for _ in range(2 * dim):
            a, b = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
            if a == b or (a < b) != upper:
                continue
            x = random_scalar(rng, field)
            if n > 0:
                into = mats[n - 1]
                into[a] = [field.add(u, field.mul(x, v)) for u, v in zip(into[a], into[b])]
            if n < len(mats):
                for row in mats[n]:
                    row[b] = field.sub(row[b], field.mul(x, row[a]))
    mats = [SparseMatrix(len(dense), dim, field, [
        (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row)])
        for dense, dim in zip(mats, dims)]
    return mats if ascending else mats[::-1]


def random_scalar(rng, field):
    if field.kind == "rational":
        return rational(field, rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return field.from_int(rng.randint(0, field.p - 1))


def check_rank_complex(mats, ascending):
    """rank_complex memoises, for each matrix, the rank that ``rank()`` and
    the row-pivot oracle give on a fresh copy; returns the sum of the
    homology dimensions inside the list, zero when every bound was tight."""
    fresh = [trusted(m.n_rows, m.n_cols, m.field, raw_columns(m)) for m in mats]
    rank_complex(mats, ascending)
    ranks = [m._rank for m in mats]
    assert ranks == [m.rank() for m in fresh] == [_row_pivot_rank(m) for m in fresh]
    for d, d_next in zip(mats, mats[1:]):
        later, earlier = (d_next, d) if ascending else (d, d_next)
        assert product(later, earlier).nnz == 0
    shared = [m.n_cols if ascending else m.n_rows for m in mats[1:]]
    return sum(side - r - s for side, r, s in zip(shared, ranks, ranks[1:]))


@pytest.mark.parametrize("label", ("q", "gfp:2", "gfp:5"))
def test_rank_complex_matches_rank_on_random_complexes(label):
    field = get_field(label)
    rng = random.Random(f"complex {label}")
    homology = 0
    for _ in range(60):
        for ascending in (True, False):
            homology += check_rank_complex(random_complex(rng, field, ascending), ascending)
    assert homology > 0


def spy_on_column_reads(monkeypatch):
    """Wrap the column stream ``_columns`` to record, under the id of the
    matrix it streams, the index of every column the reduction pulls; a
    column it skips or never reaches is not listed.  The real stream runs
    on a copy of the matrix whose values carry their column index, which
    the spy records and strips.  The function returned lists the pulls for
    a matrix; one whose reduction had nothing to do read nothing."""
    reads, stream = {}, linalg._columns

    def columns(mat, skip=()):
        cols = reads.setdefault(id(mat), [])
        tagged = trusted(mat.n_rows, mat.n_cols, mat.field, [
            [(r, (c, v)) for r, v in column] for c, column in enumerate(raw_columns(mat))])
        for col in stream(tagged, skip):
            cols.append(next(iter(col.values()))[0])
            yield {r: v for r, (_, v) in col.items()}

    monkeypatch.setattr(linalg, "_columns", columns)
    return lambda m: reads.get(id(m), [])


def nonzero_columns(m):
    return list(m.columns)


def columns(m, keep):
    kept = {c: i for i, c in enumerate(keep)}
    return SparseMatrix(m.n_rows, len(keep), m.field,
                        [(r, kept[c], v) for r, c, v in m.entries if c in kept])


def test_each_reduction_stops_at_its_rank_bound(monkeypatch):
    # assoc boundary 0..7: d_7 (720 rows) lies in the kernel of d_6, of rank
    # 100, so its rank is at most 620, and it is reached by its first 720
    # nonzero columns: those are all the reduction reads of its 5040
    spec = ComplexSpec(make_operad("assoc", F5), "boundary", 0, 7)
    mats = [differential_matrix(spec, n) for n in range(8)]
    read_by = spy_on_column_reads(monkeypatch)
    rank_complex(mats, ascending=False)
    monkeypatch.undo()
    reads = [read_by(m) for m in mats]
    assert [m._rank for m in mats] == [0, 1, 0, 2, 4, 20, 100, 620]
    assert (mats[7].n_rows, mats[7].n_cols) == (720, 5040)
    read = nonzero_columns(mats[7])[:720]
    assert reads[7] == read
    assert _row_pivot_rank(columns(mats[7], read)) == 620
    assert _row_pivot_rank(columns(mats[7], read[:-1])) == 619
    for m, cols in zip(mats, reads):
        assert cols == nonzero_columns(m)[:len(cols)]


def test_clearing_skips_the_pivot_rows_of_the_previous_degree(monkeypatch):
    # endo:m2 Hochschild 0..4 over Q: column r of d_n is skipped when r is
    # the lowest row of a reduced column of d_{n-1}; no skipped column is
    # read, and every other one is read in order until the bound is reached
    spec = ComplexSpec(make_operad("endo:m2", Q), "hochschild", 0, 4)
    mats = [differential_matrix(spec, n) for n in range(5)]
    cleared = [set(_reduce(m.field, _columns(m), min(m.n_rows, m.n_cols))) for m in mats]
    read_by = spy_on_column_reads(monkeypatch)
    rank_complex(mats, ascending=True)
    monkeypatch.undo()
    reads = [read_by(m) for m in mats]
    assert [m._rank for m in mats] == [3, 13, 51, 205, 819]
    assert [len(c) for c in cleared[:4]] == [3, 13, 51, 205]
    for n in range(1, 5):
        assert not cleared[n - 1] & set(reads[n]), n
        kept = [c for c in nonzero_columns(mats[n]) if c not in cleared[n - 1]]
        assert reads[n] == kept[:len(reads[n])], n
    assert reads[0] == nonzero_columns(mats[0])


@pytest.mark.parametrize("label", ("q", "gfp:5"))
def test_reduce_pulls_no_column_past_its_bound(label):
    # six columns of rank 4: the second and the last reduce to zero, and the
    # bound is completed by the first, third, fourth and fifth; a reduction
    # pulls up to the column that completes its bound and not one more, so
    # a stream of assembled columns is never advanced past the bound
    field = get_field(label)
    one, two = field.one, field.from_int(2)
    cols = [{0: one}, {0: two}, {0: one, 1: one}, {2: two}, {1: two, 3: one}, {1: one}]

    def stream(pulled):
        for i, col in enumerate(cols):
            pulled.append(i)
            yield dict(col)

    for bound, read in [(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 6)]:
        pulled = []
        pivots = _reduce(field, stream(pulled), bound)
        assert (len(pivots), pulled) == (min(bound, 4), list(range(read))), bound
    m = M(4, 6, field, [(r, c, v) for c, col in enumerate(cols) for r, v in col.items()])
    assert m.rank() == 4


# --- the columns built as they are read ------------------------------------


def recorded(columns, pulled, closed):
    """A stream of ``columns`` that records each index it yields, and
    records in ``closed`` that it was closed or ran out."""
    try:
        for c, column in enumerate(columns):
            pulled.append(c)
            yield column
    finally:
        closed.append(len(pulled))


def watched(columns, seen):
    """``columns``, with a copy of each recorded in ``seen`` before the
    reduction reduces it in place."""
    for col in columns:
        seen.append(dict(col))
        yield col


def test_each_reader_opens_its_own_stream():
    # The constructor opens no stream.  A reduction opens one with the
    # columns it clears, which come empty, and reduces each column it
    # reads, in ascending order, storing none; at its bound it drops its
    # stream.  ``_columns`` skips what it is told to skip even when the
    # stream yields it.  Reading ``columns`` opens one more stream, reads
    # it to the end and stores the matrix; every later
    # reader reads fresh copies of the stored columns and opens nothing.
    # Column 5 sums to zero and columns 0 and 3 are empty.
    columns = [[], [(0, 1)], [(1, 2)], [], [(0, 4), (1, 4)], [(2, 5), (2, -5)], [(2, 6)], [(0, 7)]]
    nonzero = [{0: 1}, {1: 2}, {0: 4, 1: 4}, {2: 6}, {0: 7}]
    opened, closed = [], []

    def open_columns(skip):
        pulled = []
        opened.append((skip, pulled))
        return recorded([[] if c in skip else col for c, col in enumerate(columns)],
                        pulled, closed)

    m = SparseMatrix._from_columns(3, 8, Q, open_columns)
    assert (opened, closed) == ([], [])
    # column 1 cleared, rank 2 reached at column 4: the stream is dropped there
    seen = []
    pivots = _reduce(Q, watched(_columns(m, {1}), seen), 2)
    assert (len(pivots), seen, m._stored) == (2, [{1: 2}, {0: 4, 1: 4}], None)
    assert (opened, closed) == ([({1}, [0, 1, 2, 3, 4])], [5])
    want = [{0: 1}, {0: 4, 1: 4}, {0: 7}]
    assert list(_columns(m, {2, 6})) == want
    assert (len(opened), closed, m._stored) == (2, [5, 8], None)
    assert list(_columns(trusted(3, 8, Q, columns), {2, 6})) == want
    # built whole and stored once
    assert list(m.columns) == [1, 2, 4, 6, 7] and list(m.columns.values()) == nonzero
    assert (len(opened), closed) == (3, [5, 8, 8]) and m.columns is m._stored
    copies = list(_columns(m, {2, 6}))
    assert copies == want and not any(col is stored for col in copies
                                      for stored in m.columns.values())
    assert m.rank() == 3 and m == M(3, 8, Q, [(r, c, v) for c, col in enumerate(columns)
                                              for r, v in col])
    assert len(opened) == 3


@pytest.mark.parametrize("error", [ArithmeticError("column 2"), KeyboardInterrupt()])
def test_a_failed_pull_leaves_no_short_matrix(error):
    # a stream that raises at its third column: construction builds none,
    # the rank needs the third and raises the stream's error, and so does
    # every later read, each from a fresh stream, where a truncated matrix
    # would have rank 2 and nnz 2
    def stream():
        yield [(0, 1)]
        yield [(1, 1)]
        raise error

    m = SparseMatrix._from_columns(3, 4, Q, lambda skip: stream())
    reads = [m.rank, m.rank, lambda: m.columns, lambda: m.nnz, m.kernel_dim,
             lambda: m.entries, lambda: hash(m), lambda: m == m, lambda: repr(m),
             lambda: list(_columns(m)), m.rank]
    for read in reads:
        with pytest.raises(type(error)) as excinfo:
            read()
        assert excinfo.value is error
    assert not hasattr(m, "_rank")


def test_a_failed_build_leaves_no_short_matrix():
    # the stream raises once, while ``columns`` builds the whole matrix or
    # the rank reads it: nothing is stored and no rank memoised, so the next
    # read opens a fresh stream and reads the whole matrix
    for first in (lambda m: m.columns, SparseMatrix.rank):
        error = KeyboardInterrupt()
        failures = [error]

        def stream(skip):
            yield [(0, 1)]
            yield [(1, 1)]
            if failures:
                raise failures.pop()
            yield [(2, 1)]

        m = SparseMatrix._from_columns(3, 4, Q, stream)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            first(m)
        assert excinfo.value is error
        assert m._stored is None and not hasattr(m, "_rank")
        assert (m.rank(), m.nnz) == (3, 3)
        assert m == SparseMatrix(3, 4, Q, [(0, 0, 1), (1, 1, 1), (2, 2, 1)])

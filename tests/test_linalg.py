"""Exact sparse matrices: construction, rank, kernel dimension.

The column reduction behind ``SparseMatrix.rank`` (``_reduce``) is compared
with three eliminations it replaced, kept below as oracles: the int
row-pivot elimination (``_row_pivot_rank``), the field-generic one before it
(``_sparse_rank``) and the dense elimination (``_dense_rank``), on random
matrices and on the differential matrices of real complexes.
``rank_complex``, which bounds each reduction by the rank of the previous
degree and clears columns, is compared with ``rank()`` and
``_row_pivot_rank`` on random chain complexes, and the columns it reads on
real complexes are counted.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from operad_lab import ComplexSpec, EndoOperad, FinAlgebra, differential_matrix, linalg
from operad_lab.cli import make_operad
from operad_lab.linalg import (
    LinalgError,
    SparseMatrix,
    _reduce,
    equal_up_to_global_sign,
    rank_complex,
)
from operad_lab.scalars import get_field

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
    return len(_reduce(m, min(m.n_rows, m.n_cols)))


def test_construction_merges_and_drops_zeros():
    m = M(2, 2, Q, [
        (0, 0, Q.from_int(2)),
        (0, 0, Q.from_int(-2)),
        (1, 1, Q.from_int(3)),
    ])
    assert m.nnz == 1
    assert to_dense(m) == [[Q.zero, Q.zero], [Q.zero, Q.from_int(3)]]


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
            assert transpose(trusted) == transpose(m)
            assert hash(transpose(trusted)) == hash(transpose(m))
            # -m equals m when m is zero or the field has characteristic 2
            sign = 1 if negated == m else -1
            assert equal_up_to_global_sign(trusted, m) == 1
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
    assert integer_rank(m) == expected, m
    if dense:
        assert _dense_rank(to_dense(m), m.field) == expected, m
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
            assert transpose(m).rank() == r


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
            _reduce(m, min(rows, cols))
            m.rank()
            assert m.entries is entries
            assert m == twin and hash(m) == hash(twin) == digest
            assert [type(v) for *_, v in m.entries] == [type(v) for *_, v in twin.entries]
            assert twin.rank() == m.rank()


def test_constructors_leave_the_rank_unset(monkeypatch):
    calls = []
    monkeypatch.setattr("operad_lab.linalg._reduce",
                        lambda mat, bound, cleared=(): calls.append(mat) or {0: {0: 1}})
    m = M(5, 5, Q, [(0, 0, Q.one), (1, 0, Q.one)])  # sparse: density 0.08
    trusted = SparseMatrix._from_canonical(5, 5, Q, m.entries)
    full = M(3, 3, Q, [(r, c, Q.one) for r in range(3) for c in range(3)])  # dense
    for mat in (m, trusted, full):
        assert not hasattr(mat, "_rank")
        assert [mat.rank(), mat.kernel_dim(), mat.rank()] == [1, mat.n_cols - 1, 1]
    assert calls == [m, trusted, full]


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
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return field.from_int(rng.randint(0, field.p - 1))


def check_rank_complex(mats, ascending):
    """rank_complex memoises, for each matrix, the rank that ``rank()`` and
    the row-pivot oracle give on a fresh copy; returns the sum of the
    homology dimensions inside the list, zero when every bound was tight."""
    fresh = [SparseMatrix._from_canonical(m.n_rows, m.n_cols, m.field, m.entries)
             for m in mats]
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
    """Patch the kernel's ``groupby`` to record, under the id of the entries
    it reduces, the index of every column whose entries it reads; a column
    it skips or never reaches is not listed.  The function returned lists
    them for a matrix; one whose reduction had nothing to do read nothing."""
    reads = {}

    def record(c, run, cols):
        cols.append(c)
        yield from run

    def groupby(entries, key):
        cols = reads.setdefault(id(entries), [])
        for c, run in itertools.groupby(entries, key):
            yield c, record(c, run, cols)

    monkeypatch.setattr(linalg, "groupby", groupby)
    return lambda m: reads.get(id(m.entries), [])


def nonzero_columns(m):
    return sorted({c for _, c, _ in m.entries})


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
    cleared = [set(_reduce(m, min(m.n_rows, m.n_cols))) for m in mats]
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

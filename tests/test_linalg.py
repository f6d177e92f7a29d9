"""Exact sparse matrices: construction, rank, kernel dimension."""

import random

import pytest

from operad_lab.linalg import LinalgError, SparseMatrix, equal_up_to_global_sign
from operad_lab.scalars import get_field

Q = get_field("q")
F5 = get_field("gfp:5")


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

"""Exact sparse linear algebra: rank, kernel dimension, sign comparison.

Matrices are stored column-major, as canonical triplet tuples sorted by
(column, row), over an explicit field from :mod:`operad_lab.scalars`.  A
matrix is immutable, so its rank is computed once and memoised.  The
rank is a column reduction on plain ints that reads the entries once and
reduces one column at a time: columns in ascending order, each pivot keyed
by its largest row index, modular over GF(p) and fraction-free over Q (each
column's denominators cleared, columns kept primitive).  The reduction
stops once it holds as many pivots as a given bound, and skips a given set
of columns unread.  ``SparseMatrix.rank`` bounds it by the matrix's shape
and skips nothing, however dense the matrix.  ``rank_complex`` ranks the
differentials of one complex in degree order, and d∘d = 0 tightens the
bound of each degree and, on an ascending complex, clears columns of the
next.  The int row-pivot elimination, the field-generic elimination before
it and the dense elimination are kept in the tests as oracles.
"""

from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

from .scalars import linear_combination, same_field

# read only by the benchmark tracer, to split its rank timings by density
DENSE_DENSITY = 0.25


class LinalgError(ValueError):
    """Shape mismatch or field mismatch."""


class SparseMatrix:
    """Immutable exact matrix in canonical triplet form.

    Entries are ``(row, col, value)`` triples kept column-major, sorted by
    (col, row), with duplicates summed and zeros dropped, so two equal
    matrices always have identical entry tuples.  The rank is memoised in
    ``_rank``, which equality, hashing and ``repr`` ignore.
    """

    __slots__ = ("n_rows", "n_cols", "field", "entries", "_rank")

    def __init__(self, n_rows, n_cols, field, triples=()):
        if n_rows < 0 or n_cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.field = field

        def cells():
            for r, c, v in triples:
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise LinalgError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
                yield (c, r), v

        self.entries = tuple(
            (r, c, v) for (c, r), v in sorted(linear_combination(field, cells()).items())
        )

    @classmethod
    def _from_canonical(cls, n_rows, n_cols, field, triples):
        """Trusted constructor: ``triples`` (any iterable) are in range and
        already in canonical order, sorted by (col, row), with no repeated
        cell and no zero value, so they are stored as they come."""
        out = cls.__new__(cls)
        out.n_rows = n_rows
        out.n_cols = n_cols
        out.field = field
        out.entries = tuple(triples)
        return out

    @property
    def nnz(self):
        return len(self.entries)

    @property
    def density(self):
        # read only by the benchmark tracer, beside DENSE_DENSITY
        cells = self.n_rows * self.n_cols
        return 0.0 if cells == 0 else self.nnz / cells

    def rank(self):
        try:
            return self._rank
        except AttributeError:
            pass
        self._rank = rank = len(_reduce(self, min(self.n_rows, self.n_cols)))
        return rank

    def kernel_dim(self):
        r = self.rank()
        if not 0 <= r <= min(self.n_rows, self.n_cols):
            raise LinalgError(f"rank {r} outside 0..{min(self.n_rows, self.n_cols)}")
        return self.n_cols - r

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and same_field(self.field, other.field)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.field.signature(), self.entries))

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, {self.field.label})"


def rank_complex(mats, ascending):
    """Rank the differentials of one complex, given in ascending degree
    order with no degree missing, and memoise each rank.

    Since d∘d = 0, the image of one differential lies in the kernel of the
    next, so rank(d_n) is at most ``side - rank(d_{n-1})``, where ``side``
    is the dimension of the space d_n and d_{n-1} share: the columns of d_n
    on an ascending complex, its rows on the boundary.  Each reduction stops at that bound,
    or at the shape of its matrix for the first degree.  On an ascending
    complex, row r of d_{n-1} and column r of d_n are the same key.  A
    reduced column of d_{n-1} whose lowest row is r is a cocycle ending at
    key r, so column r of d_n lies in the span of the columns before it and
    reduces to zero: it is skipped unread ("clearing", or the twist of
    persistent homology)."""
    rank, cleared = 0, ()
    for mat in mats:
        side = mat.n_cols if ascending else mat.n_rows
        pivots = _reduce(mat, min(mat.n_rows, mat.n_cols, side - rank), cleared)
        mat._rank = rank = len(pivots)
        # the boundary clears nothing: its pivots go before the next
        # reduction starts, not after it
        cleared = pivots if ascending else ()
        del pivots


def _reduce(mat, bound, cleared=()):
    """Column reduction on plain ints, each pivot keyed by its largest
    ("lowest") row index, as in the standard reduction of persistent
    homology.  Returns the pivots, ``{lowest row: reduced column}``, whose
    count is the rank when ``bound`` is at least the rank.

    The column-major entries are read once, one run of a column at a time,
    so columns are visited in ascending order and only the column being
    reduced exists besides the pivots.  A column whose index is in
    ``cleared`` is stepped over without being built.  While a column is
    nonzero and its lowest row already has a pivot, that pivot is
    subtracted; a column that stays nonzero becomes the pivot of its lowest
    row, and the reduction stops once it holds ``bound`` pivots.  Over
    GF(p) each pivot is scaled to a leading 1 and updates are reduced mod
    p.  Over Q each column is first cleared of denominators and kept
    primitive, and updated fraction-free as ``(a/g) col - (b/g) pivot``
    with ``g = gcd(a, b)``.  Each column is a fresh dict, so the matrix is
    left untouched."""
    modulus = mat.field.p if mat.field.kind == "prime" else None
    pivots = {}
    if bound <= 0:
        return pivots
    for c, run in groupby(mat.entries, itemgetter(1)):
        if c in cleared:
            continue
        col = {r: v for r, _, v in run}
        if modulus is None:
            den = lcm(*(v.denominator for v in col.values()))
            for r, v in col.items():
                col[r] = v.numerator * (den // v.denominator)
            _make_primitive(col)
        low = max(col)
        while low in pivots:
            pivot = pivots[low]
            b = col[low]
            if modulus is None:
                a = pivot[low]
                g = gcd(a, b)
                s, b = a // g, b // g
                if s != 1:
                    for r, v in col.items():
                        col[r] = s * v
                for r, v in pivot.items():
                    old = col.get(r)
                    if old is None:
                        col[r] = -b * v
                    elif old == b * v:
                        del col[r]
                    else:
                        col[r] = old - b * v
                _make_primitive(col)
            else:
                nb = modulus - b
                for r, v in pivot.items():
                    old = col.get(r)
                    if old is None:
                        col[r] = nb * v % modulus
                    else:
                        nv = (old + nb * v) % modulus
                        if nv:
                            col[r] = nv
                        else:
                            del col[r]
            if not col:
                break
            low = max(col)
        else:
            if modulus is not None and col[low] != 1:
                inv = pow(col[low], -1, modulus)
                for r, v in col.items():
                    col[r] = v * inv % modulus
            pivots[low] = col
            if len(pivots) == bound:
                break
    return pivots


def _make_primitive(col):
    """Divide an int column by the gcd of its entries."""
    content = gcd(*col.values())
    if content > 1:
        for r, v in col.items():
            col[r] = v // content


def equal_up_to_global_sign(a, b):
    """Return +1 if a == b, -1 if a == -b, else None.  Zero matrices give +1."""
    if a.n_rows != b.n_rows or a.n_cols != b.n_cols or not same_field(a.field, b.field):
        return None
    if a.entries == b.entries:
        return 1
    field = a.field
    if len(a.entries) == len(b.entries) and all(
        ra == rb and ca == cb and field.is_zero(field.add(va, vb))
        for (ra, ca, va), (rb, cb, vb) in zip(a.entries, b.entries)
    ):
        return -1
    return None

"""Exact sparse linear algebra: rank, kernel dimension, sign comparison.

A matrix is stored as the columns its reduction reads: a dict from column
index to that column's canonical ``{row: value}`` dict, nonzero columns
only, in ascending column order, over an explicit field from
:mod:`operad_lab.scalars`.  Each column is made canonical in one place,
the column merge ``_canonical`` that both constructors call.  The trusted
constructor ``_from_columns`` stores no column and opens no stream: it keeps
what opens the matrix's column stream, and only a reader opens one.  The
reduction's feed ``_columns`` hands it each built column, which the
reduction then owns, so no column is stored or copied for it, and a
cleared column is never built.  Reading ``columns`` builds and stores the
whole matrix once, and every later reader reads that.  A matrix is
immutable, so its rank is computed once and memoised.  The rank is a
column reduction on plain ints that pulls columns one at a time from a
stream, keys each pivot by its largest row index and stops pulling once it
holds as many pivots as a given bound.  The field picks its arithmetic
once: modular over GF(p), each pivot kept unscaled, as it reduced, and
fraction-free over Q (each column's denominators cleared, columns kept
primitive).  ``SparseMatrix.rank`` ranks a one-matrix complex, bounded by
its shape however dense it is.
``rank_complex`` ranks the differentials of one complex in degree order,
and d∘d = 0 tightens the bound of each degree and, on an ascending
complex, clears columns of the next.  The int row-pivot elimination, the
field-generic one before it, the dense elimination and the GF(p) reducer
that scaled each pivot to a leading 1 are test oracles.
"""

from functools import partial
from math import gcd, lcm
from operator import itemgetter

# read only by the benchmark tracer, to split its rank timings by density
DENSE_DENSITY = 0.25


class LinalgError(ValueError):
    """Shape mismatch or field mismatch."""


class SparseMatrix:
    """Immutable exact matrix, stored as its canonical columns.

    ``columns`` maps each nonzero column's index, ascending, to its
    ``{row: value}`` dict, with repeated rows summed and zeros dropped, so
    two equal matrices always have equal columns.  ``entries`` lists them
    as ``(row, col, value)`` triples sorted by (col, row).  The public
    constructor is eager, since it holds every entry: it checks the shape
    and every entry (sizes and indices are ints, indices in range, each
    value through ``field.coerce``) and stores every column, interning only
    the rows it holds, so that its cost does not grow with ``n_rows``.  The
    trusted one stores none: ``_open`` opens the matrix's column stream,
    and ``_stored`` is None until ``columns``, and so ``entries``, ``nnz``,
    equality, hashing and ``repr``, builds the whole matrix and stores it;
    ``_open`` is then None.  The rank is memoised in ``_rank``, which
    equality, hashing and ``repr`` ignore.
    """

    __slots__ = ("n_rows", "n_cols", "field", "_stored", "_open", "_rank")

    def __init__(self, n_rows, n_cols, field, triples=()):
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (n_rows, n_cols)):
            raise LinalgError(f"shape {n_rows!r}x{n_cols!r} has a size that is not an int")
        if n_rows < 0 or n_cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.field = field
        groups, rows = {}, {}
        for r, c, v in triples:
            if not all(isinstance(i, int) and not isinstance(i, bool) for i in (r, c)):
                raise LinalgError(f"entry ({r!r},{c!r}) has an index that is not an int")
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise LinalgError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            v = field.coerce(v)
            if not field.is_zero(v):
                groups.setdefault(c, []).append((r, v))
                rows[r] = r
        self._stored = dict(_canonical(field, sorted(groups.items()), lambda: rows))
        self._open = None

    @classmethod
    def _from_columns(cls, n_rows, n_cols, field, open_columns):
        """Trusted constructor from ``open_columns``, which, called with a
        set ``skip`` of column indices, opens a fresh stream of the columns:
        one iterable of (row, value) terms per column, empty ones included,
        rows in range, values nonzero, a row possibly repeated.  A column in
        ``skip`` may come empty.  No stream is opened here: only a reader
        opens one, so whatever a stream refuses it refuses at the first
        read."""
        out = cls(n_rows, n_cols, field)
        out._stored, out._open = None, open_columns
        return out

    @property
    def columns(self):
        """The ``{column: {row: value}}`` dict of every nonzero column,
        ascending, built and stored by the first reader."""
        if self._stored is None:
            self._stored = dict(_build(self, ()))
            self._open = None
        return self._stored

    @property
    def entries(self):
        """The ``(row, col, value)`` triples, sorted by (col, row)."""
        return tuple((r, c, v) for c, column in self.columns.items()
                     for r, v in sorted(column.items()))

    @property
    def nnz(self):
        return sum(map(len, self.columns.values()))

    @property
    def density(self):
        # read only by the benchmark tracer, beside DENSE_DENSITY
        cells = self.n_rows * self.n_cols
        return 0.0 if cells == 0 else self.nnz / cells

    def rank(self):
        if not hasattr(self, "_rank"):
            rank_complex((self,), ascending=False)
        return self._rank

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
            and self.field == other.field
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.field.signature(), self.entries))

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, {self.field.label})"


def _canonical(field, columns, rows):
    """Yield ``(c, column)`` lazily, in the pairs' order, for each
    ``(column index, terms)`` pair whose terms do not sum to zero, with
    ``column`` the canonical ``{row: value}`` dict of the terms: an
    iterable of (row, value) terms, values nonzero, a row possibly
    repeated.  A repeated row is merged with ``field.add``, the older value
    first, and only such a sum is tested for zero: a row that cancels is
    dropped, and a later term on it starts afresh.  Rows are stored
    unsorted, row ``r`` as the int object ``table[r]`` of one row table
    that ``rows()`` returns after the first pull, so a stream refuses
    first: the trusted constructor's list of ``range(n_rows)``, or the
    public one's dict of the rows it holds.  A column in which a row merged
    is copied once, so that it keeps no dead dict slots."""
    add, is_zero = field.add, field.is_zero
    row = None
    for c, terms in columns:
        if row is None:
            row = rows().__getitem__
        column, merged = {}, False
        for r, v in terms:
            if r in column:
                merged = True
                v = add(column.pop(r), v)
                if is_zero(v):
                    continue
            column[row(r)] = v
        if column:
            yield c, dict(column.items()) if merged else column


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
        bound = min(mat.n_rows, mat.n_cols, side - rank)
        pivots = _reduce(mat.field, _columns(mat, cleared), bound)
        mat._rank = rank = len(pivots)
        # only the pivot rows go on, and the pivots go before the next
        # reduction starts: no reduced column lives through it
        cleared = set(pivots) if ascending else ()
        del pivots


def _columns(mat, skip=()):
    """The nonzero columns of ``mat`` not in ``skip``, in ascending order,
    each a dict the reader owns: on a matrix that is not stored, each
    built as it is read from a stream opened with ``skip``, so a cleared
    column is never built; on a stored one, a fresh copy of each."""
    if mat._stored is None:
        return map(itemgetter(1), _build(mat, skip))
    return (dict(column) for c, column in mat._stored.items() if c not in skip)


def _build(mat, skip):
    """Yield ``(c, column)`` for each nonzero column of ``mat`` not in
    ``skip``, made canonical by ``_canonical`` from a stream opened with
    ``skip``, each row an int object shared by the columns of this stream.
    A read that raises stores nothing, so the next read opens a fresh
    stream."""
    for c, column in _canonical(mat.field, enumerate(mat._open(skip)),
                                partial(list, range(mat.n_rows))):
        if c not in skip:
            yield c, column


def _reduce(field, columns, bound):
    """Column reduction on plain ints, each pivot keyed by its largest
    ("lowest") row index, as in the standard reduction of persistent
    homology.  Returns the pivots, ``{lowest row: reduced column}``, whose
    count is the rank when ``bound`` is at least the rank.

    Fresh ``{row: value}`` columns are pulled from ``columns`` one at a
    time, and none once the reduction holds ``bound`` pivots.  The field
    picks its column reducer once.  Each reducer subtracts the pivot of the
    column's lowest row while there is one, and a column that stays nonzero
    becomes the pivot of its lowest row."""
    pivots = {}
    if bound <= 0:
        return pivots
    reduce = partial(_mod_p, field.p) if field.kind == "prime" else _integral
    for col in columns:
        if (low := reduce(col, pivots)) is not None:
            pivots[low] = col
            if len(pivots) == bound:
                break
    return pivots


def _mod_p(p, col, pivots):
    """Reduce ``col`` in place mod p: its lowest row, or None.  No column is
    scaled: a pivot is kept as it reduced, and a column that reads it
    subtracts ``col[low] / pivot[low]`` times it, one inverse per read.
    Scaling by a nonzero factor moves no entry's support, so the lows, and
    with them the rank and the cleared columns, are those of a reduction
    that scales each pivot to a leading 1."""
    low = max(col)
    while low in pivots:
        pivot = pivots[low]
        nb = (p - col[low]) * pow(pivot[low], -1, p) % p
        for r, v in pivot.items():
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
    return low


def _integral(col, pivots):
    """Reduce ``col`` in place over Q, primitive and fraction-free, as ``(a/g)
    col - (b/g) pivot`` with ``g = gcd(a, b)``: its lowest row, or None.
    Only a ``Fraction``, on which ``gcd`` raises, has denominators to clear."""
    try:
        _make_primitive(col)
    except TypeError:
        den = lcm(*(v.denominator for v in col.values()))
        for r, v in col.items():
            col[r] = v.numerator * (den // v.denominator)
        _make_primitive(col)
    low = max(col)
    while low in pivots:
        pivot = pivots[low]
        a, b = pivot[low], col[low]
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
        if not col:
            return None
        low = max(col)
    return low


def _make_primitive(col):
    """Divide an int column by the gcd of its entries."""
    content = gcd(*col.values())
    if content > 1:
        for r, v in col.items():
            col[r] = v // content


def equal_up_to_global_sign(a, b):
    """Return +1 if a == b, -1 if a == -b, else None.  Zero matrices give +1."""
    if a.n_rows != b.n_rows or a.n_cols != b.n_cols or a.field != b.field:
        return None
    if a.columns == b.columns:
        return 1
    neg = a.field.neg
    if b.columns == {c: {r: neg(v) for r, v in column.items()} for c, column in a.columns.items()}:
        return -1
    return None

"""Exact (co)chain complexes and cohomology dimensions for operad instances.

A ComplexSpec bundles an operad instance, a differential kind, and a degree
window.  Degrees are arities.  ``DIFFERENTIALS`` is the one table of kinds:
each maps to whether it raises the degree and to a builder, which takes the
operad, refuses one it cannot serve, and returns the kind's two parts,
built once per complex: its dimension, the size of each degree's basis,
and its column stream.

The stream contract: ``columns(degree, skip)`` is a generator of the
degree's matrix columns in basis order, each an iterable of raw (row,
value) terms in any order, a row possibly repeated; a column whose index
is in ``skip`` may come empty.  It is closed over everything it reads and
is handed no spec: ``_by_key`` is bound to its operator, its operad and
its target-degree step, and the face-rank and key-rank streams own their
tables.

The operadic kinds (``boundary`` and ``coboundary``) assemble each column
key by key (``_by_key``), as the terms of ``core.boundary`` or
``core.coboundary`` on the key, the one definition of their slots and
signs, with the rows looked up in an index of the target basis.  The
boundary builder gives assoc a stream of its own (``_by_face_rank``): each
face of a permutation is named by its lexicographic rank
(``assoc._face_rows``), so a column composes nothing, looks up no key and
multiplies no scalars.  The classical kind (``hochschild``, endomorphism
operads only) is the textbook complex of maps A^(x)n -> A, whose keys are
(i1..in, j) at every degree n >= 0: degree 0 is the algebra itself, keyed
(j,), with no special case.  Its stream (``_by_key_rank``) reads its
columns off tables filed once from ``FinAlgebra.nonzero``, each constant
stored with its negation, so a column needs no field multiplication, and
names every row by its rank, read off the rank of the column's key, so it
builds no key either.  The coboundary builder gives an endomorphism operad
the same stream, with the point's one empty column at degree 0.  The
key-by-key stream is the test oracle of the face-rank one and of the endo
coboundary, and ``endo.classical_coboundary`` that of the key-rank one.
The tests sum the boundary and the coboundary from ``core.compose`` on
their own, as the oracle of the two operators and of their key-by-key
columns.

Every refusal of a complex comes before its first column is built.
Construction refuses what the kind table cannot build: an unknown kind, an
operad the kind's builder does not serve (the classical kind on a
non-endomorphism operad, the coboundary on shift, whose basis truncated at
max-entry is not closed under it), then a bad window.
``differential_matrix`` refuses only sizes past the cap, before any key is
listed.

A matrix from ``SparseMatrix._from_columns`` holds what opens its stream,
``ComplexSpec.columns`` bound to its degree, and no column: each reader
opens a fresh stream, and ``linalg._canonical`` makes each column it reads
the canonical ``{row: value}`` dict that the reduction reduces.  So no
stream knows the matrix's stored form, the column basis is never listed
whole and no column is ever sorted.

``betti`` makes the matrices of its whole window before it ranks any, so
the ranking can pass what one degree learned to the next (see
``linalg.rank_complex``): the rank of d_{n-1} bounds that of d_n, and on
the ascending kinds the pivot rows of d_{n-1} name columns of d_n, the
cleared ones, that d_n's stream is opened to skip.  Making a matrix opens
no stream.  Each reduction reads its columns straight off its own stream
and owns them, so none is stored or copied; the key-rank and key-by-key
streams step over a cleared column before they build any of its terms,
and the stream is dropped, with its working state, when the reduction
stops at its bound.  So no column past a bound is built (on the assoc
boundary, only the first (n-1)! of the n! columns of d_n, the
permutations that start with 1), and no cleared column.  Reading a
matrix's ``columns``, ``entries`` or ``nnz`` builds and stores it whole.
"""

from functools import partial

from .assoc import AssocOperad, _face_rows, _face_table
from .core import boundary, coboundary
from .elements import Element, OperadError
from .endo import EndoOperad
from .linalg import SparseMatrix, rank_complex
from .shift import ShiftOperad

DEFAULT_COLUMN_CAP = 20000


def _classical(operad):
    """The builder of the classical kind: degree n has d^(n+1) keys, and
    its stream reads each column off the nonzero structure constants
    (``_by_key_rank``); ``endo.classical_coboundary`` is its oracle."""
    if not isinstance(operad, EndoOperad):
        raise OperadError("the classical complex needs an endomorphism operad")
    return (lambda n: operad.algebra.dim ** (n + 1)), _by_key_rank(operad)


def _boundary(operad):
    """The builder of the boundary kind: its matrices are assembled key by
    key from ``core.boundary``, and on assoc from face ranks."""
    if isinstance(operad, AssocOperad):
        return operad.dimension, _by_face_rank(operad.field)
    return operad.dimension, partial(_by_key, boundary, operad, -1)


def _coboundary(operad):
    """The builder of the coboundary kind: key by key from
    ``core.coboundary``, or on an endomorphism operad, whose coboundary has
    the Hochschild terms and signs from degree 1 on, the classical kind's
    stream, with one empty column for the point.  Every term of the
    coboundary of a shift key ends in the key's last entry plus one, so
    every degree from 1 to max-entry - 1 leaves the truncated basis: shift
    is refused whole."""
    if isinstance(operad, ShiftOperad):
        raise OperadError(f"the shift basis truncated at max-entry {operad.max_entry} "
                          "is not closed under the coboundary")
    if isinstance(operad, EndoOperad):
        classical = _by_key_rank(operad)
        return operad.dimension, lambda n, skip: classical(n, skip) if n else iter(((),))
    return operad.dimension, partial(_by_key, coboundary, operad, 1)


def _by_key(operator, operad, step, degree, skip=()):
    """The columns of the degree-n matrix, each the terms of ``operator``
    (``core.boundary`` or ``core.coboundary``) on its key, with its rows
    looked up in an index of the basis of degree n + ``step``; a column in
    ``skip`` comes empty, its operator never applied.  The one stream that
    lists keys: on its first pull, before it builds any column, it lists
    the target basis once, into the index."""
    target = degree + step
    rows = operad.basis_keys(target) if target >= 0 else ()
    row_index = {key: r for r, key in enumerate(rows)}
    one = operad.field.one
    for c, key in enumerate(operad.basis_keys(degree)):
        if c in skip:
            yield ()
            continue
        terms = operator(Element._sum(operad, degree, [(key, one)])).terms
        yield zip(map(row_index.__getitem__, terms), terms.values())


def _by_face_rank(field):
    """The stream of the assoc boundary, from ``_face_rows``: face i
    carries the sign (-1)^i, and faces i and i + 1 coincide when the
    letters at i and i + 1 are consecutive, which the matrix constructor
    merges; ``skip`` is ignored, as the boundary clears no column.  It
    keeps the face table of every degree below those it has read, so each
    is built once, whatever the order of the degrees."""
    tables = [()]  # tables[m], the face table of degree m

    def columns(degree, skip):
        signs = [field.neg(field.one) if i % 2 else field.one for i in range(1, degree + 1)]
        while len(tables) < degree:
            tables.append(_face_table(len(tables), tables[-1]))
        for faces in _face_rows(degree, tables[max(degree - 1, 0)]):
            yield zip(faces, signs)

    return columns


def _by_key_rank(operad):
    """The stream of the Hochschild coboundary of an endomorphism operad:
    a column of degree n holds the left products into the output, the n
    signed input merges and the signed right products, each coefficient a
    structure constant or its negation.  At degree 0 there are no merges,
    and the column of (j,) is the commutator map x -> x e_j - e_j x."""
    field, dim = operad.field, operad.algebra.dim
    # c = mul[a][b][t] != 0 with its negation, filed three ways: left[b]
    # (a, t), merge[t] (a, b) and right[a] (b, t); scanning (a, b, t) in
    # order keeps the term order of classical_coboundary
    left, merge, right = ([[] for _ in range(dim)] for _ in range(3))
    for a, plane in enumerate(operad.algebra.nonzero):
        for b, row in enumerate(plane):
            for t, c in row:
                signed = (c, field.neg(c))
                left[b].append((a, t, signed))
                merge[t].append((a, b, signed))
                right[a].append((b, t, signed))

    def columns(degree, skip):
        """The columns of the degree-n matrix, each row named by its rank:
        key c = (i1..in, j) is c in base d, big-endian, so I = c // d is
        the rank of its inputs.  The left product (u, m) lands on u d^(n+1)
        + I d + m, the right one on I d^2 + u d + m, and the merge (u, v)
        at input p, with L = n - p + 1 entries after it, on head d^(L+2) +
        (u d + v) d^L + tail, where c = head d^(L+1) + i d^L + tail.  A
        column's terms come in ``classical_coboundary``'s order, so the
        matrix constructor adds each row's terms in that operator's order.
        A column in ``skip`` comes empty, its terms never built."""
        top, odd = dim ** (degree + 1), (degree + 1) % 2
        # per j, each product as (row - I d, value) and (row - I d^2, value)
        lefts = [[(u * top + m, c) for u, m, (c, _) in left[j]] for j in range(dim)]
        rights = [[(u * dim + m, w[odd]) for u, m, w in right[j]] for j in range(dim)]
        # per input p, with s = d^L: s, s d, s d (d - 1), and per i the terms
        # of merge[i] as (row - c - head s d (d - 1), value)
        merges = []
        for p in range(1, degree + 1):
            s = dim ** (degree - p + 1)
            merges.append((s, s * dim, s * dim * (dim - 1), [
                [((u * dim + v - i) * s, w[p % 2]) for u, v, w in merge[i]] for i in range(dim)]))
        for inputs in range(top // dim):
            # the merges of the key (inputs, 0): j is the last entry of
            # every tail, so the column of (inputs, j) adds j to their rows
            c = inputs * dim
            inner = []
            for s, block, stride, by_input in merges:
                base = c + c // block * stride
                inner += [(base + r, v) for r, v in by_input[c // s % dim]]
            for j in range(dim):
                if c + j in skip:
                    yield ()
                    continue
                pairs = [(c + r, v) for r, v in lefts[j]]
                pairs += [(r + j, v) for r, v in inner]
                base = c * dim
                pairs += [(base + r, v) for r, v in rights[j]]
                yield pairs

    return columns


# kind -> (ascending, builder)
DIFFERENTIALS = {
    "boundary": (False, _boundary),
    "coboundary": (True, _coboundary),
    "hochschild": (True, _classical),
}


class ComplexSpec:
    """Operad instance + differential kind + inclusive degree range.

    The kind is looked up in ``DIFFERENTIALS`` once, here, and its builder
    gives the kind's dimension and its column stream.  The degree window is
    checked after the builder has accepted the operad.  No method
    compares the kind string: the classical degree 0 is the algebra, keyed
    (j,) like any other degree, with no special case.
    """

    def __init__(self, operad, differential, lo, hi, column_cap=DEFAULT_COLUMN_CAP, allow_large=False):
        if differential not in DIFFERENTIALS:
            raise OperadError(f"unknown differential {differential!r}")
        self.ascending, build = DIFFERENTIALS[differential]
        self._dimension, self._columns = build(operad)
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (lo, hi, column_cap)):
            raise OperadError(
                f"lo, hi and column_cap must be ints, got {lo!r}, {hi!r} and {column_cap!r}")
        if not 0 <= lo <= hi:
            raise OperadError(f"bad degree range [{lo}, {hi}]")
        self.operad = operad
        self.differential = differential
        self.lo = lo
        self.hi = hi
        self.column_cap = column_cap
        self.allow_large = allow_large

    def dimension_at(self, degree):
        """The size of the degree-n basis, counted without listing it."""
        return 0 if degree < 0 else self._dimension(degree)

    def columns(self, degree, skip=()):
        """A fresh stream of the degree-n matrix's columns, from the kind's
        builder, as the module docstring states the contract: rows in
        range, values nonzero.  A degree below 0 has none, as its dimension
        says."""
        return self._columns(degree, skip) if degree >= 0 else iter(())

    def target_degree(self, degree):
        return degree + 1 if self.ascending else degree - 1


def _count_text(count):
    """``count`` in decimal, or a power of ten below it when the count has
    more digits than Python converts to text (4300 by default)."""
    try:
        return str(count)
    except ValueError:
        # 2^(bits-1) <= count, and 0.301 < log10(2)
        return f"more than 10^{(count.bit_length() - 1) * 301 // 1000}"


def _check_cap(spec, count, noun, where):
    if count > spec.column_cap and not spec.allow_large:
        counted, verb = (f"1 {noun}", "exceeds") if count == 1 else (
            f"{_count_text(count)} {noun}s", "exceed")
        raise OperadError(
            f"{counted} {where} {verb} the cap {spec.column_cap}; "
            "pass allow_large=True (--allow-large on the command line) to override"
        )


def differential_matrix(spec, degree):
    """Matrix of the chosen differential out of the stated degree; columns
    indexed by the degree-n basis, rows by the target-degree basis, both
    sized by ``dimension_at``.  It refuses only sizes past the cap,
    columns first, with no key listed.  The matrix holds the degree's opener,
    ``spec.columns`` bound to the degree, opens no stream, and builds each
    column only when a reader reads it."""
    target = spec.target_degree(degree)
    n_cols = spec.dimension_at(degree)
    _check_cap(spec, n_cols, "column", f"at degree {degree}")
    n_rows = spec.dimension_at(target)
    _check_cap(spec, n_rows, "row", f"at degree {target}")
    return SparseMatrix._from_columns(n_rows, n_cols, spec.operad.field,
                                      partial(spec.columns, degree))


def betti(spec):
    """Cohomology dimensions over the degree window.

    Every matrix of the window is made first, then all are ranked at once,
    in degree order, by ``linalg.rank_complex``.  Each reduction builds its
    matrix's columns only up to its rank bound and none that it clears, and
    stores none.

    dim H(n) = kernel_dim(matrix at n) minus the rank of the incoming
    differential.  The incoming matrix lives at n-1 for ascending kinds and
    n+1 for the boundary; at the open end of the window the incoming rank is
    unknown, so that degree is reported one-sided and flagged, unless the
    incoming differential leaves an empty basis: its rank is then 0, as at
    degree 0 of an ascending complex or above a truncated shift basis.
    """
    # the window is walked lazily, so the cap refuses a huge one at its first
    # oversized degree; the degree list exists only once every matrix does.
    # A truncated shift basis is empty above max-entry, where no size cap
    # fires, so the cap also bounds the degrees with empty source and target.
    mats = {}
    empty = 0
    for n in range(spec.lo, spec.hi + 1):
        mats[n] = mat = differential_matrix(spec, n)
        if not (mat.n_cols or mat.n_rows):
            empty += 1
            _check_cap(spec, empty, "empty degree", f"up to degree {n}")
    rank_complex(mats.values(), spec.ascending)
    degrees = list(mats)
    dims = []
    ranks = []
    warnings = []
    for n in degrees:
        k = mats[n].kernel_dim()
        ranks.append(mats[n].rank())
        # the incoming differential leaves degree m, n-1 or n+1
        m = 2 * n - spec.target_degree(n)
        if m in mats:
            k -= mats[m].rank()
        elif spec.dimension_at(m):
            warnings.append(f"degree {n}: incoming rank at degree {m} not computed (one-sided)")
        dims.append(k)
    return {
        "field": spec.operad.field.label,
        "operad": spec.operad.label,
        "differential": spec.differential,
        "degrees": degrees,
        "dims": dims,
        "ranks": ranks,
        "warnings": warnings,
    }

"""Exact (co)chain complexes and cohomology dimensions for operad instances.

A ComplexSpec bundles an operad instance, a differential kind, and a degree
window.  Degrees are arities; the classical kind swaps in the algebra itself
at degree 0, whose keys (j,) ``ComplexSpec.keys_at`` enumerates, and the
textbook coboundary (endomorphism operads only).

Matrix columns are assembled from basis keys.  The operadic kinds go through
the operad's ``compose_basis``, with the signs of ``core.boundary`` and
``core.coboundary``.  The classical kind reads every column, degree 0
included, off tables filed from ``FinAlgebra.nonzero``, each constant
stored with its negation, so a column needs no field multiplication.  The
Element-level operators (``core.boundary``, ``core.coboundary`` and
``endo.classical_coboundary``) are the test oracle.

A matrix is built column-major, the order ``SparseMatrix`` stores: the
column keys are walked lazily, one at a time, and each column's entries are
sorted by row as it is made, so neither the column basis nor the whole
matrix's triples are ever listed or sorted.

``betti`` builds the matrices of its whole window before it ranks any, so
the ranking can pass what one degree learned to the next (see
``linalg.rank_complex``): the rank of d_{n-1} bounds that of d_n, and on
the ascending kinds the pivot rows of d_{n-1} name columns of d_n that are
skipped unread.
"""

from .elements import OperadError
from .endo import EndoOperad
from .linalg import SparseMatrix, rank_complex
from .scalars import linear_combination

DIFFERENTIALS = ("boundary", "coboundary", "hochschild")
DEFAULT_COLUMN_CAP = 20000


class ComplexSpec:
    """Operad instance + differential kind + inclusive degree range.

    Whatever a column needs that does not depend on its key is built once,
    here: the signed point or product for the operadic kinds, and the nonzero
    structure constants for the classical one.
    """

    def __init__(self, operad, differential, lo, hi, column_cap=DEFAULT_COLUMN_CAP, allow_large=False):
        if differential not in DIFFERENTIALS:
            raise OperadError(f"unknown differential {differential!r}")
        if differential == "hochschild" and not isinstance(operad, EndoOperad):
            raise OperadError("the classical complex needs an endomorphism operad")
        if not 0 <= lo <= hi:
            raise OperadError(f"bad degree range [{lo}, {hi}]")
        self.operad = operad
        self.differential = differential
        self.lo = lo
        self.hi = hi
        self.column_cap = column_cap
        self.allow_large = allow_large
        field = operad.field
        if differential == "hochschild":
            # c = mul[a][b][t] != 0 with its negation, filed three ways:
            # left[b] (a, t), merge[t] (a, b) and right[a] (b, t); scanning
            # (a, b, t) in order keeps the term order of classical_coboundary
            d = range(operad.algebra.dim)
            self._left, self._merge, self._right = ([[] for _ in d] for _ in range(3))
            for a, plane in enumerate(operad.algebra.nonzero):
                for b, row in enumerate(plane):
                    for t, c in row:
                        signed = (c, field.neg(c))
                        self._left[b].append((a, t, signed))
                        self._merge[t].append((a, b, signed))
                        self._right[a].append((b, t, signed))
        else:
            # the point (boundary) or the product (coboundary), each weight
            # stored with its negation, indexed by the parity of its sign
            inserted = operad.unit_zero() if differential == "boundary" else operad.multiplication()
            self._inserted = [(k, (c, field.neg(c))) for k, c in inserted.terms.items()]

    @property
    def ascending(self):
        return self.differential != "boundary"

    def keys_at(self, degree):
        """The degree-n basis keys in basis order, yielded lazily.  Degree 0
        of the classical kind is the algebra: the key (j,) is e_j."""
        if degree < 0:
            return ()
        if self.differential == "hochschild" and degree == 0:
            return ((j,) for j in range(self.operad.algebra.dim))
        return self.operad.basis_keys(degree)

    def dimension_at(self, degree):
        """The number of keys ``keys_at(degree)`` yields, counted without
        listing them."""
        if degree < 0:
            return 0
        if self.differential == "hochschild" and degree == 0:
            return self.operad.algebra.dim
        return self.operad.dimension(degree)

    def column(self, key):
        """The differential of one basis key, as a canonical {key: coeff} dict.

        A classical column of degree n is read off the nonzero structure
        constants: the left products into the output, the n signed input
        merges and the signed right products, each coefficient a constant or
        its negation.  At degree 0 the key (j,) is e_j, there are no merges,
        and the column is the commutator map x -> x e_j - e_j x.  The
        operadic kinds compose the key with the point or the product through
        ``compose_basis``, in the order and with the signs of
        ``core.boundary`` / ``core.coboundary``.  The Element-level operators
        are the oracle of both.
        """
        operad = self.operad
        field = operad.field
        n = operad.arity_of(key)
        if self.differential == "hochschild":
            inputs, j = key[:-1], key[-1]
            pairs = [((u,) + inputs + (m,), c) for u, m, (c, _) in self._left[j]]
            for p in range(1, n + 1):
                head, tail, odd = inputs[: p - 1], inputs[p:] + (j,), p % 2
                pairs += [(head + (u, v) + tail, w[odd]) for u, v, w in self._merge[inputs[p - 1]]]
            odd = (n + 1) % 2
            pairs += [(inputs + (u, m), w[odd]) for u, m, w in self._right[j]]
            return linear_combination(field, pairs)
        if n == 0:
            return {}
        mul, compose_basis, inserted = field.mul, operad.compose_basis, self._inserted
        pairs = []
        if self.differential == "coboundary":
            for slot, odd in ((1, (n - 1) % 2), (2, 0)):
                for mk, w in inserted:
                    pairs += [(k, mul(w[odd], c)) for k, c in compose_basis(mk, slot, key)]
        for i in range(1, n + 1):
            for ik, w in inserted:
                pairs += [(k, mul(w[i % 2], c)) for k, c in compose_basis(key, i, ik)]
        return linear_combination(field, pairs)

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
    indexed by the degree-n basis, rows by the target-degree basis.  The
    cap is checked on the counted sizes of both bases, columns first, before
    any key is listed.  Only the row basis is listed, into its index; the
    columns are walked lazily and handed over in canonical order."""
    target = spec.target_degree(degree)
    n_cols = spec.dimension_at(degree)
    _check_cap(spec, n_cols, "column", f"at degree {degree}")
    _check_cap(spec, spec.dimension_at(target), "row", f"at degree {target}")
    row_index = {key: r for r, key in enumerate(spec.keys_at(target))}
    return SparseMatrix._from_canonical(
        len(row_index), n_cols, spec.operad.field, _triples(spec, degree, row_index, n_cols)
    )


def _triples(spec, degree, row_index, n_cols):
    """The (row, col, value) triples of the matrix, column by column, each
    column's sorted by row: the canonical order of ``SparseMatrix``."""
    c = -1
    # The shift basis is truncated at max-entry and is not closed under the
    # coboundary.  The row lookup stays unguarded inside the loop, which runs
    # once per term of every image.
    try:
        for c, key in enumerate(spec.keys_at(degree)):
            for r, v in sorted([(row_index[k], v) for k, v in spec.column(key).items()]):
                yield r, c, v
    except KeyError as exc:
        raise OperadError(
            f"the {spec.differential} of {key!r} has the term {exc.args[0]!r}, which is "
            f"outside the degree-{spec.target_degree(degree)} basis truncated at "
            f"max-entry {spec.operad.max_entry}"
        ) from exc
    if c + 1 != n_cols:
        raise OperadError(
            f"the degree-{degree} basis has {c + 1} keys, but its dimension is {n_cols}"
        )


def betti(spec):
    """Cohomology dimensions over the degree window.

    Every matrix of the window is built first, then all are ranked at once,
    in degree order, by ``linalg.rank_complex``.

    dim H(n) = kernel_dim(matrix at n) minus the rank of the incoming
    differential.  The incoming matrix lives at n-1 for ascending kinds and
    n+1 for the boundary; at the open end of the window the incoming rank is
    unknown, so that degree is reported one-sided and flagged (degree 0 of an
    ascending complex is genuinely closed, not flagged).
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
        elif m >= 0:
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

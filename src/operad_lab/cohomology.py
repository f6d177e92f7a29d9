"""Exact (co)chain complexes and cohomology dimensions for operad instances.

A ComplexSpec bundles an operad instance, a differential kind, and a degree
window.  Degrees are arities; the classical kind swaps in the algebra itself
at degree 0 and the textbook coboundary (endomorphism operads only).

Matrix columns are assembled from basis keys through the operad's
``compose_basis``, with the signs of ``core.boundary`` and
``core.coboundary``; those Element-level operators are the test oracle.
"""

from .elements import Element, OperadError
from .endo import EndoOperad, classical_coboundary, classical_keys
from .linalg import SparseMatrix
from .scalars import linear_combination

DIFFERENTIALS = ("boundary", "coboundary", "hochschild")
DEFAULT_COLUMN_CAP = 20000


class ComplexSpec:
    """Operad instance + differential kind + inclusive degree range."""

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

    @property
    def ascending(self):
        return self.differential != "boundary"

    def basis_at(self, degree):
        if degree < 0:
            return []
        if self.differential == "hochschild":
            return list(classical_keys(self.operad, degree))
        return list(self.operad.basis_keys(degree))

    def column(self, key):
        """The differential of one basis key, as a canonical {key: coeff} dict."""
        operad = self.operad
        field = operad.field
        n = operad.arity_of(key)
        if self.differential == "hochschild":
            return classical_coboundary(Element._sum(operad, n, [(key, field.one)])).terms
        if n == 0:
            return {}
        # (odd, outer, slot, inner, weight) per composite, summed in the
        # order and with the signs of core.boundary / core.coboundary
        if self.differential == "boundary":
            point = operad.unit_zero().terms.items()
            composites = [(i % 2, key, i, pk, pc) for i in range(1, n + 1) for pk, pc in point]
        else:
            m = operad.multiplication().terms.items()
            composites = [((n - 1) % 2, mk, 1, key, mc) for mk, mc in m]
            composites += [(0, mk, 2, key, mc) for mk, mc in m]
            composites += [(i % 2, key, i, mk, mc) for i in range(1, n + 1) for mk, mc in m]
        mul, neg, compose_basis = field.mul, field.neg, operad.compose_basis
        pairs = []
        for odd, outer, slot, inner, weight in composites:
            if odd:
                weight = neg(weight)
            for k, c in compose_basis(outer, slot, inner):
                pairs.append((k, mul(weight, c)))
        return linear_combination(field, pairs)

    def target_degree(self, degree):
        return degree + 1 if self.ascending else degree - 1


def differential_matrix(spec, degree):
    """Matrix of the chosen differential out of the stated degree; columns
    indexed by the degree-n basis, rows by the target-degree basis."""
    cols = spec.basis_at(degree)
    if len(cols) > spec.column_cap and not spec.allow_large:
        counted = "1 column" if len(cols) == 1 else f"{len(cols)} columns"
        verb = "exceeds" if len(cols) == 1 else "exceed"
        raise OperadError(
            f"{counted} at degree {degree} {verb} the cap {spec.column_cap}; "
            "pass allow_large=True (--allow-large on the command line) to override"
        )
    rows = spec.basis_at(spec.target_degree(degree))
    row_index = {key: r for r, key in enumerate(rows)}
    operad = spec.operad
    triples = []
    # The shift basis is truncated at max-entry and is not closed under the
    # coboundary.  The row lookup stays unguarded inside the loop, which runs
    # once per term of every image.
    try:
        for c, key in enumerate(cols):
            for bkey, coeff in spec.column(key).items():
                triples.append((row_index[bkey], c, coeff))
    except KeyError as exc:
        raise OperadError(
            f"the {spec.differential} of {key!r} has the term {exc.args[0]!r}, which is "
            f"outside the degree-{spec.target_degree(degree)} basis truncated at "
            f"max-entry {operad.max_entry}"
        ) from exc
    # each column is canonical and lands in its own column index
    return SparseMatrix._from_canonical(len(rows), len(cols), operad.field, triples)


def betti(spec):
    """Cohomology dimensions over the degree window.

    dim H(n) = kernel_dim(matrix at n) minus the rank of the incoming
    differential.  The incoming matrix lives at n-1 for ascending kinds and
    n+1 for the boundary; at the open end of the window the incoming rank is
    unknown, so that degree is reported one-sided and flagged (degree 0 of an
    ascending complex is genuinely closed, not flagged).
    """
    degrees = list(range(spec.lo, spec.hi + 1))
    mats = {n: differential_matrix(spec, n) for n in degrees}
    dims = []
    ranks = []
    warnings = []
    for n in degrees:
        k = mats[n].kernel_dim()
        ranks.append(mats[n].rank())
        if spec.ascending:
            if n == spec.lo:
                incoming = 0
                if n > 0:
                    warnings.append(
                        f"degree {n}: incoming rank at degree {n - 1} not computed (one-sided)"
                    )
            else:
                incoming = mats[n - 1].rank()
        else:
            if n == spec.hi:
                incoming = 0
                warnings.append(
                    f"degree {n}: incoming rank at degree {n + 1} not computed (one-sided)"
                )
            else:
                incoming = mats[n + 1].rank()
        dims.append(k - incoming)
    return {
        "field": spec.operad.field.label,
        "operad": spec.operad.label,
        "differential": spec.differential,
        "degrees": degrees,
        "dims": dims,
        "ranks": ranks,
        "warnings": warnings,
    }

"""Generic simplicial calculus over any connected multiplicative operad.

Every function here works uniformly over the concrete operads (permutations,
increasing sequences, endomorphisms): partial and total composition, faces and
degeneracies, the boundary and coboundary operators, right braces, the two m-
products, the prefix/suffix coproduct, and multi-index face/degeneracy maps.

The boundary and the coboundary are defined here once, as one pass over the
terms of an element (``_differential``); the key-by-key matrix columns of
``cohomology`` are these operators applied to one key, and the tests sum
both from ``compose`` on their own as the oracle.

Conventions fixed here (and exercised by the test suites):
- total composition plugs arguments right to left, so earlier slots keep
  their indices while later blocks are already in place;
- the brace sign exponent counts, for each inserted argument, the inputs of
  the composite strictly to the left of that argument's block;
- the coproduct's extreme terms are the canonical point tensor factors, the
  interior terms are top-face and first-face chains;
- the boundary of a point is zero, and the coboundary of a point is zero;
  an arity-0 algebra element, keyed ``(j,)``, is not a point, and is
  refused wherever a point is expected.
"""

from itertools import combinations

from .elements import Element, OperadError
from .scalars import power_sign


def compose(x, i, y):
    """Partial composition x o_i y, bilinear in both arguments."""
    operad = x.operad
    if y.operad is not operad and y.operad.signature() != operad.signature():
        raise OperadError(f"mixed operads: {operad.label} vs {y.operad.label}")
    if x.arity < 1:
        raise OperadError("arity-0 element has no composition slots")
    if not 1 <= i <= x.arity:
        raise OperadError(f"slot {i} out of range for arity {x.arity}")
    mul, compose_basis = operad.field.mul, operad.compose_basis
    y_terms = y.terms.items()
    return Element._sum(operad, x.arity + y.arity - 1, [
        (key, mul(mul(cx, cy), c))
        for bx, cx in x.terms.items()
        for by, cy in y_terms
        for key, c in compose_basis(bx, i, by)
    ])


def gamma(x, ys):
    """Total composition: plug ys into the slots of x, rightmost slot first."""
    if len(ys) != x.arity:
        raise OperadError(f"gamma needs {x.arity} arguments, got {len(ys)}")
    result = x
    for i in range(x.arity, 0, -1):
        result = compose(result, i, ys[i - 1])
    return result


def face(x, i):
    """Plug the point into slot i; arity drops by one."""
    return compose(x, i, x.operad.unit_zero())


def degeneracy(x, i=None):
    """Plug the product into slot i; arity rises by one.  On a point the
    slot is ignored and the result is the operadic unit."""
    if x.arity == 0:
        return x.operad.unit_one().scale(_point(x).coefficient(()))
    if i is None:
        raise OperadError("degeneracy needs a slot for arity >= 1")
    return compose(x, i, x.operad.multiplication())


def subset_restriction(x, keep):
    """Restrict to the slots in ``keep``: unit there, point elsewhere."""
    keep = set(keep)
    if not keep <= set(range(1, x.arity + 1)):
        raise OperadError(f"subset {sorted(keep)} not within 1..{x.arity}")
    one = x.operad.unit_one()
    point = x.operad.unit_zero()
    return gamma(x, [one if i in keep else point for i in range(1, x.arity + 1)])


def boundary(x):
    """Alternating sum of faces, face i with sign (-1)^i; zero on points."""
    if x.arity == 0:
        _point(x)
        return Element.zero(x.operad, 0)
    return _differential(x, x.operad.unit_zero(), ())


def coboundary(x):
    """Degree +1 operator driven by the product m: m o_1 x with sign
    (-1)^(n-1), m o_2 x, and x o_i m with sign (-1)^i; zero on points."""
    if x.arity == 0:
        _point(x)
        return Element.zero(x.operad, 1)
    return _differential(x, x.operad.multiplication(), ((1, (x.arity - 1) % 2), (2, 0)))


def _differential(x, inserted, outer):
    """One pass over the terms of x into one sum: ``inserted`` (the point or
    the product) composed into every slot i of each key with sign (-1)^i,
    and each key composed into the slots of ``inserted`` that ``outer``
    lists, each with the parity of its sign.  Nothing is built for a slot
    before a term is read, so a zero element costs nothing."""
    operad = x.operad
    field = operad.field
    mul, neg, compose_basis = field.mul, field.neg, operad.compose_basis
    arity = x.arity + inserted.arity - 1
    weights = inserted.terms.items()
    slots = range(1, x.arity + 1)
    pairs = []
    for key, cx in x.terms.items():
        # each weight of ``inserted`` times cx, stored with its negation and
        # indexed by the parity of its sign
        signed = [(ik, (w, neg(w))) for ik, c in weights for w in (mul(c, cx),)]
        for slot, odd in outer:
            for ik, w in signed:
                pairs += [(k, mul(w[odd], c)) for k, c in compose_basis(ik, slot, key)]
        for i in slots:
            for ik, w in signed:
                pairs += [(k, mul(w[i % 2], c)) for k, c in compose_basis(key, i, ik)]
    return Element._sum(operad, arity, pairs)


def brace(p, qs):
    """Right brace p{q_1..q_n}: signed sum over order-preserving insertions.

    Each summand plugs q_1..q_n into n chosen slots of p (units elsewhere)
    and carries the sign (-1)^e with e the sum over j of |q_j| times the
    number of inputs of the composite strictly left of q_j's block.  A zero
    p or argument gives zero before any insertion is tried.
    """
    n = len(qs)
    if n == 0:
        return p
    r = p.arity
    if n > r:
        raise OperadError(f"brace needs at most deg(p)={r} arguments, got {n}")
    operad = p.operad
    arities = [q.arity for q in qs]
    result_arity = r - n + sum(arities)
    if p.is_zero() or any(q.is_zero() for q in qs):
        return Element.zero(operad, result_arity)
    neg = operad.field.neg
    pairs = []
    for slots in combinations(range(1, r + 1), n):
        exponent = 0
        left_inputs = 0
        prev_slot = 0
        for j, c in enumerate(slots):
            left_inputs += c - prev_slot - 1
            exponent += (arities[j] - 1) * (result_arity - left_inputs)
            left_inputs += arities[j]
            prev_slot = c
        term = p
        for j in range(n - 1, -1, -1):
            term = compose(term, slots[j], qs[j])
        odd = exponent % 2
        pairs += [(key, neg(c) if odd else c) for key, c in term.terms.items()]
    return Element._sum(operad, result_arity, pairs)


def dot_product(p, q):
    """p.q = (-1)^(deg p * deg q) gamma(m; p, q)."""
    m = p.operad.multiplication()
    sign = power_sign(p.operad.field, p.arity * q.arity)
    return gamma(m, [p, q]).scale(sign)


def odot_product(p, q):
    """The associative product (-1)^(deg q (deg p - 1)) m{p, q}; it equals
    the plain total composition gamma(m; p, q)."""
    m = p.operad.multiplication()
    sign = power_sign(p.operad.field, q.arity * (p.arity - 1))
    return brace(m, [p, q]).scale(sign)


def aw_coproduct(x):
    """Prefix/suffix coproduct as a list of simple tensors (left, right).

    For each basis term of x there are n+1 summands: the j-th left factor is
    the chain of top faces down to arity j, the right factor the j-fold first
    face, and the extreme terms are point tensor factors.  Scalar weights
    ride on the left factors; summing left (x) right over the list gives the
    full coproduct.

    Each chain is built once per term, one face per step: the left factor of
    arity j is the one of arity j+1 with its top face ``face(., j+1)``, and
    the right factor after j first faces is the one after j-1 with one more
    ``face(., 1)``.  That is 2(n-1) faces per term.
    """
    operad = x.operad
    point = operad.unit_zero()
    n = x.arity
    if n == 0:
        return [(_point(x), point)]
    one = operad.field.one
    pairs = []
    for key, coeff in x.sorted_terms():
        weighted = Element._sum(operad, n, [(key, coeff)])
        plain = Element._sum(operad, n, [(key, one)])
        lefts = [weighted]  # arities n, n-1, ..., 1
        for a in range(n, 1, -1):
            lefts.append(face(lefts[-1], a))
        rights = [plain]  # after 0, 1, ..., n-1 first faces
        for _ in range(1, n):
            rights.append(face(rights[-1], 1))
        pairs.append((point.scale(coeff), plain))
        pairs.extend((lefts[n - j], rights[j]) for j in range(1, n))
        pairs.append((weighted, point))
    return pairs


def counit(x):
    """Coefficient of the point in arity 0; zero in higher arity."""
    if x.arity != 0:
        return x.operad.field.zero
    return _point(x).coefficient(())


def _point(x):
    """An arity-0 element, checked to be a multiple of the point.  An algebra
    element keyed ``(j,)``, degree 0 of the classical complex, has no
    operadic meaning here, and is refused as ``compose`` refuses it."""
    for key in x.terms:
        if key != ():
            raise OperadError(f"degree-0 key {key!r} carries no operadic slot data")
    return x


def multi_face(x, slots, arities):
    """Composite face map: one face inside each block of the stated arities,
    taken at global positions slots[r] + (sum of earlier block arities),
    applied from the rightmost position inward."""
    return _multi(x, slots, arities, face)


def multi_degeneracy(x, slots, arities):
    """Composite degeneracy map, same position bookkeeping as multi_face."""
    return _multi(x, slots, arities, degeneracy)


def _multi(x, slots, arities, op):
    if len(slots) != len(arities):
        raise OperadError("slots and arities must have equal length")
    if sum(arities) != x.arity:
        raise OperadError(
            f"block arities sum to {sum(arities)}, element arity is {x.arity}"
        )
    positions = []
    offset = 0
    for j, t in zip(slots, arities):
        if t < 1:
            raise OperadError("block arities must be >= 1")
        if not 1 <= j <= t:
            raise OperadError(f"slot {j} outside its block of arity {t}")
        positions.append(j + offset)
        offset += t
    out = x
    for g in sorted(positions, reverse=True):
        out = op(out, g)
    return out


def block_sign_exponent(arities):
    """Reported exponent for the tensor-level block maps: sum of t_r (s-r)."""
    s = len(arities)
    return sum(t * (s - r) for r, t in enumerate(arities, start=1))


def random_element(operad, arity, rng, max_terms=2):
    """Small random linear combination of basis keys, for property tests."""
    field = operad.field
    n_terms = rng.randint(1, max_terms)
    pairs = []
    for _ in range(n_terms):
        key = operad.random_basis(arity, rng)
        c = field.from_int(rng.randint(1, 3) * rng.choice((1, -1)))
        pairs.append((key, c))
    return Element._sum(operad, arity, pairs)

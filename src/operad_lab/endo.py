"""Endomorphism operads of finite-dimensional unital associative algebras.

For an algebra A with basis e_0..e_{d-1}, arity n >= 1 has the elementary
basis E[i1..in -> j] (the multilinear map sending e_{i1} x..x e_{in} to e_j
and every other basis tuple to 0), stored as the flat tuple (i1..in, j).
Arity 0 is one-dimensional with basis key (); composing an arity-1 map f with
that point evaluates f on the algebra unit and projects back to the line via
a fixed normalized functional.

Keys of length 1, (j,), encode algebra elements e_j themselves; they form the
degree-0 term of the classical Hochschild complex, whose degree-n keys
(i1..in, j) the classical column stream (``cohomology._classical``) names by
rank without listing them, and carry no operadic slots.

``FinAlgebra.nonzero`` lists the nonzero structure constants.  All code reads
them there except the oracle ``classical_coboundary``, which reads ``mul``.
"""

from itertools import product

from .core import compose, face
from .elements import Element, Operad, OperadError, _json_text, json_int, json_scalar, read_json
from .scalars import power_sign


class FinAlgebra:
    """Finite-dimensional unital associative algebra given by structure
    constants: mul[i][j][k] is the e_k coefficient of e_i * e_j.  Every
    constant is made a field scalar (``field.coerce``) once the shapes
    match."""

    def __init__(self, name, field, dim, unit, mul):
        if dim < 1:
            raise OperadError("algebra dimension must be >= 1")
        self.name = name
        self.field = field
        self.dim = dim
        unit = tuple(unit)
        mul = tuple(tuple(tuple(row) for row in plane) for plane in mul)
        if len(unit) != dim or len(mul) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in mul
        ):
            raise OperadError("structure constant shapes do not match dim")
        coerce = field.coerce
        self.unit = tuple(map(coerce, unit))
        self.mul = tuple(tuple(tuple(map(coerce, row)) for row in plane) for plane in mul)
        # nonzero[a][b] = ((t, c), ...): the terms c e_t of e_a e_b, t ascending
        self.nonzero = tuple(tuple(
            tuple((t, c) for t, c in enumerate(row) if not field.is_zero(c)) for row in plane
        ) for plane in self.mul)
        # normalized functional used to close the bottom of the complex:
        # the coordinate at the first basis index where the unit is nonzero
        self.theta_index = next(
            (k for k in range(dim) if not field.is_zero(self.unit[k])), None
        )
        if self.theta_index is None:
            raise OperadError("unit vector is zero")
        self.theta_scale = field.inv(self.unit[self.theta_index])
        self._check_axioms()

    def _check_axioms(self):
        """The algebra is associative and unital exactly when its product m
        in the endomorphism operad is: m o_1 m = m o_2 m, and the unit in
        either slot of m (a face) is the identity.  The first failure is
        named as a loop over i would meet it, checking every triple
        (i, j, k) and then the unit laws at i."""
        op = EndoOperad(self)
        m, one = op.multiplication(), op.unit_one()
        triples = (compose(m, 1, m) - compose(m, 2, m)).terms
        i, j, k, _ = min(triples, default=(self.dim,) * 4)
        unit_index = min((key[0] for s in (1, 2) for key in (face(m, s) - one).terms),
                         default=self.dim)
        if unit_index < i:
            raise OperadError(f"unit axiom fails at basis index {unit_index}")
        if triples:
            raise OperadError(f"algebra {self.name!r} is not associative at ({i},{j},{k})")

    def signature(self):
        return ("algebra", self.name, self.field.signature(), self.dim, self.unit, self.mul)


def ground_field_algebra(field):
    return FinAlgebra("k", field, 1, (field.one,), (((field.one,),),))


def dual_numbers(field):
    """K[x]/(x^2): basis 1, x."""
    one, zero = field.one, field.zero
    mul = (
        ((one, zero), (zero, one)),
        ((zero, one), (zero, zero)),
    )
    return FinAlgebra("dual", field, 2, (one, zero), mul)


def matrix2(field):
    """2x2 matrices: basis e11, e12, e21, e22 (indices 0..3)."""
    one, zero = field.one, field.zero

    def unit_product(a, b, c, d):
        # e_{ab} e_{cd} = delta_{bc} e_{ad}
        out = [zero] * 4
        if b == c:
            out[2 * a + d] = one
        return tuple(out)

    mul = tuple(
        tuple(unit_product(i // 2, i % 2, j // 2, j % 2) for j in range(4))
        for i in range(4)
    )
    return FinAlgebra("m2", field, 4, (one, zero, zero, one), mul)


def algebra_from_json(data, field, name="custom"):
    """An algebra from ``{"dim": d, "unit": [...], "mul": [[[...]]]}``;
    ``FinAlgebra`` then checks the lengths against ``dim``."""
    if not isinstance(data, dict) or not {"dim", "unit", "mul"} <= data.keys():
        raise OperadError("algebra JSON needs an object with 'dim', 'unit' and 'mul' fields")
    if not isinstance(data["unit"], list) or not (
        isinstance(data["mul"], list)
        and all(isinstance(plane, list) and all(isinstance(row, list) for row in plane)
                for plane in data["mul"])
    ):
        raise OperadError("algebra JSON needs 'unit' as a list and 'mul' as a list of "
                          "lists of lists")
    dim = json_int(data["dim"], "algebra dim")
    unit = tuple(json_scalar(field, v) for v in data["unit"])
    mul = tuple(
        tuple(tuple(json_scalar(field, v) for v in row) for row in plane)
        for plane in data["mul"]
    )
    return FinAlgebra(name, field, dim, unit, mul)


PRESETS = {"k": ground_field_algebra, "dual": dual_numbers, "m2": matrix2}


def load_algebra(spec_text, field):
    """Resolve an algebra from a preset name or an @file.json reference."""
    s = spec_text.strip()
    if s in PRESETS:
        return PRESETS[s](field)
    if s.startswith("@"):
        return algebra_from_json(read_json(s), field, name=s[1:])
    raise OperadError(f"unknown algebra {spec_text!r} (want {', '.join(PRESETS)}, or @file.json)")


class EndoOperad(Operad):
    """Operad of multilinear maps A^(x)n -> A in the elementary basis.

    Its signature, arities, unit and product depend on the algebra; the
    point and the key codec are the base's."""

    def __init__(self, algebra):
        super().__init__(algebra.field)
        self.algebra = algebra
        self.label = f"endo:{algebra.name}"

    def signature(self):
        return ("endo", self.algebra.signature())

    def arity_of(self, key):
        return max(len(key) - 1, 0)

    def validate_basis(self, key, arity):
        key = tuple(key)
        d = self.algebra.dim
        if arity == 0:
            if key != () and not (len(key) == 1 and 0 <= key[0] < d):
                raise OperadError(f"bad arity-0 key {key!r}")
            return key
        if len(key) != arity + 1 or any(not 0 <= v < d for v in key):
            raise OperadError(f"bad map key {key!r} for arity {arity}")
        return key

    def unit_one(self):
        one = self.field.one
        return Element._sum(self, 1, [((a, a), one) for a in range(self.algebra.dim)])

    def multiplication(self):
        """The algebra's product as an arity-2 map, built on first use and
        shared after that."""
        if self._product is None:
            self._product = Element._sum(self, 2, [
                ((a, b, t), c)
                for a, plane in enumerate(self.algebra.nonzero)
                for b, row in enumerate(plane)
                for t, c in row
            ])
        return self._product

    def compose_basis(self, key, i, other):
        inputs, out = key[:-1], key[-1]
        if other == ():
            # plug the algebra unit into slot i; at arity 1 the value e_out is
            # projected to the arity-0 line by theta, the unit coordinate at
            # theta_index scaled so that theta(unit) = 1
            alg = self.algebra
            u = alg.unit[inputs[i - 1]]
            if self.field.is_zero(u):
                return []
            if len(inputs) > 1:
                return [(inputs[: i - 1] + inputs[i:] + (out,), u)]
            return [((), self.field.mul(u, alg.theta_scale))] if out == alg.theta_index else []
        if len(other) == 1:
            raise OperadError(f"degree-0 key {other!r} carries no operadic slot data")
        g_inputs, g_out = other[:-1], other[-1]
        if g_out != inputs[i - 1]:
            return []
        new_key = inputs[: i - 1] + g_inputs + inputs[i:] + (out,)
        return [(new_key, self.field.one)]

    def basis_keys(self, arity):
        """The elementary keys in lexicographic order; the point at arity 0."""
        if arity == 0:
            return iter([()])
        return product(range(self.algebra.dim), repeat=arity + 1)

    def dimension(self, arity):
        return 1 if arity == 0 else self.algebra.dim ** (arity + 1)

    def random_basis(self, arity, rng):
        if arity == 0:
            return ()
        d = self.algebra.dim
        return tuple(rng.randrange(d) for _ in range(arity + 1))

    def format_basis(self, key):
        if key == ():
            return "()"
        if len(key) == 1:
            return f"A[{key[0]}]"
        ins = ",".join(str(v) for v in key[:-1])
        return f"E[{ins}->{key[-1]}]"

    def parse_basis(self, text):
        s = text.strip()
        key = None
        try:
            if s == "()":
                key = ()
            elif s.startswith("A[") and s.endswith("]"):
                key = (int(s[2:-1]),)
            elif s.startswith("E[") and s.endswith("]") and "->" in s:
                ins, _, out = s[2:-1].partition("->")
                key = tuple(int(t) for t in ins.split(",")) + (int(out),)
        except ValueError:
            pass
        if key is None:
            raise OperadError(f"bad map key {text!r}")
        return self.validate_basis(key, self.arity_of(key))


def classical_coboundary(x):
    """Degree +1 differential of the classical complex of the algebra.

    Degree 0 sends an algebra element to its commutator map; degree n >= 1
    alternates outer multiplications and the n adjacent input merges.
    """
    operad = x.operad
    if not isinstance(operad, EndoOperad):
        raise OperadError("classical coboundary needs an endomorphism operad")
    alg, f = operad.algebra, operad.field
    d = alg.dim
    pairs = []
    bump = pairs.append

    if x.arity == 0:
        for key, coeff in x.terms.items():
            vec = alg.unit if key == () else [f.one if t == key[0] else f.zero for t in range(d)]
            for u in range(d):
                for m in range(d):
                    for t in range(d):
                        if f.is_zero(vec[t]):
                            continue
                        c = f.sub(alg.mul[u][t][m], alg.mul[t][u][m])
                        bump(((u, m), f.mul(vec[t], f.mul(coeff, c))))
        return Element._sum(operad, 1, pairs)

    n = x.arity
    for key, coeff in x.terms.items():
        inputs, j = key[:-1], key[-1]
        for u in range(d):
            for m in range(d):
                c = alg.mul[u][j][m]
                bump(((u,) + inputs + (m,), f.mul(coeff, c)))
        for p in range(1, n + 1):
            sign = power_sign(f, p)
            target = inputs[p - 1]
            for u in range(d):
                for v in range(d):
                    c = alg.mul[u][v][target]
                    if f.is_zero(c):
                        continue
                    new_key = inputs[: p - 1] + (u, v) + inputs[p:] + (j,)
                    bump((new_key, f.mul(sign, f.mul(coeff, c))))
        sign = power_sign(f, n + 1)
        for u in range(d):
            for m in range(d):
                c = alg.mul[j][u][m]
                bump((inputs + (u, m), f.mul(sign, f.mul(coeff, c))))
    return Element._sum(operad, n + 1, pairs)


def cup_product(x, y):
    """Classical cup product: multiply the outputs, concatenate the inputs."""
    operad = x.operad
    if not isinstance(operad, EndoOperad) or operad.signature() != y.operad.signature():
        raise OperadError("cup product needs two maps over one endomorphism operad")
    if x.arity < 1 or y.arity < 1:
        raise OperadError("cup product defined here for arities >= 1")
    nonzero, f = operad.algebra.nonzero, operad.field
    pairs = []
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            base = f.mul(cx, cy)
            pairs += [(kx[:-1] + ky[:-1] + (m,), f.mul(base, c))
                      for m, c in nonzero[kx[-1]][ky[-1]]]
    return Element._sum(operad, x.arity + y.arity, pairs)


def multimap_to_element(operad, arity, coeffs):
    """Dense coefficient list -> Element; index order is input indices from
    the first (slowest) to the last, then the output index (fastest)."""
    arity = json_int(arity, "dense map arity")
    if arity < 0:
        raise OperadError(f"negative arity {arity}")
    if not isinstance(coeffs, list):
        raise OperadError(f"dense map needs a list of coefficients, got {_json_text(coeffs)}")
    d = operad.algebra.dim
    f = operad.field
    if arity == 0:
        if len(coeffs) != d:
            raise OperadError(f"arity-0 dense map needs {d} coefficients")
        return Element(
            operad, 0, {(j,): json_scalar(f, coeffs[j]) for j in range(d)}
        )
    # d ** (arity + 1) exceeds every count of fewer bits than arity + 1, so
    # a huge arity is refused without building the power
    if d > 1 and arity + 1 > len(coeffs).bit_length():
        raise OperadError(
            f"arity-{arity} dense map needs {d}^{arity + 1} coefficients, got {len(coeffs)}")
    expected = d ** (arity + 1)
    if len(coeffs) != expected:
        raise OperadError(f"arity-{arity} dense map needs {expected} coefficients")
    return Element(operad, arity, [
        (key, json_scalar(f, c)) for key, c in zip(operad.basis_keys(arity), coeffs)
    ])

"""Endomorphism operad of a finite-dimensional algebra."""

import itertools
import json
import random

import pytest

from operad_lab import Element, EndoOperad, OperadError, ScalarError, get_field
from operad_lab.cohomology import ComplexSpec, betti, differential_matrix
from operad_lab.core import coboundary, compose, face, odot_product
from operad_lab.endo import (
    FinAlgebra,
    algebra_from_json,
    classical_coboundary,
    cup_product,
    dual_numbers,
    ground_field_algebra,
    load_algebra,
    matrix2,
    multimap_to_element,
)

Q = get_field("q")
F3 = get_field("gfp:3")
F5 = get_field("gfp:5")


def test_presets_validate():
    for algebra in (ground_field_algebra(Q), dual_numbers(Q), dual_numbers(F3), matrix2(F5)):
        assert algebra.dim >= 1
        # the axioms held during construction; check them again through the
        # operad: the unit in either slot of the product is the identity
        op = EndoOperad(algebra)
        m = op.multiplication()
        assert compose(m, 1, m) == compose(m, 2, m)
        for s in (1, 2):
            assert face(m, s) == op.unit_one()


def test_structure_constants_are_stored_as_field_scalars():
    # a constant of the wrong range is reduced, as in Element(...)
    algebra = FinAlgebra("x", F5, 1, (6,), (((6,),),))
    assert (algebra.unit, algebra.mul) == ((1,), (((1,),),))
    op = EndoOperad(algebra)
    assert op.multiplication() == Element.basis(op, (0, 0, 0))
    # a float is refused where it enters, before any complex is built
    for unit, product in [(1.0, 1), (1, 1.0)]:
        with pytest.raises(ScalarError, match=f"got {1.0!r}$"):
            FinAlgebra("x", Q, 1, (unit,), (((product,),),))


def test_structure_constants_need_one_plane_per_basis_element():
    for mul in ([[[1]], [[5]]], []):
        with pytest.raises(OperadError, match="^structure constant shapes do not match dim$"):
            FinAlgebra("x", Q, 1, [1], mul)


def test_non_associative_rejected():
    # unit laws force every product with e0; choose e1e1=e2, e2e1=e1, e1e2=0,
    # so (e1e1)e1 = e1 but e1(e1e1) = 0
    z, o = Q.zero, Q.one
    unit = [o, z, z]
    def vec(i):
        out = [z, z, z]
        if i is not None:
            out[i] = o
        return out
    mul = [
        [vec(0), vec(1), vec(2)],
        [vec(1), vec(2), vec(None)],
        [vec(2), vec(1), vec(None)],
    ]
    with pytest.raises(OperadError) as refused:
        FinAlgebra("bad", Q, 3, unit, mul)
    assert str(refused.value) == "algebra 'bad' is not associative at (1,1,1)"


def constants(dim, products):
    """The structure constants with ``products[(a, b)]`` as the coordinates
    of e_a e_b, every other product 0."""
    return [[products.get((a, b), [0] * dim) for b in range(dim)] for a in range(dim)]


# (dim, unit, products, message): each axiom failure is refused with its
# first failing triple (i, j, k) or basis index i, in the order of the loop
# over i that checks every triple (i, j, k), then the unit laws at i
AXIOM_REFUSALS = [
    # e0 e0 = 2 e0 is associative, but the unit does not act as one
    (1, [1], {(0, 0): [2]}, "unit axiom fails at basis index 0"),
    # (e0e0)e1 = 2e1 but e0(e0e1) = e1, and the unit laws fail at 0 too:
    # at an equal index the associativity failure comes first
    (2, [1, 0], {(0, 0): [2, 0], (0, 1): [0, 1], (1, 0): [0, 1]},
     "algebra 'pinned' is not associative at (0,0,1)"),
    # e0 e0 = 0 breaks the unit laws at 0 before the first associativity
    # failure, (e1e0)e0 = e1 but e1(e0e0) = 0, at (1,0,0)
    (2, [1, 0], {(1, 0): [0, 1]}, "unit axiom fails at basis index 0"),
    # e0 is only a left unit, or only a right one: each fails at index 1
    (2, [1, 0], {(0, 0): [1, 0], (0, 1): [0, 1]}, "unit axiom fails at basis index 1"),
    (2, [1, 0], {(0, 0): [1, 0], (1, 0): [0, 1]}, "unit axiom fails at basis index 1"),
]


def test_axiom_refusals_name_the_first_failure():
    for field in (Q, F5):
        for dim, unit, products, message in AXIOM_REFUSALS:
            with pytest.raises(OperadError) as refused:
                FinAlgebra("pinned", field, dim, unit, constants(dim, products))
            assert str(refused.value) == message, (field.label, products)


def test_theta_picks_unit_coordinate():
    # the face of e0 -> v is theta(v) times the point
    op = EndoOperad(dual_numbers(Q))
    # unit is e0; theta reads off the e0 coordinate
    four, nine = Q.from_int(4), Q.from_int(9)
    v = Element.basis(op, (0, 0)).scale(four) + Element.basis(op, (0, 1)).scale(nine)
    assert face(v, 1) == op.unit_zero().scale(four)
    m2op = EndoOperad(matrix2(F5))
    # unit is e0 + e3; theta is normalized so theta(unit) = 1
    unit_map = Element.basis(m2op, (0, 0)) + Element.basis(m2op, (0, 3))
    assert face(unit_map, 1) == m2op.unit_zero()


def test_operad_basics():
    op = EndoOperad(dual_numbers(Q))
    assert op.label == "endo:dual"
    assert op.dimension(1) == 4
    assert op.dimension(2) == 8
    assert op.arity_of((0, 1, 1)) == 2
    assert op.arity_of(()) == 0
    assert op.arity_of((1,)) == 0
    unit = op.unit_one()
    assert sorted(unit.terms) == [(0, 0), (1, 1)]
    mult = op.multiplication()
    # x*x = 0 kills the (1,1)->? keys; remaining keys follow the products
    assert mult == (
        Element.basis(op, (0, 0, 0))
        + Element.basis(op, (0, 1, 1))
        + Element.basis(op, (1, 0, 1))
    )


def test_parse_basis_validates_keys():
    op = EndoOperad(dual_numbers(Q))
    for key in [(), (1,), (0, 1), (1, 0, 1)]:
        assert op.parse_basis(op.format_basis(key)) == key
    for text in ["E[7->0]", "A[2]", "E[0,1->]", "E[a->0]", "A[x]"]:
        with pytest.raises(OperadError):
            op.parse_basis(text)


def test_compose_output_match_rule():
    op = EndoOperad(dual_numbers(Q))
    f = Element.basis(op, (0, 1, 1))    # inputs (e0, e1) -> e1
    g = Element.basis(op, (0, 0))       # e0 -> e0
    h = Element.basis(op, (1, 0))       # e1 -> e0
    w = Element.basis(op, (1, 1, 0))    # inputs (e1, e1) -> e0
    # g outputs e0, matching input 1 of f; its input replaces that slot
    assert compose(f, 1, g) == Element.basis(op, (0, 1, 1))
    # w outputs e0, matching input 1 of f; arity grows by one
    assert compose(f, 1, w) == Element.basis(op, (1, 1, 1, 1))
    # h outputs e0, but slot 2 of f expects e1: zero
    assert compose(f, 2, h).is_zero()


def test_unit_laws():
    rng = random.Random(4)
    op = EndoOperad(dual_numbers(Q))
    one = op.unit_one()
    for _ in range(50):
        n = rng.randint(1, 3)
        key = tuple(rng.randrange(2) for _ in range(n + 1))
        x = Element.basis(op, key)
        assert compose(one, 1, x) == x
        for slot in range(1, n + 1):
            assert compose(x, slot, one) == x


def test_compose_with_point():
    op = EndoOperad(dual_numbers(Q))
    point = op.unit_zero()
    f = Element.basis(op, (0, 1, 1))
    # slot 1 takes e0 = unit: survives with coefficient 1, drops to (1 -> 1)
    assert compose(f, 1, point) == Element.basis(op, (1, 1))
    # slot 2 takes e1 which has zero unit coordinate: dies
    assert compose(f, 2, point).is_zero()
    # arity 1: theta of the output
    id0 = Element.basis(op, (0, 0))
    assert compose(id0, 1, point) == point
    eps = Element.basis(op, (0, 1))
    assert compose(eps, 1, point).is_zero()


def test_classical_keys_and_degree_zero():
    op = EndoOperad(dual_numbers(Q))
    # degree n has the d^(n+1) keys (i1..in, j): degree 0 is the algebra
    # itself, keyed (j,), with d columns, not the operad's one point
    spec = ComplexSpec(op, "hochschild", 0, 2)
    assert [spec.dimension_at(n) for n in (0, 1, 2)] == [2, 4, 8]
    # degree-0 coboundary is the commutator map; dual numbers are commutative
    elem = Element.basis(op, (1,))
    assert classical_coboundary(elem).is_zero()
    zero = differential_matrix(spec, 0)
    assert (zero.n_rows, zero.n_cols, zero.nnz) == (4, 2, 0)
    m2op = EndoOperad(matrix2(F5))
    e01 = Element.basis(m2op, (1,))
    dm = classical_coboundary(e01)
    assert not dm.is_zero()
    assert dm.arity == 1


def test_coboundary_of_identity_is_multiplication():
    for algebra in (dual_numbers(Q), matrix2(F5)):
        op = EndoOperad(algebra)
        assert coboundary(op.unit_one()) == op.multiplication()
        assert classical_coboundary(op.unit_one()) == op.multiplication()


def test_operadic_equals_classical_coboundary():
    rng = random.Random(9)
    for algebra in (ground_field_algebra(Q), dual_numbers(F3), matrix2(F5)):
        op = EndoOperad(algebra)
        for n in (1, 2, 3):
            keys = list(op.basis_keys(n))
            for key in rng.sample(keys, min(12, len(keys))):
                x = Element.basis(op, key)
                assert coboundary(x) == classical_coboundary(x), (algebra.name, key)


def test_classical_coboundary_squares_to_zero():
    op = EndoOperad(dual_numbers(F3))
    for degree in (0, 1, 2):
        for key in itertools.product(range(op.algebra.dim), repeat=degree + 1):
            x = Element.basis(op, key)
            assert classical_coboundary(classical_coboundary(x)).is_zero()


def test_cup_product_matches_odot():
    rng = random.Random(11)
    for algebra in (dual_numbers(F3), matrix2(F5)):
        op = EndoOperad(algebra)
        for _ in range(40):
            r = rng.randint(1, 2)
            s = rng.randint(1, 2)
            p = Element.basis(op, rng.choice(list(op.basis_keys(r))))
            q = Element.basis(op, rng.choice(list(op.basis_keys(s))))
            assert cup_product(p, q) == odot_product(p, q)


def test_bottom_face_uses_theta():
    op = EndoOperad(dual_numbers(Q))
    # face of an arity-1 map is theta of its value on the unit
    assert face(Element.basis(op, (0, 0)), 1) == op.unit_zero()
    assert face(Element.basis(op, (0, 1)), 1).is_zero()


# the dual numbers on the bases (x, 1) and (x, 2*1): the unit is not basis
# vector 0, and in the second its coordinate is not 1
REBASED_DUAL = (
    {"dim": 2, "unit": [0, 1], "mul": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]]},
    {"dim": 2, "unit": [0, "1/2"], "mul": [[[0, 0], [2, 0]], [[2, 0], [0, 2]]]},
)
DUAL_BETTI = {
    "boundary": ([0, 1, 0, 0, 0, 42], [0, 1, 2, 6, 10, 22]),
    "coboundary": ([1, 1, 1, 1, 1, 1], [0, 3, 4, 11, 20, 43]),
    "hochschild": ([2, 1, 1, 1, 1, 1], [0, 3, 4, 11, 20, 43]),
}


@pytest.mark.parametrize("field_label", ["q", "gfp:3", "gfp:5"])
def test_point_of_an_algebra_whose_unit_is_not_e0(field_label):
    field = get_field(field_label)
    operads = [EndoOperad(dual_numbers(field))]
    for data in REBASED_DUAL:
        algebra = algebra_from_json(data, field)
        unit, op = algebra.unit, EndoOperad(algebra)
        operads.append(op)
        point = op.unit_zero()
        # theta: the first nonzero unit coordinate, scaled so that theta(unit) = 1
        first = next(k for k, u in enumerate(unit) if not field.is_zero(u))
        theta = [field.inv(unit[first]) if k == first else field.zero for k in range(2)]
        for arity in (1, 2):
            for key in op.basis_keys(arity):
                inputs, out = key[:-1], key[-1]
                for slot in range(1, arity + 1):
                    # the slot input's unit coordinate, times theta(e_out) at arity 1
                    u = unit[inputs[slot - 1]]
                    if arity == 1:
                        expected = point.scale(field.mul(u, theta[out]))
                    else:
                        rest = inputs[: slot - 1] + inputs[slot:] + (out,)
                        expected = Element.basis(op, rest).scale(u)
                    assert compose(Element.basis(op, key), slot, point) == expected, (key, slot)
    for kind, (dims, ranks) in DUAL_BETTI.items():
        for operad in operads:
            report = betti(ComplexSpec(operad, kind, 0, 5))
            assert (report["dims"], report["ranks"]) == (dims, ranks), (kind, operad.label)


# the inverses of the documented input formats, read only by the tests


def algebra_to_json(alg):
    """The structure-constant JSON of ``algebra_from_json``."""
    f = alg.field
    return {
        "dim": alg.dim,
        "unit": [f.format(v) for v in alg.unit],
        "mul": [[[f.format(v) for v in row] for row in plane] for plane in alg.mul],
    }


def element_to_multimap(elem):
    """The dense multimap JSON of ``multimap_to_element``."""
    operad = elem.operad
    d = operad.algebra.dim
    f = operad.field
    if elem.arity == 0:
        vec = [f.zero] * d
        for key, coeff in elem.terms.items():
            if key == ():
                for t in range(d):
                    vec[t] = f.add(vec[t], f.mul(coeff, operad.algebra.unit[t]))
            else:
                vec[key[0]] = f.add(vec[key[0]], coeff)
        return {"arity": 0, "coeffs": [f.format(v) for v in vec]}
    return {
        "arity": elem.arity,
        "coeffs": [f.format(elem.terms.get(key, f.zero)) for key in operad.basis_keys(elem.arity)],
    }


def test_multimap_round_trip():
    op = EndoOperad(dual_numbers(Q))
    x = Element.basis(op, (0, 1, 1)) + Element.basis(op, (1, 0, 1)).scale(Q.from_int(-2))
    data = element_to_multimap(x)
    assert data["arity"] == 2
    assert len(data["coeffs"]) == 8
    back = multimap_to_element(op, data["arity"], data["coeffs"])
    assert back == x
    # arity 0 round-trips through the algebra-element encoding
    y = Element.basis(op, (1,)).scale(Q.from_int(3))
    data0 = element_to_multimap(y)
    assert data0 == {"arity": 0, "coeffs": ["0", "3"]}
    assert multimap_to_element(op, 0, data0["coeffs"]) == y


def test_multimap_arity_is_checked_before_the_power_is_built():
    op = EndoOperad(dual_numbers(Q))
    with pytest.raises(OperadError, match="^negative arity -2$"):
        multimap_to_element(op, -2, [1])
    # 2^100001 coefficients are refused without computing or printing the count
    with pytest.raises(OperadError, match=r"needs 2\^100001 coefficients, got 1$"):
        multimap_to_element(op, 100000, [1])
    # on either side of the bit-length test the count is still exact
    with pytest.raises(OperadError, match=r"needs 2\^3 coefficients, got 3$"):
        multimap_to_element(op, 2, [1] * 3)
    with pytest.raises(OperadError, match="needs 8 coefficients$"):
        multimap_to_element(op, 2, [1] * 4)
    assert multimap_to_element(op, 2, [1] + [0] * 7) == Element.basis(op, (0, 0, 0))
    # a one-dimensional algebra has one coefficient at every arity
    line = EndoOperad(ground_field_algebra(Q))
    assert multimap_to_element(line, 100000, [0]).is_zero()


def test_algebra_json_round_trip(tmp_path):
    algebra = dual_numbers(Q)
    data = algebra_to_json(algebra)
    again = algebra_from_json(data, Q, name="dual2")
    assert again.dim == 2
    assert again.unit == algebra.unit
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_algebra(f"@{path}", Q)
    assert loaded.dim == 2


def test_load_algebra_errors():
    with pytest.raises(OperadError):
        load_algebra("nope", Q)


def test_degree_zero_key_has_no_slot():
    op = EndoOperad(dual_numbers(Q))
    with pytest.raises(OperadError):
        compose(Element.basis(op, (0, 0)), 1, Element.basis(op, (1,)))

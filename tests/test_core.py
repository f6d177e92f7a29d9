"""Operad-level operations: gamma, faces, differentials, braces, coproduct."""

import random
from fractions import Fraction

import pytest

from operad_lab import (
    AssocOperad,
    Element,
    EndoOperad,
    OperadError,
    ScalarError,
    ShiftOperad,
    aw_coproduct,
    block_sign_exponent,
    boundary,
    brace,
    coboundary,
    compose,
    counit,
    degeneracy,
    dot_product,
    face,
    gamma,
    get_field,
    multi_degeneracy,
    multi_face,
    odot_product,
    power_sign,
    subset_restriction,
)
from operad_lab.assoc import compose_formula, delete_and_standardize
from operad_lab.core import random_element
from operad_lab.cli import make_operad
from operad_lab.endo import algebra_from_json, dual_numbers
from operad_lab.serialize import dumps, element_to_json
from operad_lab.shift import compose_shift

Q = get_field("q")
ASSOC = AssocOperad(Q)
SHIFT = ShiftOperad(Q, max_entry=12)


def B(word):
    return Element.basis(ASSOC, tuple(word))


def test_compose_is_bilinear():
    x = B((1, 2)) + B((2, 1)).scale(Q.from_int(2))
    y = B((1,)).scale(Q.from_int(3))
    out = compose(x, 1, y)
    assert out == B((1, 2)).scale(Q.from_int(3)) + B((2, 1)).scale(Q.from_int(6))


def test_gamma_right_to_left_matches_manual_partials():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 3)
        x = random_element(ASSOC, n, rng)
        blocks = [random_element(ASSOC, rng.randint(0, 2), rng) for _ in range(n)]
        acc = x
        for slot in range(n, 0, -1):
            acc = compose(acc, slot, blocks[slot - 1])
        assert gamma(x, blocks) == acc


def test_gamma_arity_mismatch():
    with pytest.raises(OperadError):
        gamma(B((1, 2)), [B((1,))])


def test_face_values():
    x = B((4, 3, 1, 2))
    assert face(x, 1) == B((3, 1, 2))
    assert face(x, 2) == B((3, 1, 2))
    assert face(x, 3) == B((3, 2, 1))
    assert face(x, 4) == B((3, 2, 1))
    with pytest.raises(OperadError):
        face(x, 5)
    with pytest.raises(OperadError):
        face(ASSOC.unit_zero(), 1)


def test_degeneracy_values():
    assert degeneracy(B((2, 1)), 1) == B((2, 3, 1))
    assert degeneracy(B((2, 1)), 2) == B((3, 1, 2))
    # on arity 0 the map sends the point to the operad unit
    assert degeneracy(ASSOC.unit_zero().scale(Q.from_int(5)), 0) == ASSOC.unit_one().scale(Q.from_int(5))
    assert degeneracy(ASSOC.unit_one(), 1) == ASSOC.multiplication()


def test_boundary_values():
    assert boundary(B((4, 3, 1, 2))).is_zero()
    assert boundary(B((2, 1))).is_zero()
    assert boundary(ASSOC.unit_one()) == ASSOC.unit_zero().scale(Q.from_int(-1))
    assert boundary(ASSOC.unit_zero()).is_zero()
    # first nonzero example in arity 3
    x = B((3, 1, 2))
    assert boundary(x) == B((1, 2)).scale(Q.from_int(-1)) + B((2, 1)) + B((2, 1)).scale(Q.from_int(-1))


def test_coboundary_values():
    assert coboundary(ASSOC.unit_one()) == ASSOC.multiplication()
    assert coboundary(ASSOC.multiplication()).is_zero()
    assert coboundary(ASSOC.unit_zero()).is_zero()
    d21 = coboundary(B((2, 1)))
    expected = (
        B((1, 3, 2))
        + B((2, 1, 3)).scale(Q.from_int(-1))
        + B((2, 3, 1)).scale(Q.from_int(-1))
        + B((3, 1, 2))
    )
    assert d21 == expected


def test_subset_restriction_golden_and_matches_faces():
    x = B((4, 3, 1, 2))
    assert subset_restriction(x, {1, 2}) == B((2, 1))
    assert subset_restriction(x, {1, 2, 3, 4}) == x
    assert subset_restriction(x, set()) == ASSOC.unit_zero()
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        y = random_element(ASSOC, n, rng)
        keep = {i for i in range(1, n + 1) if rng.random() < 0.5}
        out = y
        for pos in sorted(set(range(1, n + 1)) - keep, reverse=True):
            out = face(out, pos)
        assert subset_restriction(y, keep) == out


def test_brace_single_unit_argument_gives_signed_boundary():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = random_element(ASSOC, n, rng)
        lhs = brace(p, [ASSOC.unit_zero()])
        rhs = boundary(p).scale(power_sign(Q, n))
        assert lhs == rhs


def test_brace_of_multiplication():
    m = ASSOC.multiplication()
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(1, 4)
        f = random_element(ASSOC, k, rng)
        lhs = brace(m, [f])
        rhs = compose(m, 1, f).scale(power_sign(Q, k - 1)) + compose(m, 2, f)
        assert lhs == rhs


def test_brace_against_coboundary_terms():
    # inserting m into every slot of f, with alternating signs
    rng = random.Random(10)
    m = ASSOC.multiplication()
    for _ in range(40):
        k = rng.randint(1, 4)
        f = random_element(ASSOC, k, rng)
        lhs = brace(f, [m]).scale(power_sign(Q, k))
        rhs = Element.zero(ASSOC, k + 1)
        for i in range(1, k + 1):
            rhs = rhs + compose(f, i, m).scale(power_sign(Q, i))
        assert lhs == rhs


def test_brace_multi_argument_golden():
    m = ASSOC.multiplication()
    one = ASSOC.unit_one()
    # m{1,1} fills both slots: only the identity insertion survives
    assert brace(m, [one, one]) == m
    # arguments exceeding the slot count is an error
    with pytest.raises(OperadError):
        brace(one, [m, m])


def test_a_zero_input_gives_zero_of_the_result_arity():
    # the CLI tests time the same on an arity of 10^8, in a subprocess
    m, one = ASSOC.multiplication(), ASSOC.unit_one()
    zero = Element.zero(ASSOC, 3)
    assert boundary(zero) == Element.zero(ASSOC, 2)
    assert coboundary(zero) == Element.zero(ASSOC, 4)
    assert brace(zero, [m, one]) == Element.zero(ASSOC, 4)
    assert brace(m, [Element.zero(ASSOC, 2)]) == Element.zero(ASSOC, 3)
    assert brace(m, [one, Element.zero(ASSOC, 0)]) == Element.zero(ASSOC, 1)
    # no arguments gives p itself, and too many are refused, zero or not
    assert brace(zero, []) is zero
    with pytest.raises(OperadError, match=r"^brace needs at most deg\(p\)=3 arguments, got 4$"):
        brace(zero, [one] * 4)


def test_dot_and_odot():
    p, q = B((1, 2)), B((2, 1))
    assert odot_product(p, q) == B((1, 2, 4, 3))
    assert dot_product(p, q) == B((1, 2, 4, 3))
    one = ASSOC.unit_one()
    assert odot_product(one, one) == B((1, 2))
    rng = random.Random(12)
    for _ in range(60):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        x = random_element(ASSOC, r, rng)
        y = random_element(ASSOC, s, rng)
        assert dot_product(x, y) == odot_product(x, y).scale(power_sign(Q, r * s))


def test_aw_coproduct_golden():
    pairs = aw_coproduct(B((3, 1, 2, 4)))
    flat = [
        (tuple(sorted(l.terms)), tuple(sorted(r.terms)))
        for l, r in pairs
    ]
    assert flat == [
        (((),), ((3, 1, 2, 4),)),
        (((1,),), ((1, 2, 3),)),
        (((2, 1),), ((1, 2),)),
        (((3, 1, 2),), ((1,),)),
        (((3, 1, 2, 4),), ((),)),
    ]
    for left, right in pairs:
        for coeff in list(left.terms.values()) + list(right.terms.values()):
            assert coeff == Q.one


def test_aw_coproduct_scales_once():
    x = B((2, 1)).scale(Q.from_int(3))
    pairs = aw_coproduct(x)
    # the weight rides on the left factor only, once per pair
    for left, right in pairs:
        total = Q.zero
        for cl in left.terms.values():
            for cr in right.terms.values():
                total = Q.add(total, Q.mul(cl, cr))
        assert total == Q.from_int(3)


def test_aw_coproduct_arity_zero():
    pairs = aw_coproduct(ASSOC.unit_zero().scale(Q.from_int(2)))
    assert len(pairs) == 1
    left, right = pairs[0]
    assert left == ASSOC.unit_zero().scale(Q.from_int(2))
    assert right == ASSOC.unit_zero()


def test_fraction_coefficients_equal_their_int_twins():
    """Over Q an integral coefficient may be an int or an integral Fraction;
    an Element cannot tell the two apart, in value, hash or output."""
    for op in (ASSOC, SHIFT, EndoOperad(dual_numbers(Q))):
        x = random_element(op, 3, random.Random(op.label), max_terms=4)
        assert x.terms and all(type(c) is int for c in x.terms.values())
        twin = Element(op, 3, [(k, Fraction(c)) for k, c in x.terms.items()])
        assert all(type(c) is Fraction for c in twin.terms.values())
        assert twin == x and hash(twin) == hash(x)
        assert twin.format() == x.format()
        assert dumps(element_to_json(twin)) == dumps(element_to_json(x))


def test_public_coefficients_are_stored_as_field_scalars():
    """``Element(...)`` stores an int over gfp:p reduced into [0, p), so
    -1 and 4 give equal elements with equal hashes, and refuses a float or
    a bool, which are not exact scalars of any field."""
    F5 = get_field("gfp:5")
    op = AssocOperad(F5)
    minus = Element(op, 2, {(1, 2): -1})
    assert minus.terms == {(1, 2): 4} and type(minus.terms[(1, 2)]) is int
    assert minus == -Element.basis(op, (1, 2)) and hash(minus) == hash(-Element.basis(op, (1, 2)))
    assert Element(op, 2, [((1, 2), 6), ((2, 1), 5)]) == Element.basis(op, (1, 2))
    assert Element(op, 2, {(1, 2): 0}).is_zero() and Element(op, 2, {(9, 9): 10}).is_zero()
    for field in (Q, F5):
        op = AssocOperad(field)
        for bad in (0.5, 1.0, 0.0, True, False):
            with pytest.raises(ScalarError, match=f"got {bad!r}$"):
                Element(op, 2, {(1, 2): bad})
    half = Element(ASSOC, 2, {(1, 2): Fraction(1, 2)})
    assert half.terms == {(1, 2): Fraction(1, 2)} and type(half.terms[(1, 2)]) is Fraction


def _quadratic_aw_coproduct(x):
    """The coproduct with every chain rebuilt from scratch: n(n-1) faces per
    term.  Oracle for the linear chains of ``aw_coproduct``."""
    operad = x.operad
    point = operad.unit_zero()
    n = x.arity
    if n == 0:
        return [(x, point)]
    pairs = []
    for key, coeff in x.sorted_terms():
        weighted = Element._sum(operad, n, [(key, coeff)])
        plain = Element._sum(operad, n, [(key, operad.field.one)])
        pairs.append((point.scale(coeff), plain))
        for j in range(1, n):
            left = weighted
            for a in range(n, j, -1):
                left = face(left, a)
            right = plain
            for _ in range(j):
                right = face(right, 1)
            pairs.append((left, right))
        pairs.append((weighted, point))
    return pairs


def _signed_sum(operad, arity, signed):
    """Sum (odd, element) pairs, negating the odd ones."""
    neg = operad.field.neg
    return Element._sum(operad, arity, [
        (key, neg(c) if odd else c) for odd, x in signed for key, c in x.terms.items()
    ])


def summed_boundary(x):
    """The boundary as the alternating sum of the faces, each built by
    ``compose``.  Oracle for ``boundary`` and for the key-by-key boundary
    columns built from it."""
    if x.arity == 0:
        return Element.zero(x.operad, 0)
    return _signed_sum(
        x.operad, x.arity - 1, [(i % 2, face(x, i)) for i in range(1, x.arity + 1)]
    )


def summed_coboundary(x):
    """The coboundary as the signed sum of m o_1 x, m o_2 x and every
    x o_i m, each built by ``compose``.  Oracle for ``coboundary`` and for
    the key-by-key coboundary columns built from it."""
    operad = x.operad
    if x.arity == 0:
        return Element.zero(operad, 1)
    m = operad.multiplication()
    n = x.arity
    signed = [((n - 1) % 2, compose(m, 1, x)), (0, compose(m, 2, x))]
    signed += [(i % 2, compose(x, i, m)) for i in range(1, n + 1)]
    return _signed_sum(operad, n + 1, signed)


# the CI's structure-constant file: T_2, whose unit e11 + e22 is not basis vector 0
T2_JSON = {"dim": 3, "unit": [1, 0, 1], "mul": [
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
]}


def _differential_cases(field):
    """Each operad with the top arity up to which every key is checked."""
    return [
        (AssocOperad(field), 5),
        (ShiftOperad(field, max_entry=8), 5),
        (make_operad("endo:k", field), 4),
        (make_operad("endo:dual", field), 4),
        (make_operad("endo:m2", field), 3),
        (EndoOperad(algebra_from_json(T2_JSON, field, "t2")), 4),
    ]


def _agree(x, fast, slow):
    assert fast == slow, x
    # the same values of the same types: ints over q
    assert sorted((k, type(v)) for k, v in fast.terms.items()) == sorted(
        (k, type(v)) for k, v in slow.terms.items()), x


@pytest.mark.parametrize("label", ["q", "gfp:2", "gfp:3"])
def test_differentials_match_the_compose_and_sum_oracle(label):
    field = get_field(label)
    rng = random.Random(f"differentials:{label}")
    coeffs = [field.from_int(c) for c in (2, -3, 4)]
    if label == "q":
        coeffs.append(Fraction(1, 2))
    for operad, top in _differential_cases(field):
        for n in range(top + 1):
            for key in operad.basis_keys(n):
                x = Element.basis(operad, key)
                _agree(x, boundary(x), summed_boundary(x))
                _agree(x, coboundary(x), summed_coboundary(x))
            for _ in range(3):
                # several keys (repeats merge), whose terms may cancel across keys
                x = Element._sum(operad, n, [(operad.random_basis(n, rng), c) for c in coeffs])
                _agree(x, boundary(x), summed_boundary(x))
                _agree(x, coboundary(x), summed_coboundary(x))


def _constant_operads(field):
    return [AssocOperad(field), ShiftOperad(field, max_entry=12),
            EndoOperad(dual_numbers(field))]


@pytest.mark.parametrize("label", ["q", "gfp:5"])
def test_aw_coproduct_matches_quadratic_chains(label):
    field = get_field(label)
    rng = random.Random(f"aw:{label}")
    for operad in _constant_operads(field):
        for n in range(6):
            for _ in range(3):
                # three keys (repeats merge) with coefficients 2, -3 and 4
                x = Element._sum(operad, n, [
                    (operad.random_basis(n, rng), field.from_int(c)) for c in (2, -3, 4)
                ])
                fast, slow = aw_coproduct(x), _quadratic_aw_coproduct(x)
                assert len(fast) == len(slow) == (len(x.terms) * (n + 1) if n else 1)
                for (fl, fr), (sl, sr) in zip(fast, slow):
                    assert (fl, fr) == (sl, sr)
                    assert list(fl.terms.items()) == list(sl.terms.items())
                    assert list(fr.terms.items()) == list(sr.terms.items())


def fresh_point_and_product(operad):
    """The point and the product built from scratch, never shared."""
    one = operad.field.one
    if isinstance(operad, EndoOperad):
        mul, d = operad.algebra.mul, range(operad.algebra.dim)
        product = [((a, b, m), mul[a][b][m]) for a in d for b in d for m in d]
    else:
        product = [((1, 2), one)]
    return Element._sum(operad, 0, [((), one)]), Element._sum(operad, 2, product)


@pytest.mark.parametrize("operad", _constant_operads(Q), ids=lambda op: op.label)
def test_point_and_product_are_built_once(operad):
    point, product = operad.unit_zero(), operad.multiplication()
    assert operad.unit_zero() is point and operad.multiplication() is product
    assert (point, product) == fresh_point_and_product(operad)


def _dual_signature():
    one, zero = Fraction(1), Fraction(0)
    return ("algebra", "dual", ("rational",), 2, (one, zero),
            (((one, zero), (zero, one)), ((zero, one), (zero, zero))))


@pytest.mark.parametrize("operad,signature", [
    (AssocOperad(Q), ("assoc", ("rational",))),
    (ShiftOperad(Q, max_entry=12), ("shift", ("rational",))),
    (EndoOperad(dual_numbers(Q)), ("endo", _dual_signature())),
], ids=["assoc", "shift", "endo:dual"])
def test_compose_domain_errors_and_signature(operad, signature):
    # the instances check no slot of their own: core.compose does, once
    point, one, product = operad.unit_zero(), operad.unit_one(), operad.multiplication()
    with pytest.raises(OperadError, match="^arity-0 element has no composition slots$"):
        compose(point, 1, one)
    for i in (0, 3):
        with pytest.raises(OperadError, match=f"^slot {i} out of range for arity 2$"):
            compose(product, i, one)
    assert operad.signature() == signature


@pytest.mark.parametrize("operad", [
    AssocOperad(Q), ShiftOperad(Q, max_entry=7), EndoOperad(dual_numbers(Q)),
], ids=lambda op: op.label)
def test_compose_basis_matches_the_checked_helpers(operad):
    # compose_basis runs unchecked key-level bodies; on every key up to arity
    # 5, every slot, and the point and the product, it agrees with the
    # checked entry points: assoc's and shift's public helpers, and for endo
    # (which has no key-level helper) core.compose on basis elements
    one = operad.field.one
    inserted = [()] + list(operad.multiplication().terms)
    for n in range(1, 6):
        for key in operad.basis_keys(n):
            for i in range(1, n + 1):
                for other in inserted:
                    got = operad.compose_basis(key, i, other)
                    if isinstance(operad, AssocOperad):
                        word = compose_formula(key, i, other) if other else \
                            delete_and_standardize(key, i)
                        assert got == [(word, one)]
                    elif isinstance(operad, ShiftOperad):
                        assert got == [(compose_shift(key, i, other), one)]
                    else:
                        x, y = (Element.basis(operad, k) for k in (key, other))
                        assert dict(got) == compose(x, i, y).terms


def test_compose_across_instances_with_equal_signatures():
    other = AssocOperad(get_field("q"))
    assert other is not ASSOC
    x, y = B((2, 1)), Element.basis(other, (1, 2))
    assert compose(x, 1, y) == B((2, 3, 1))
    assert compose(y, 2, x) == B((1, 3, 2))
    assert brace(x, [y]) == brace(x, [B((1, 2))])
    mixed = Element.basis(AssocOperad(get_field("gfp:5")), (1, 2))
    with pytest.raises(OperadError, match="mixed operads"):
        compose(x, 1, mixed)
    # brace refuses a mixed argument in any position, through compose
    for args in ([mixed], [y, mixed], [mixed, y]):
        with pytest.raises(OperadError, match="mixed operads"):
            brace(x, args)


def test_counit():
    assert counit(ASSOC.unit_zero()) == Q.one
    assert counit(ASSOC.unit_zero().scale(Q.from_int(7))) == Q.from_int(7)
    assert counit(B((2, 1))) == Q.zero
    # an endomorphism element of arity 0 keyed (j,) is a degree-0 Hochschild
    # cochain, not a point: counit, degeneracy, the two differentials and the
    # coproduct refuse it as compose does
    endo = EndoOperad(dual_numbers(Q))
    assert counit(endo.unit_zero()) == Q.one
    for keys in ([(0,)], [(), (1,)]):
        x = Element(endo, 0, [(key, Q.one) for key in keys])
        for op in (counit, lambda e: degeneracy(e, 1), lambda e: compose(endo.unit_one(), 1, e),
                   boundary, coboundary, aw_coproduct):
            with pytest.raises(OperadError, match=r"degree-0 key \(\d,\) carries no operadic"):
                op(x)


def test_multi_face_golden():
    x = B((4, 3, 1, 2))
    assert multi_face(x, [1, 1], [2, 2]) == B((2, 1))
    assert multi_face(x, [1], [4]) == face(x, 1)
    with pytest.raises(OperadError):
        multi_face(x, [1, 3], [2, 2])
    with pytest.raises(OperadError):
        multi_face(x, [1, 1], [2, 3])


def test_multi_degeneracy_golden():
    x = Element.basis(SHIFT, (1, 3))
    assert multi_degeneracy(x, [1], [2]) == Element.basis(SHIFT, (1, 2, 4))
    y = B((2, 1))
    assert multi_degeneracy(y, [1], [2]) == degeneracy(y, 1)
    # blocks of arity 1 each: global positions 1 and 2, applied high-to-low
    assert multi_degeneracy(y, [1, 1], [1, 1]) == degeneracy(degeneracy(y, 2), 1)
    with pytest.raises(OperadError):
        multi_degeneracy(y, [1, 2], [1, 1])


def test_block_sign_exponent():
    assert block_sign_exponent([1]) == 0
    assert block_sign_exponent([2, 2]) == 2
    assert block_sign_exponent([3, 1, 2]) == 3 * 2 + 1 * 1


def test_random_element_is_deterministic():
    a = random_element(ASSOC, 4, random.Random(99))
    b = random_element(ASSOC, 4, random.Random(99))
    assert a == b

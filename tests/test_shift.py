"""Shift operad on strictly increasing tuples."""

import itertools
import random

import pytest

from operad_lab import Element, OperadError, ShiftOperad, degeneracy, face, get_field
from operad_lab.shift import _splice, compose_shift, gamma_shift, is_increasing

Q = get_field("q")
SHIFT = ShiftOperad(Q, max_entry=12)


def test_is_increasing():
    assert is_increasing((1, 3, 7))
    assert is_increasing(())
    assert not is_increasing((1, 1))
    assert not is_increasing((0, 2))
    assert not is_increasing((3, 2))


def _two_pass_is_increasing(key):
    """Reference form of the key test: every step rises and every entry is
    positive."""
    return all(a < b for a, b in zip(key, key[1:])) and all(a >= 1 for a in key)


@pytest.mark.parametrize("key", [(), (0,), (1,), (1, 1), (-1, 2), (3, 2), (1, 2, 2)])
def test_is_increasing_matches_two_pass_form(key):
    assert is_increasing(key) == _two_pass_is_increasing(key)


def _concatenated_splice(x, i, y):
    """Reference form of ``_splice``: the prefix, the translated inner key
    and the pushed-up tail, each built as a tuple and concatenated."""
    prefix = x[: i - 1]
    if len(y) == 0:
        body = ()
        tail_offset = -1
    else:
        offset = x[i - 1] - 1
        body = tuple(a + offset for a in y)
        tail_offset = y[-1] - 1
    tail = tuple(a + tail_offset for a in x[i:])
    out = prefix + body + tail
    if not is_increasing(out):
        raise OperadError(f"non-increasing result {out!r} from {x!r} o_{i} {y!r}")
    return out


def _outcome(splice, x, i, y):
    try:
        return splice(x, i, y)
    except OperadError as exc:
        return str(exc)


def test_splice_matches_its_concatenated_form():
    # every key of max-entry 7 up to arity 4, and some that are not
    # increasing, in every slot, with every inner key of arity 0..3 whose
    # entries are below 5, increasing or not
    outer = [key for n in range(1, 5) for key in itertools.combinations(range(1, 8), n)]
    outer += [(3, 2), (2, 2), (0, 1), (1, 3, 3)]
    inner = [key for n in range(4) for key in itertools.product(range(5), repeat=n)]
    refused = 0
    for x in outer:
        for i in range(1, len(x) + 1):
            for y in inner:
                want = _outcome(_concatenated_splice, x, i, y)
                assert _outcome(_splice, x, i, y) == want, (x, i, y)
                refused += isinstance(want, str)
    assert refused > 0


def test_compose_goldens():
    assert compose_shift((1, 2), 1, (1, 2)) == (1, 2, 3)
    assert compose_shift((1, 2), 2, (1, 2)) == (1, 2, 3)
    assert compose_shift((2, 5), 1, ()) == (4,)
    assert compose_shift((2, 5), 2, ()) == (2,)
    assert compose_shift((1, 3, 4), 2, (2, 3)) == (1, 4, 5, 6)


def test_compose_rejects_invalid_keys():
    # under python -O an assert here used to let (0, 1, 2) through
    with pytest.raises(OperadError, match="non-increasing"):
        compose_shift((1, 2), 1, (0, 1))
    with pytest.raises(OperadError, match="non-increasing"):
        compose_shift((0, 5), 1, (1, 2))
    with pytest.raises(OperadError, match="non-increasing"):
        gamma_shift((1, 2), [(2, 1), (1,)])


def test_compose_unit_laws():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        key = tuple(sorted(rng.sample(range(1, 13), n)))
        for slot in range(1, n + 1):
            assert compose_shift(key, slot, (1,)) == key
        assert compose_shift((1,), 1, key) == key


def test_operad_axioms_on_positive_arities():
    rng = random.Random(3)
    for _ in range(300):
        n, l, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        f = tuple(sorted(rng.sample(range(1, 9), n)))
        g = tuple(sorted(rng.sample(range(1, 9), l)))
        h = tuple(sorted(rng.sample(range(1, 9), k)))
        i = rng.randint(1, n)
        j = rng.randint(1, l)
        nested_lhs = compose_shift(compose_shift(f, i, g), j + i - 1, h)
        nested_rhs = compose_shift(f, i, compose_shift(g, j, h))
        assert nested_lhs == nested_rhs
        if n >= 2:
            i2 = rng.randint(1, n - 1)
            j2 = rng.randint(i2 + 1, n)
            swap_lhs = compose_shift(compose_shift(f, i2, g), j2 + l - 1, h)
            swap_rhs = compose_shift(compose_shift(f, j2, h), i2, g)
            assert swap_lhs == swap_rhs


def test_axiom_with_point_fails():
    # the known defect: nested composition with the arity-0 point at a later
    # slot is order-sensitive, e.g. for f = (1,3) inside the product:
    lhs = compose_shift(compose_shift((1, 2), 1, (1, 3)), 2, ())
    rhs = compose_shift((1, 2), 1, compose_shift((1, 3), 2, ()))
    assert lhs == (1, 3)
    assert rhs == (1, 2)
    assert lhs != rhs


def test_gamma_closed_form_matches_iteration():
    block_keys = [()]
    for t in (1, 2):
        block_keys.extend(itertools.combinations(range(1, 5), t))
    for n in (1, 2):
        for key in itertools.combinations(range(1, 6), n):
            for blocks in itertools.product(block_keys, repeat=n):
                expect = gamma_shift(key, list(blocks))
                acc = key
                # iterate right to left so earlier slots are undisturbed
                for slot in range(n, 0, -1):
                    acc = compose_shift(acc, slot, blocks[slot - 1])
                assert acc == expect, (key, blocks)


def test_face_degeneracy_goldens():
    # a face deletes entry i and pulls the tail down by one; a degeneracy
    # duplicates entry i, shifted up, and pushes the tail up by one
    key = Element.basis(SHIFT, (2, 5, 7))
    assert face(key, 1) == Element.basis(SHIFT, (4, 6))
    assert face(key, 2) == Element.basis(SHIFT, (2, 6))
    assert face(key, 3) == Element.basis(SHIFT, (2, 5))
    pair = Element.basis(SHIFT, (1, 3))
    assert degeneracy(pair, 1) == Element.basis(SHIFT, (1, 2, 4))
    assert degeneracy(pair, 2) == Element.basis(SHIFT, (1, 3, 4))


def test_operad_interface():
    assert SHIFT.label == "shift"
    assert SHIFT.unit_one() == Element.basis(SHIFT, (1,))
    assert SHIFT.multiplication() == Element.basis(SHIFT, (1, 2))
    assert SHIFT.dimension(2) == 66
    keys = list(SHIFT.basis_keys(2))
    assert len(keys) == 66
    assert all(is_increasing(k) and len(k) == 2 for k in keys)
    with pytest.raises(OperadError):
        SHIFT.validate_basis((3, 2), 2)
    with pytest.raises(OperadError):
        SHIFT.validate_basis((0, 1), 2)


@pytest.mark.parametrize("max_entry", [2.5, 8.0, True, "8"])
def test_construction_refuses_a_max_entry_that_is_not_an_int(max_entry):
    # refused by name at construction, not by a TypeError on first use; a
    # bool is not an int here
    with pytest.raises(OperadError, match=f"^max_entry must be an int, got {max_entry!r}$"):
        ShiftOperad(Q, max_entry)


def test_parse_and_format():
    assert SHIFT.parse_basis("1,3,4") == (1, 3, 4)
    assert SHIFT.parse_basis("(1,3,4)") == (1, 3, 4)
    assert SHIFT.parse_basis("()") == ()
    assert SHIFT.format_basis((1, 3)) == "(1,3)"
    assert SHIFT.format_basis(()) == "()"
    with pytest.raises(OperadError):
        SHIFT.parse_basis("3,1")

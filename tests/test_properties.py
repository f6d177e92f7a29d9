"""Property tests on random basis keys, run when hypothesis is installed.

Text and JSON round trips for keys and elements of all three operads, and
the closed-form assoc face against delete-then-standardize.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from operad_lab import (
    AssocOperad,
    Element,
    EndoOperad,
    ShiftOperad,
    element_from_json,
    element_to_json,
    get_field,
)
from operad_lab.assoc import delete_and_standardize, standardize
from operad_lab.endo import dual_numbers, matrix2

Q = get_field("q")
F5 = get_field("gfp:5")
OPERADS = {
    "assoc": AssocOperad(F5),
    "shift": ShiftOperad(F5),
    "endo:dual": EndoOperad(dual_numbers(Q)),
    "endo:m2": EndoOperad(matrix2(F5)),
}
MAX_ARITY = {"assoc": 10, "shift": 9, "endo:dual": 5, "endo:m2": 4}
PROPERTY = settings(max_examples=150, deadline=None)


def keys_of_arity(label, n):
    if label == "assoc":
        return st.permutations(range(1, n + 1)).map(tuple)
    if label == "shift":
        return st.sets(st.integers(1, 40), min_size=n, max_size=n).map(
            lambda s: tuple(sorted(s))
        )
    dim = OPERADS[label].algebra.dim
    if n == 0:
        # the point, or an algebra element of the classical degree 0
        return st.sampled_from([()] + [(j,) for j in range(dim)])
    return st.lists(st.integers(0, dim - 1), min_size=n + 1, max_size=n + 1).map(tuple)


def arities(label):
    return st.integers(0, MAX_ARITY[label])


def keys(label):
    return arities(label).flatmap(lambda n: keys_of_arity(label, n))


def elements(label):
    op = OPERADS[label]
    coeffs = st.integers(-6, 6).map(op.field.from_int)
    return arities(label).flatmap(
        lambda n: st.lists(st.tuples(keys_of_arity(label, n), coeffs), max_size=4).map(
            lambda pairs: Element(op, n, pairs)
        )
    )


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_parse_format_and_json_round_trip_keys(label):
    op = OPERADS[label]

    @PROPERTY
    @given(keys(label))
    def check(key):
        assert op.parse_basis(op.format_basis(key)) == key
        assert op.basis_from_json(op.basis_to_json(key)) == key

    check()


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_element_json_round_trip(label):
    op = OPERADS[label]

    @PROPERTY
    @given(elements(label))
    def check(x):
        assert element_from_json(element_to_json(x), op) == x

    check()


@PROPERTY
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(keys_of_arity("assoc", n), st.integers(1, n))
))
def test_closed_form_face_matches_standardize(case):
    word, i = case
    assert delete_and_standardize(word, i) == standardize(word[: i - 1] + word[i:])

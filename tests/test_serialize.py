"""JSON round-trips for elements and the canonical dump format."""

import json
from fractions import Fraction

import pytest

from operad_lab import (
    AssocOperad,
    Element,
    EndoOperad,
    OperadError,
    ShiftOperad,
    aw_coproduct,
    element_from_json,
    element_to_json,
    get_field,
)
from operad_lab.elements import json_int, read_json
from operad_lab.endo import dual_numbers
from operad_lab.serialize import dumps, pairs_to_json

Q = get_field("q")
F3 = get_field("gfp:3")


def roundtrip(x):
    return element_from_json(element_to_json(x), x.operad)


def test_assoc_roundtrip():
    op = AssocOperad(Q)
    x = Element.basis(op, (2, 1, 3)).scale(Q.parse("2/3")) - Element.basis(op, (1, 2, 3))
    data = element_to_json(x)
    assert data["operad"] == "assoc"
    assert data["arity"] == 3
    assert data["terms"] == [
        {"basis": [1, 2, 3], "coeff": "-1"},
        {"basis": [2, 1, 3], "coeff": "2/3"},
    ]
    assert roundtrip(x) == x


def test_shift_roundtrip():
    op = ShiftOperad(Q, max_entry=9)
    x = Element.basis(op, (2, 5, 7)) + Element.basis(op, (1, 3, 4)).scale(Q.parse("-4"))
    assert roundtrip(x) == x


def test_endo_roundtrip_including_nullary():
    op = EndoOperad(dual_numbers(F3))
    x = Element.basis(op, (0, 1, 1)) + Element.basis(op, (1, 0, 1)).scale(F3.parse("2"))
    assert roundtrip(x) == x
    point = Element.basis(op, ()).scale(F3.parse("2"))
    data = element_to_json(point)
    assert data["arity"] == 0
    assert data["terms"] == [{"basis": [], "coeff": "2 mod 3"}]
    assert roundtrip(point) == point


def test_zero_element_has_no_terms():
    op = AssocOperad(Q)
    data = element_to_json(Element.zero(op, 2))
    assert data["terms"] == []
    assert element_from_json(data, op).is_zero()


def test_integer_coefficients_accepted():
    op = AssocOperad(Q)
    data = {"arity": 2, "terms": [{"basis": [2, 1], "coeff": 5}]}
    x = element_from_json(data, op)
    assert x == Element.basis(op, (2, 1)).scale(Q.from_int(5))


def test_duplicate_terms_merge():
    op = AssocOperad(Q)
    data = {
        "arity": 1,
        "terms": [
            {"basis": [1], "coeff": "2"},
            {"basis": [1], "coeff": "-2"},
        ],
    }
    assert element_from_json(data, op).is_zero()


def test_label_mismatch_and_malformed_input():
    op = AssocOperad(Q)
    good = element_to_json(Element.basis(op, (1, 2)))
    with pytest.raises(OperadError):
        element_from_json(good, ShiftOperad(Q, max_entry=9))
    with pytest.raises(OperadError):
        element_from_json({"terms": []}, op)
    with pytest.raises(OperadError):
        element_from_json([1, 2], op)
    with pytest.raises(OperadError):
        element_from_json({"arity": 2, "terms": [{"basis": [1, 2, 3], "coeff": "1"}]}, op)


def test_json_integer_too_long_to_convert_is_one_domain_error():
    # json turns a digit run into an int, which stops at the interpreter's
    # digit limit (4300 by default) with a bare ValueError
    long_int = "1" + "0" * 5000
    for text in (long_int, '{"arity":2,"terms":[{"basis":[1,2],"coeff":%s}]}' % long_int):
        with pytest.raises(OperadError):
            read_json(text)
    assert read_json("1" + "0" * 100) == 10**100


def test_json_is_read_to_one_fixed_depth():
    # the program's own limit, whatever the interpreter's parser reaches:
    # 512 levels are read and 513 refused, and a bracket in a string is no level
    for opening, leaf, closing in (("[", "", "]"), ('{"a":', "0", "}")):
        text = opening * 512 + leaf + closing * 512
        assert read_json(text) == json.loads(text)
        with pytest.raises(OperadError, match="^JSON nested too deeply to read$"):
            read_json(opening * 513 + leaf + closing * 513)
    assert read_json('["' + "[" * 600 + '\\"{"]') == ["[" * 600 + '"{']


def test_number_literals_are_read_as_written():
    # a coefficient literal is parsed from its own text, not from a float,
    # and an integral literal is an integer, exactly, up to the digit limit
    op = AssocOperad(Q)
    data = read_json('{"arity":1.0,"terms":[{"basis":[1e0],"coeff":0.30000000000000001}]}')
    assert element_from_json(data, op).terms == {(1,): Fraction(30000000000000001, 10**17)}
    assert [json_int(read_json(text), "n") for text in ("2.0", "1e5", "-0.0", "1e23", "1.5e1")] == [
        2, 100000, 0, 10**23, 15]
    for text in ("2.9", "1e-5", "1e-99999999999999999999"):
        with pytest.raises(OperadError, match=f"^n must be an integer, got {text}$"):
            json_int(read_json(text), "n")
    for text in ("1e4300", "1e99999999", "1e99999999999999999999"):
        with pytest.raises(OperadError, match="^a JSON integer has more than 4300 digits"):
            json_int(read_json(text), "n")


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2, {"z": 0, "y": None}]})
    assert text == '{"a":[2,{"y":null,"z":0}],"b":1}\n'
    assert dumps({"a": 1}) == dumps({"a": 1})
    assert json.loads(text) == {"b": 1, "a": [2, {"z": 0, "y": None}]}


def test_pairs_to_json_shape():
    op = AssocOperad(Q)
    pairs = aw_coproduct(Element.basis(op, (2, 1)))
    data = pairs_to_json(pairs)
    assert len(data) == 3
    for entry in data:
        assert set(entry) == {"left", "right"}
        assert entry["left"]["operad"] == "assoc"
    assert data[0]["right"]["terms"] == [{"basis": [2, 1], "coeff": "1"}]

"""Library JSON outputs validate against the published schemas."""

import json
import pathlib

import jsonschema
import pytest

from operad_lab import (
    AssocOperad,
    ComplexSpec,
    Element,
    EndoOperad,
    ShiftOperad,
    betti,
    element_to_json,
    get_field,
)
from operad_lab.endo import dual_numbers, matrix2
from operad_lab.verify import run_verify
from test_endo import algebra_to_json, element_to_multimap

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"

Q = get_field("q")
F3 = get_field("gfp:3")


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.Draft7Validator.check_schema(schema)
    return schema


def test_element_schema():
    schema = load_schema("element.schema.json")
    samples = [
        Element.basis(AssocOperad(Q), (2, 1, 3)).scale(Q.parse("-2/3")),
        Element.zero(AssocOperad(Q), 2),
        Element.basis(ShiftOperad(Q, max_entry=9), (1, 4)),
        Element.basis(EndoOperad(dual_numbers(F3)), (0, 1, 1)),
        Element.basis(EndoOperad(dual_numbers(F3)), ()),
    ]
    for x in samples:
        jsonschema.validate(element_to_json(x), schema)
    # the readers take a coefficient as a string or as any JSON number
    for coeff in (5, 0.5):
        jsonschema.validate(
            {"operad": "assoc", "arity": 1, "terms": [{"basis": [1], "coeff": coeff}]}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"arity": 1}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(
            {"operad": "assoc", "arity": 1, "terms": [{"basis": "12", "coeff": "1"}]},
            schema,
        )


def test_algebra_schema():
    schema = load_schema("algebra.schema.json")
    for alg in (dual_numbers(F3), matrix2(get_field("gfp:5"))):
        data = algebra_to_json(alg)
        jsonschema.validate(data, schema)
        # round: the serialized tables keep the declared dimension
        assert len(data["mul"]) == data["dim"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"dim": 2, "unit": ["1", "0"]}, schema)


def test_multimap_schema():
    schema = load_schema("multimap.schema.json")
    op = EndoOperad(dual_numbers(F3))
    for key in ((0, 1, 1), (1, 1), ()):
        data = element_to_multimap(Element.basis(op, key))
        jsonschema.validate(data, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"coeffs": ["1"]}, schema)


def test_verify_report_schema():
    schema = load_schema("verify-report.schema.json")
    report = run_verify(seed=0, trials=25)
    jsonschema.validate(report, schema)
    assert {row["status"] for row in report["checks"]} <= {"pass", "fail", "reported"}


def test_cohomology_schema():
    schema = load_schema("cohomology.schema.json")
    ascending = betti(ComplexSpec(EndoOperad(dual_numbers(F3)), "hochschild", 0, 3))
    descending = betti(ComplexSpec(AssocOperad(Q), "boundary", 1, 3))
    jsonschema.validate(ascending, schema)
    jsonschema.validate(descending, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"degrees": [0], "dims": [1]}, schema)

"""Determinism and the expected pass/fail profile of the verification suites.

The three identities that genuinely fail on these operads are pinned here so
a regression in either direction (a fixed check or a new failure) is loud.
"""

import hashlib
import json
import random

import pytest

from operad_lab.assoc import AssocOperad
from operad_lab.elements import Element
from operad_lab.endo import EndoOperad
from operad_lab.scalars import get_field
from operad_lab.shift import ShiftOperad
from operad_lab import verify
from operad_lab.verify import (
    SUITES, _batch_catalog, _counterexample, _run_trials, make_operads, report_to_json, run_verify,
)
from test_core import fresh_point_and_product

PROFILE_TRIALS = 120

EXPECTED_FAILING = {
    ("chain", "anticommutation", "shift"),
    ("coalgebra", "coderivation_sign_pattern", "assoc"),
    ("coalgebra", "coderivation_sign_pattern", "shift"),
    ("coalgebra", "coderivation_sign_pattern", "endo:dual"),
    ("brace", "boundary_brace_literal", "assoc"),
}


@pytest.fixture(scope="module")
def full_report():
    return run_verify(seed=0, trials=PROFILE_TRIALS)


def test_report_shape(full_report):
    assert set(full_report) == {
        "seed", "trials", "field", "suites", "checks", "failures", "status",
    }
    assert full_report["suites"] == list(SUITES)
    assert full_report["status"] == "fail"
    assert full_report["failures"] > 0
    total = sum(row["failures"] for row in full_report["checks"])
    assert total == full_report["failures"]


def test_failure_profile(full_report):
    failing = {
        (row["suite"], row["check"], row["operad"])
        for row in full_report["checks"]
        if row["status"] == "fail"
    }
    assert failing == EXPECTED_FAILING
    for row in full_report["checks"]:
        if row["status"] == "fail":
            assert row["failures"] > 0
            assert "counterexample" in row
        elif row["status"] == "pass":
            assert row["failures"] == 0


def test_reported_rows(full_report):
    rows = {
        row["operad"]: row
        for row in full_report["checks"]
        if row["check"] == "face_gamma_compat"
    }
    assert set(rows) == {"assoc", "shift", "endo:dual"}
    # composition compatibility of faces holds on permutations, not elsewhere
    assert rows["assoc"]["status"] == "pass"
    assert rows["assoc"]["details"]["discrepancies"] == 0
    for label in ("shift", "endo:dual"):
        assert rows[label]["status"] == "reported"
        assert rows[label]["details"]["discrepancies"] > 0
        assert rows[label]["failures"] == 0
    degen = [
        row for row in full_report["checks"] if row["check"] == "degen_gamma_compat"
    ]
    assert len(degen) == 3
    for row in degen:
        assert row["details"]["discrepancies"] == 0


def test_coderivation_details(full_report):
    rows = [
        row for row in full_report["checks"]
        if row["check"] == "coderivation_sign_pattern"
    ]
    assert len(rows) == 3
    for row in rows:
        patterns = row["details"]["sign_patterns"]
        assert any(not viable for viable in patterns.values()), row["operad"]


def test_same_seed_same_bytes():
    kwargs = dict(seed=7, trials=40, suites=["simplicial", "brace"])
    a = report_to_json(run_verify(**kwargs))
    b = report_to_json(run_verify(**kwargs))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["seed"] == 7


def test_shared_point_and_product_survive_a_run(monkeypatch):
    # every operad built during the run, with its point and product
    created = []
    for cls in (AssocOperad, ShiftOperad, EndoOperad):
        def recording_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            created.append(self)
        monkeypatch.setattr(cls, "__init__", recording_init)
    run_verify(seed=0, trials=2)
    assert {type(op) for op in created} == {AssocOperad, ShiftOperad, EndoOperad}
    for op in created:
        point, product = fresh_point_and_product(op)
        assert op.unit_zero().terms == point.terms
        assert op.multiplication().terms == product.terms


def test_suite_and_operad_filters():
    report = run_verify(seed=1, trials=10, suites=["brace"], operads=["assoc"])
    assert report["checks"]
    for row in report["checks"]:
        assert row["suite"] == "brace"
        assert row["operad"] == "assoc"
    narrowed = run_verify(seed=1, trials=10, suites=["simplicial"], operads=["shift"])
    assert {row["operad"] for row in narrowed["checks"]} == {"shift"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify(trials=1, suites=["nope"])


def test_empty_selection_rejected():
    for suite, label in (("brace", "shift"), ("cohomology", "assoc")):
        with pytest.raises(ValueError, match=f"suite.s. {suite} runs on operad.s. {label}"):
            run_verify(trials=1, suites=[suite], operads=[label])


def test_trials_below_one_rejected():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            run_verify(trials=trials, suites=["chain"])


# report_to_json(run_verify(...)) digests over Q and a small prime, where the
# counterexample each failing row shows depends on the check's iteration order
REPORT_SHA256 = {
    (3, 30, "q"): "37e5b483c8364c129036bb22c12f29d45c159c72a5a99171d5b763c05486faab",
    (5, 20, "gfp:5"): "e9926b6bc835bcee2167562d53c277aa45b458482b9958c0a7dd7b2f131c13d7",
}


@pytest.mark.parametrize("seed,trials,field_label", sorted(REPORT_SHA256))
def test_report_bytes_pinned(seed, trials, field_label):
    text = report_to_json(run_verify(seed=seed, trials=trials, field_label=field_label))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == REPORT_SHA256[(seed, trials, field_label)]


def _stub(cases):
    """A per-trial (draw, sides) pair: trial t draws the inputs of
    ``cases[t]`` and its sides return the (lhs, rhs) that follow them."""
    calls = iter(cases)
    drawn = []

    def draw(ops, label, rng):
        inputs, *sides = next(calls)
        drawn.append(sides)
        return inputs

    return draw, lambda **inputs: tuple(drawn.pop())


def test_tensor_counterexample_row():
    ops = make_operads(get_field("q"))
    x = Element.basis(ops["assoc"], (2, 1))
    equal = {((0, ()), (2, (2, 1))): 1}
    lhs = {((1, (1,)), (1, (1,))): 1, ((0, ()), (2, (2, 1))): 1}
    rhs = {((2, (2, 1)), (0, ())): 2}
    sides = [({"x": x}, equal, dict(equal)), ({"x": x}, lhs, rhs), ({"x": x}, rhs, lhs)]
    failures, first = _run_trials(_stub(sides), ops, "assoc", "coalgebra", "stub", 0, 3)
    assert failures == 2
    assert first == {
        "inputs": {"x": "(21)"},
        "lhs": "[((0, ()), (2, (2, 1))), ((1, (1,)), (1, (1,)))]",
        "rhs": "[((2, (2, 1)), (0, ()))]",
        "trial": 1,
    }


def test_element_counterexample_row_formats_lists():
    ops = make_operads(get_field("q"))
    assoc = ops["assoc"]
    x, one, two = (Element.basis(assoc, k) for k in ((2, 1), (1,), (1, 2)))
    inputs = {"x": x, "blocks": [one, two], "slots": [1, 2], "i": 3}
    sides = [(inputs, x, x), (inputs, two, Element.zero(assoc, 2))]
    failures, first = _run_trials(_stub(sides), ops, "assoc", "simplicial", "stub", 0, 2)
    assert failures == 1
    assert first == {
        "inputs": {"x": "(21)", "blocks": ["(1)", "(12)"], "slots": [1, 2], "i": 3},
        "lhs": "(12)",
        "rhs": "0",
        "trial": 1,
    }


@pytest.mark.parametrize("suite,name,label,status", [
    ("brace", "boundary_brace_literal", "assoc", "fail"),
    ("simplicial", "face_gamma_compat", "shift", "reported"),
])
def test_counterexample_replays_from_its_seed_string(suite, name, label, status):
    # one draw from the trial's seed string and one sides call give the row's counterexample
    report = run_verify(seed=0, trials=300, suites=["brace", "simplicial"])
    (row,) = [r for r in report["checks"] if (r["suite"], r["check"], r["operad"]) ==
              (suite, name, label)]
    assert row["status"] == status
    field = get_field(report["field"])
    ((draw, sides),) = [entry[1] for entry in _batch_catalog(field)[suite]
                        if entry[0] == name and entry[2] == label]
    t = row["counterexample"]["trial"]
    inputs = draw(make_operads(field), label, random.Random(f"0:{suite}:{name}:{label}:{t}"))
    lhs, rhs = sides(**inputs)
    assert dict(_counterexample(inputs, lhs, rhs), trial=t) == row["counterexample"]


# Each run-once check forced to fail, with the row it must then report.
# The module globals a check looks up when it runs are patched one at a time.

def _shift_dims(when):
    def patch(real):
        def betti(spec):
            report = real(spec)
            if when(spec):
                report = dict(report, dims=[d + 1 for d in report["dims"]])
            return report
        return betti
    return patch


def _deconcat_drops_21(real):
    return lambda x: {} if (2, 1) in x.terms else real(x)


def _gamma_shift_moves_2_1(real):
    return lambda key, blocks: (3,) if (key, blocks) == ((2,), ((1,),)) else real(key, blocks)


def _failed_row(suite, check, operad, details, counterexample):
    return {"suite": suite, "check": check, "operad": operad, "trials": 1,
            "failures": 1, "status": "fail", "details": details,
            "counterexample": counterexample}


FORCED_FAILURES = {
    "rank_comparison": (
        "equal_up_to_global_sign", lambda real: lambda a, b: None,
        dict(suites=["coincidence"], operads=["endo:m2@gfp:5"]),
        _failed_row("coincidence", "coboundary_vs_classical", "endo:m2@gfp:5", {"degrees": []},
                    {"inputs": {"degree": 1}, "lhs": "operadic rank 13",
                     "rhs": "classical rank 13"}),
    ),
    # the row's operadic side is summed from core.coboundary itself, so a
    # doubled operator fails it: the row compares two paths, not one stream
    "rank_comparison_operator": (
        "coboundary", lambda real: lambda x: real(x) + real(x),
        dict(suites=["coincidence"], operads=["endo:m2@gfp:5"]),
        _failed_row("coincidence", "coboundary_vs_classical", "endo:m2@gfp:5", {"degrees": []},
                    {"inputs": {"degree": 1}, "lhs": "operadic rank 13",
                     "rhs": "classical rank 13"}),
    ),
    "betti": (
        "betti", _shift_dims(lambda spec: True),
        dict(suites=["cohomology"], operads=["endo:dual@gfp:3"]),
        _failed_row("cohomology", "betti_dual_numbers", "endo:dual@gfp:3",
                    {"dims": [3, 2, 2, 2], "expected": [2, 1, 1, 1]},
                    {"inputs": {"degrees": [0, 1, 2, 3]}, "lhs": "[3, 2, 2, 2]",
                     "rhs": "[2, 1, 1, 1]"}),
    ),
    "coproduct_exhaustive": (
        "_deconcat", _deconcat_drops_21,
        dict(suites=["coincidence"], operads=["assoc"], field_label="q"),
        _failed_row("coincidence", "coproduct_vs_deconcat_exhaustive", "assoc", {"cases": 2},
                    {"inputs": {"x": "(21)"},
                     "lhs": "[((0, ()), (2, (2, 1))), ((1, (1,)), (1, (1,))),"
                            " ((2, (2, 1)), (0, ()))]",
                     "rhs": "[]"}),
    ),
    "gamma_closed_form": (
        "gamma_shift", _gamma_shift_moves_2_1,
        dict(suites=["coincidence"], operads=["shift"], field_label="q"),
        _failed_row("coincidence", "gamma_closed_form", "shift", {"cases": 12},
                    {"inputs": {"x": "(2)", "blocks": ["(1,)"]}, "lhs": "(2)", "rhs": "(3)"}),
    ),
    "field_independence": (
        "betti", _shift_dims(lambda spec: spec.operad.field.label == "q"),
        dict(suites=["cohomology"], operads=["endo:dual"]),
        _failed_row("cohomology", "field_independence", "endo:dual",
                    {"dims": {"q": [3, 2, 2, 2], "gfp:32003": [2, 1, 1, 1]}},
                    {"inputs": {}, "lhs": "[3, 2, 2, 2]", "rhs": "[2, 1, 1, 1]"}),
    ),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_forced_failure_row(monkeypatch, case):
    target, wrap, kwargs, expected = FORCED_FAILURES[case]
    monkeypatch.setattr(verify, target, wrap(getattr(verify, target)))
    report = run_verify(seed=0, trials=1, **kwargs)
    rows = [row for row in report["checks"] if row["check"] == expected["check"]]
    assert rows == [expected]
    assert report["status"] == "fail"

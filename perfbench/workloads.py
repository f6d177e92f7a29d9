"""The benchmark's workloads: the argv each one passes to
``operad_lab.cli.main``, the operad its set-up builds, and the gate its
output must pass.

The seed feeds ``verify`` only; the two cohomology complexes are fixed
inputs, so their gates are exact dimension and rank lists.
"""

import json
from dataclasses import dataclass
from typing import Callable, Tuple

VERIFY_SUITES = ("simplicial", "chain", "coalgebra", "brace", "coincidence", "cohomology")

# The seven non-pass rows of a full default verify run.  Three identities are
# false for these operads by design (README "Known failing identities";
# acceptance 4b, 5b, 6d): they are correct output here, never errors.
VERIFY_NON_PASS = frozenset({
    ("chain", "anticommutation", "shift", "fail"),
    ("coalgebra", "coderivation_sign_pattern", "assoc", "fail"),
    ("coalgebra", "coderivation_sign_pattern", "shift", "fail"),
    ("coalgebra", "coderivation_sign_pattern", "endo:dual", "fail"),
    ("brace", "boundary_brace_literal", "assoc", "fail"),
    ("simplicial", "face_gamma_compat", "shift", "reported"),
    ("simplicial", "face_gamma_compat", "endo:dual", "reported"),
})
VERIFY_ROWS = 68
VERIFY_FAIL_EXIT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    args: Tuple[str, ...]  # "{seed}" is replaced by the run's seed
    operad: str  # cli.make_operad selector, or "verify" for verify's own set
    field: str
    gate: Callable[[int, str, int], list]  # (exit code, stdout, seed) -> problems

    def argv(self, seed):
        return [a.replace("{seed}", str(seed)) for a in self.args]

    def setup(self):
        """Import operad_lab and build the operad(s) the command works on."""
        from operad_lab import cli, verify
        from operad_lab.scalars import get_field

        field = get_field(self.field)
        if self.operad == "verify":
            return verify.make_operads(field)
        return cli.make_operad(self.operad, field)


def _load(out):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def verify_gate(trials, exact):
    """Gate for ``verify --json``: the exit code matches the report status,
    and the non-pass rows are exactly the known seven (``exact``) or a subset
    of them (runs too short for every false identity to show)."""

    def gate(code, out, seed):
        report, err = _load(out)
        if err:
            return [err]
        problems = []
        want = {"seed": seed, "trials": trials, "field": "gfp:32003",
                "suites": list(VERIFY_SUITES)}
        for key, value in want.items():
            if report.get(key) != value:
                problems.append(f"report {key} is {report.get(key)!r}, want {value!r}")
        rows = report.get("checks", [])
        if len(rows) != VERIFY_ROWS:
            problems.append(f"{len(rows)} check rows, want {VERIFY_ROWS}")
        non_pass = {(r["suite"], r["check"], r["operad"], r["status"])
                    for r in rows if r["status"] != "pass"}
        if exact and non_pass != VERIFY_NON_PASS:
            problems.append(f"non-pass rows differ: extra {sorted(non_pass - VERIFY_NON_PASS)},"
                            f" missing {sorted(VERIFY_NON_PASS - non_pass)}")
        if not exact and not non_pass <= VERIFY_NON_PASS:
            problems.append(f"unexpected non-pass rows {sorted(non_pass - VERIFY_NON_PASS)}")
        failing = any(status == "fail" for *_, status in non_pass)
        want_status = "fail" if failing else "ok"
        if report.get("status") != want_status:
            problems.append(f"report status {report.get('status')!r}, want {want_status!r}")
        want_code = VERIFY_FAIL_EXIT if failing else 0
        if code != want_code:
            problems.append(f"exit code {code}, want {want_code}")
        return problems

    return gate


def betti_gate(dims, ranks):
    def gate(code, out, seed):
        if code != 0:
            return [f"exit code {code}, want 0"]
        report, err = _load(out)
        if err:
            return [err]
        problems = []
        if report.get("dims") != dims:
            problems.append(f"dims {report.get('dims')}, want {dims}")
        if report.get("ranks") != ranks:
            problems.append(f"ranks {report.get('ranks')}, want {ranks}")
        return problems

    return gate


def _cohomology(operad, field, differential, lo, hi, *extra):
    return ("cohomology", "--operad", operad, "--field", field, "--differential",
            differential, "--lo", str(lo), "--hi", str(hi), *extra, "--json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            ("verify", "--json", "--seed", "{seed}"),
            "verify", "gfp:32003", verify_gate(200, exact=True),
        ),
        Workload(
            "betti-assoc8",
            _cohomology("assoc", "gfp:5", "boundary", 0, 8, "--allow-large"),
            "assoc", "gfp:5",
            betti_gate([0, 0, 0, 0, 0, 0, 0, 0, 35900], [0, 1, 0, 2, 4, 20, 100, 620, 4420]),
        ),
        Workload(
            "betti-m2-q",
            _cohomology("endo:m2", "q", "hochschild", 0, 5),
            "endo:m2", "q",
            betti_gate([1, 0, 0, 0, 0, 0], [3, 13, 51, 205, 819, 3277]),
        ),
        # Smoke workloads: tiny inputs that run the gate and the tracer in
        # seconds (perfbench/test_smoke.py).  They are not benchmark workloads.
        Workload(
            "smoke-verify",
            ("verify", "--json", "--seed", "{seed}", "--trials", "2"),
            "verify", "gfp:32003", verify_gate(2, exact=False),
        ),
        Workload(
            "smoke-assoc5",
            _cohomology("assoc", "gfp:5", "boundary", 0, 5),
            "assoc", "gfp:5",
            betti_gate([0, 0, 0, 0, 0, 100], [0, 1, 0, 2, 4, 20]),
        ),
    )
}
BENCH_WORKLOADS = ("verify", "betti-assoc8", "betti-m2-q")

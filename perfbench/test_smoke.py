"""Smoke test of the benchmark on tiny inputs: the gate, the result line and
the tracer, in seconds.  Run with ``python3 -m pytest perfbench``; it is not
part of the tier-1 suite (``testpaths`` is ``tests/``)."""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_timed_run_reports_every_end_to_end_metric():
    result = result_line(bench("--workload", "smoke-assoc5", "--seed", "1", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_runs_repeat_counts_and_nest_spans():
    runs = [result_line(bench("--workload", "smoke-verify", "--seed", "3", "--seconds", "1",
                              "--trace", "1")) for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"], result
        assert set(result["metrics"]) == names
    counts = [{k: v["value"] for k, v in r["metrics"].items() if not k.endswith("_s")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["verify.trials"] > 0 and counts[0]["core.compose.calls"] > 0

    # Spans nest within their parents, and none lies inside a span of the
    # same name, which is what lets incl_s sum every span of a name.
    with open(HERE / "out" / "smoke-verify.spans", "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        name, parent, start, end = (array(code) for code in "Hqdd")
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
        assert fh.read() == b""
    assert n > 0 and header["byteorder"] == sys.byteorder
    enclosing = [0] * n  # bit set of the names of a span's ancestors
    for i in range(n):
        p = parent[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] <= end[i] <= end[p]
            enclosing[i] = enclosing[p] | 1 << name[p]
        assert not enclosing[i] >> name[i] & 1, header["names"][name[i]]


def test_traced_rank_ratio_on_assoc5():
    metrics = result_line(bench("--workload", "smoke-assoc5", "--seconds", "1",
                                "--trace", "1"))["metrics"]
    # six distinct matrices, each ranked up to three times by betti
    assert metrics["linalg.rank.distinct"]["value"] == 6
    assert metrics["linalg.rank.calls"]["value"] == 17
    assert metrics["cohomology.columns"]["value"] == 1 + 1 + 2 + 6 + 24 + 120


def test_gates_reject_wrong_output():
    betti = workloads.WORKLOADS["smoke-assoc5"].gate
    good = json.dumps({"dims": [0, 0, 0, 0, 0, 100], "ranks": [0, 1, 0, 2, 4, 20]})
    assert betti(0, good, 0) == []
    assert betti(0, good.replace("100", "99"), 0)
    assert betti(1, good, 0)

    verify = workloads.WORKLOADS["verify"].gate
    rows = [{"suite": s, "check": c, "operad": o, "status": st}
            for s, c, o, st in sorted(workloads.VERIFY_NON_PASS)]
    rows += [{"suite": "chain", "check": "boundary_squared", "operad": "assoc",
              "status": "pass"}] * (workloads.VERIFY_ROWS - len(rows))
    report = {"seed": 5, "trials": 200, "field": "gfp:32003",
              "suites": list(workloads.VERIFY_SUITES), "checks": rows, "status": "fail"}
    assert verify(2, json.dumps(report), 5) == []
    assert verify(0, json.dumps(report), 5)
    assert verify(2, json.dumps(report), 6)
    rows[0] = dict(rows[0], status="pass")
    assert verify(2, json.dumps(report), 5)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "verify", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

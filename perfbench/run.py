"""operad-lab benchmark: seeded ``verify`` and two exact cohomology complexes,
timed end to end and, in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload verify|betti-assoc8|betti-m2-q|all
        [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one caller.  Each sample is one command
through ``operad_lab.cli.main`` in a fresh interpreter (perfbench/child.py),
started only after the previous one has ended; no threads, no pool.  Samples
repeat until the next one would overrun ``--seconds``, and every metric is
the median over the run's samples.  Timings are scaled to a fixed host speed
by a speed probe (perfbench/speed_probe.py) run before the first sample and
after each one; the raw times are printed beside them.  Every output passes its workload's gate
(perfbench/workloads.py) or the sample counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it hold the environment, every sample, and a
readable summary.  Design notes: perfbench/DESIGN.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
SETUP_PROBES = 7  # set-up-only processes per timed run, besides each sample's own
# Seconds the speed probe takes at the reference host speed: a run whose
# probes took p_0 .. p_n seconds reports each timing t as t * REF_PROBE_S / mean(p).
# 0.2 s lies within the range the probe took on the 2-vCPU Xeon host the
# benchmark was tuned on (about 0.15 to 0.3 s), so scaled times read close to
# raw ones there.
REF_PROBE_S = 0.2
RUN_LIMIT_S = 170  # a run ends within this, whatever --seconds says
THREADS_VAR = "OPERAD_LAB_THREADS"


class HarnessError(RuntimeError):
    """The benchmark could not measure anything."""


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def metric_specs():
    """(end-to-end, per-layer) metric lists from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def git_commit():
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the library's sources, naming the program measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "operad_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "ref_probe_s": REF_PROBE_S,
        THREADS_VAR: "unset",
    }


class Sampler:
    """Starts child processes one at a time and gates their outputs."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.longest = 0.0  # slowest child so far, to decide on one more
        self.longest_probe = 0.0  # slowest speed probe so far, process included
        self.reference = None  # first output: same seed, same bytes
        self.probes = []  # every speed probe's seconds, in order

    def speed_probe(self):
        """Run the host-speed probe in its own process; record its seconds."""
        started = clock()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "speed_probe.py")], cwd=ROOT,
                                  capture_output=True, text=True, check=True,
                                  timeout=max(self.deadline - clock(), 1.0))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise HarnessError(f"speed probe failed: {exc}") from exc
        self.probes.append(float(proc.stdout))
        self.longest_probe = max(self.longest_probe, clock() - started)

    def spawn(self, mode, spans=None):
        """Run one child process; return its result dict, or None."""
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        started = clock()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(self.deadline - started, 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} sample timed out")
            return None
        finally:
            self.longest = max(self.longest, clock() - started)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            self.problems.append(f"{mode} sample crashed: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def sample(self, mode, spans=None):
        """One gated command run; a crash or a gate failure counts as failed."""
        self.attempted += 1
        result = self.spawn(mode, spans)
        if result is None:
            self.failed += 1
            return None
        issues = self.workload.gate(result["exit_code"], result["output"], self.seed)
        if self.reference is None:
            self.reference = result["output"]
        elif result["output"] != self.reference:
            issues.append("output bytes differ from the first sample of this seed")
        if issues:
            self.failed += 1
            self.problems.extend(f"{mode} sample: {issue}" for issue in issues)
        return result

    def another(self, start, seconds):
        """Whether one more sample of the slowest length, and the speed probe
        after it if there is one, fits in the run."""
        now = clock()
        longest = self.longest + self.longest_probe
        return now - start + longest <= seconds and now + longest < self.deadline


def tail_percentile(values):
    """The highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(ordered), "value": ordered[k - 1]}


def timed_run(sampler, seconds, start):
    """Untraced samples: the end-to-end metrics.  A speed probe runs before
    the first sample and after each one, and every timing median is scaled
    by REF_PROBE_S over the mean probe; ``raw`` keeps the unscaled values."""
    setups = []
    for _ in range(SETUP_PROBES):
        setup = sampler.spawn("setup")
        if setup is None:
            raise HarnessError("set-up failed: " + sampler.problems[-1])
        setups.append(setup["setup_s"])
    sampler.speed_probe()
    runs = []
    while True:
        result = sampler.sample("run")
        sampler.speed_probe()
        if result is not None:
            runs.append(result)
        if not sampler.another(start, seconds):
            break
    if not runs:
        raise HarnessError("no sample completed: " + "; ".join(sampler.problems))
    raw = {name: [r[name] for r in runs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    raw["setup_s"] = setups + [r["setup_s"] for r in runs]
    factor = REF_PROBE_S / statistics.mean(sampler.probes)
    metrics = {name: statistics.median(v) for name, v in raw.items()}
    raw_medians = dict(metrics)
    for name in ("setup_s", "wall_s", "cpu_s"):
        metrics[name] *= factor
    tail = tail_percentile(raw["wall_s"])
    if tail:
        tail["value"] *= factor
    detail = {"samples": len(runs), "raw": raw, "raw_medians": raw_medians,
              "speed_probes_s": sampler.probes, "speed_factor": factor, "wall_s_tail": tail}
    return metrics, detail


def traced_run(sampler, seconds, start):
    """One untraced sample, then traced samples: the per-layer metrics.
    Counts must repeat exactly across the traced samples."""
    base = sampler.sample("run")
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{sampler.workload.name}.spans"
    traced = []
    while True:
        result = sampler.sample("trace", spans)
        if result is not None:
            traced.append(result)
        if not sampler.another(start, seconds):
            break
    if base is None or not traced:
        raise HarnessError("no traced sample completed: " + "; ".join(sampler.problems))
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            value = statistics.median(layer[name] for layer in layers)
        elif any(layer[name] != value for layer in layers):
            sampler.problems.append(f"trace count {name} differs between traced samples")
        metrics[name] = value
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - base["wall_s"]
    detail = {"samples": len(traced), "untraced_wall_s": base["wall_s"],
              "traced_wall_s": [r["wall_s"] for r in traced], "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return (result line dict, detail dict)."""
    start = clock()
    sampler = Sampler(workload, seed, start + RUN_LIMIT_S)
    if sampler.spawn("setup") is None:  # compiles bytecode; not timed
        raise HarnessError("set-up failed: " + sampler.problems[-1])
    measure = traced_run if trace else timed_run
    values, detail = measure(sampler, seconds, start)
    end_to_end, per_layer = metric_specs()
    specs = per_layer if trace else end_to_end
    if set(values) != {m["name"] for m in specs}:
        raise HarnessError(f"measured metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {"correct": not sampler.problems, "attempted": sampler.attempted,
              "failed": sampler.failed, "metrics": metrics}
    detail.update(workload=workload.name, trace=trace, error_rate=sampler.failed / sampler.attempted,
                  problems=sampler.problems)
    return result, detail


def summary_line(name, result, detail):
    m = result["metrics"]
    rate = f"error_rate {result['failed']}/{result['attempted']} = {detail['error_rate']:.4g}"
    if detail["trace"]:
        return f"{name} (traced, n={detail['samples']}): {len(m)} per-layer metrics, {rate}"
    tail = detail["wall_s_tail"]
    tail_text = (f"p{tail['percentile']:.4g} {tail['value']:.4f} s" if tail
                 else "no percentile has 10 samples above it")
    raw = detail["raw_medians"]
    return (f"{name} (at reference speed; raw in brackets):"
            f" setup_s {m['setup_s']['value']:.4f} s [{raw['setup_s']:.4f}]"
            f" | wall_s median {m['wall_s']['value']:.4f} s [{raw['wall_s']:.4f}],"
            f" {tail_text}, n={detail['samples']}"
            f" | cpu_s {m['cpu_s']['value']:.4f} s [{raw['cpu_s']:.4f}]"
            f" | peak_rss_mb {m['peak_rss_mb']['value']:.2f} {m['peak_rss_mb']['unit']}"
            f" | {rate}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "operad_lab" / "cli.py").is_file():
        sys.stderr.write(f"error: no operad_lab sources under {ROOT / 'src'}\n")
        return 2
    if THREADS_VAR in os.environ:
        sys.stderr.write(f"error: {THREADS_VAR} is set; the benchmark times the"
                         " default single-threaded path only, so unset it\n")
        return 2

    names = workloads.BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"environment": environment(args.seed)}))
    results = {}
    try:
        for name in names:
            result, detail = run_workload(workloads.WORKLOADS[name], args.seed,
                                          args.seconds, args.trace)
            print(json.dumps({"detail": detail}))
            print(summary_line(name, result, detail))
            results[name] = result
    except HarnessError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

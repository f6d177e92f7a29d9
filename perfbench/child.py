"""One sample in a fresh interpreter: set up, run one command through
``operad_lab.cli.main``, and print the measurements as one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T
        [--mode setup|run|trace] [--spans PATH]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` includes interpreter start-up.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is this script's directory)


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spans", help="file for the span arrays (trace mode)")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workload.setup()
    from operad_lab import cli

    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    run = cli.main
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("cli.main", cli.main)

    command = workload.argv(args.seed)
    out = io.StringIO()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = run(command)
        except SystemExit as exc:
            code = exc.code
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        exit_code=code,
        output=out.getvalue(),
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

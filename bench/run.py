"""Benchmark entry point: one workload, one fresh interpreter, one process.

    python3 bench/run.py --workload amp-grid6x6 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have
passed, then checks the outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is split into an untraced and a traced half, and the metrics are the
per-layer ones taken from spans around the package's public functions
(see tracing.py).  A readable summary goes to standard error and, for
traced runs, the spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from resource import RUSAGE_SELF, getrusage

import common
from harness import Clock, metric, run_rounds, tail_text

SETUP_CHILDREN = 2          # fresh-interpreter set-ups besides the run's own


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return getrusage(RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # ru_maxrss is KiB


def end_to_end(args, workload, own_setup_s: float) -> tuple[dict, Clock]:
    """End-to-end metrics; the returned clock holds the operation counts."""
    setups = [own_setup_s] + [child_setup_seconds(args)
                              for _ in range(SETUP_CHILDREN)]
    clock = Clock()
    wall, _ = run_rounds(workload, clock, args.seconds)
    rss = peak_rss_mb()          # before the checks allocate anything
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s": metric(statistics.median(clock.round_means or [0.0]), "s"),
        "results_per_s": metric(statistics.median(clock.round_rates or [0.0]),
                                "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    print(f"# set-up samples (s): {[round(s, 4) for s in setups]}",
          file=sys.stderr)
    print(f"# {len(clock.durations)} operations, {workload.results} "
          f"{workload.results_name} in {wall:.2f} s"
          f"{tail_text(clock.durations)}", file=sys.stderr)
    if len(clock.durations) <= 12:
        print(f"# operation times (s): {[round(d, 3) for d in clock.durations]}",
              file=sys.stderr)
    return metrics, clock


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for set-up samples)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_threads()
    common.use_checkout_source()
    t0 = time.perf_counter()
    import rqcsim
    import_s = time.perf_counter() - t0
    common.check_imported(rqcsim)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        import layers
        metrics, clock = layers.traced_run(args, workload, import_s)
    else:
        t1 = time.perf_counter()
        workload.setup()
        own_setup_s = import_s + time.perf_counter() - t1
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        metrics, clock = end_to_end(args, workload, own_setup_s)

    problems = workload.check()
    for line in problems:
        print(f"# CHECK FAILED: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": clock.attempted,
                      "failed": clock.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.SourceMissing as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)

"""Run every workload on several seeds and report each metric's spread.

    python3 bench/spread.py [--workload amp-grid6x6] --seeds 1-10 [--trace 1]

Runs ``run.py`` once per workload and seed, one process at a time, with
the run length from BENCHMARK.json (every workload in it unless
``--workload`` names one), and prints for every metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median.  ``--json FILE`` saves the raw
results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, config: dict, trace: int) -> dict:
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=common.REPO_ROOT, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    return result


def print_table(workload: str, results: list[dict]) -> None:
    print(f"\n{workload} ({len(results)} runs)")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write the raw results here")
    args = p.parse_args(argv)
    config = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else \
        [w["name"] for w in config["workloads"]]

    raw = {}
    for workload in names:
        raw[workload] = [dict(run_once(workload, seed, config, args.trace),
                              seed=seed)
                         for seed in parse_seeds(args.seeds)]
        print_table(workload, raw[workload])
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

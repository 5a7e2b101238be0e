"""Operation timing shared by the untraced and the traced run."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from resource import RUSAGE_SELF, getrusage

import common

OUT_DIR = common.BENCH_DIR / "out"


class Clock:
    """Times operations; with a tracer each one is an ``op`` span and its
    page faults and system time are taken from getrusage."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations: list[float] = []
        self.records: list[dict] = []
        self.round_means: list[float] = []   # mean operation time per round
        self.round_rates: list[float] = []   # results per wall second per round
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self):
        rec: dict = {}
        self.attempted += 1
        before = getrusage(RUSAGE_SELF) if self.tracer else None
        span = self.tracer.open("op") if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield rec
        except BaseException:
            self.failed += 1
            raise
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
                after = getrusage(RUSAGE_SELF)
                rec["minor_faults"] = after.ru_minflt - before.ru_minflt
                rec["sys_s"] = after.ru_stime - before.ru_stime
        self.durations.append(elapsed)
        self.records.append(rec)


def run_rounds(workload, clock: Clock, seconds: float, first: int = 0) -> tuple[float, int]:
    """Whole rounds until ``seconds`` have passed; returns (wall, rounds)."""
    start = time.perf_counter()
    i = first
    while True:
        attempted = clock.attempted
        done = len(clock.durations)
        results = workload.results
        t0 = time.perf_counter()
        try:
            workload.round(i, clock)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            if clock.attempted == attempted:   # failed outside any operation
                clock.attempted += 1
                clock.failed += 1
        else:
            ops = clock.durations[done:]
            clock.round_means.append(sum(ops) / len(ops))
            clock.round_rates.append((workload.results - results)
                                     / (time.perf_counter() - t0))
        i += 1
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, i - first


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_percentile(durations: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten operations beyond it."""
    n = len(durations)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(durations, n=100)[pct - 1]
    return None


def tail_text(durations: list[float]) -> str:
    tail = tail_percentile(durations)
    return f"; p{tail[0]} {tail[1]:.4g} s" if tail else ""

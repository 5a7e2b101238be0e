"""The traced run: per-layer metrics for one workload.

The set-up is traced on its own.  The measured time is then split in two
halves of whole rounds: the first untraced, the second with a span around
every public call listed in ``tracing.program_targets``.  The ratio of
their median operation times is the tracing overhead.  After both halves,
one more operation runs under ``tracemalloc`` for its peak allocation, and
a single-thread complex64 GEMM and a large copy give the machine's
reference rates.  Times are per operation unless named as set-up.
"""

from __future__ import annotations

import ctypes
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

import rqcsim
import harness
import tracing

GEMM_N = 1024
MIN_COPY_BYTES = 1 << 30


def last_level_cache_bytes() -> int:
    """L3 size as the C library reports it (0 if unknown)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        return max(0, int(libc.sysconf(194)))   # _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        return 0


def roofline() -> dict:
    """Single-thread complex64 GEMM rate and large-copy bandwidth."""
    rng = np.random.default_rng(0)
    shape = (GEMM_N, GEMM_N)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    a @ b
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    gemm = 8 * GEMM_N ** 3 / statistics.median(times) / 1e9
    del a, b

    llc = last_level_cache_bytes()
    size = max(4 * llc, MIN_COPY_BYTES)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    copy = 2 * src.nbytes / statistics.median(times) / 1e9
    del src, dst
    return {"cgemm_gflop_per_s": gemm, "copy_gbytes_per_s": copy,
            "gemm_n": GEMM_N, "copy_array_bytes": size, "llc_bytes": llc}


def traced_peak_bytes(workload) -> int:
    tracemalloc.start()
    try:
        workload.single_op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_run(args, workload, import_s: float) -> tuple[dict, "harness.Clock"]:
    targets = tracing.program_targets(rqcsim)
    setup_tracer = tracing.Tracer()
    setup_tracer.install(targets)
    try:
        workload.setup()
    finally:
        setup_tracer.remove()

    half = args.seconds / 2
    plain = harness.Clock()
    _, rounds = harness.run_rounds(workload, plain, half)
    samples_before = workload.results
    calls_before = getattr(workload, "calls", 0)
    batches_before = getattr(workload, "batches_used", 0)

    tracer = tracing.Tracer()
    traced = harness.Clock(tracer)
    tracer.install(targets)
    try:
        harness.run_rounds(workload, traced, half, first=rounds)
    finally:
        tracer.remove()
    sampling = {
        "calls": getattr(workload, "calls", 0) - calls_before,
        "batches": getattr(workload, "batches_used", 0) - batches_before,
        "accepted": workload.results - samples_before,
    }

    peak_traced = traced_peak_bytes(workload)
    machine = roofline()
    summary = tracing.summarize(tracer)
    setup_summary = tracing.summarize(setup_tracer)
    metrics = layer_metrics(workload, import_s, summary, setup_summary,
                            plain, traced, sampling, peak_traced, machine)

    counts = harness.Clock()      # operation counts of both halves
    counts.attempted = plain.attempted + traced.attempted
    counts.failed = plain.failed + traced.failed
    write_trace(args, setup_tracer, tracer, summary, machine, metrics)
    report(summary, machine, plain, traced)
    return metrics, counts


def layer_metrics(workload, import_s, s, setup, plain, traced, sampling,
                  peak_traced, machine) -> dict:
    n = max(1, s["n_ops"])
    inside = s["inside"]
    attrs = s["attrs"]

    def calls(*names):
        return sum(inside.get(x, (0, 0, 0))[0] for x in names) / n

    def self_s(*names):
        return sum(inside.get(x, (0, 0, 0))[1] for x in names) / n / 1e9

    def incl_s(*names):
        return sum(inside.get(x, (0, 0, 0))[2] for x in names) / n / 1e9

    def setup_s(name):
        return setup["outside"].get(name, (0, 0, 0))[2] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(key):
        vals = [r.get(key, 0) for r in traced.records]
        return sum(vals) / len(vals) if vals else 0.0

    moves = sorted(x for x in inside if x.startswith("tensor_core.permute_moves."))
    naive = "tensor_core.permute_naive"
    permute_bytes = sum(attrs.get(x, {}).get("bytes", 0) for x in moves + [naive])
    permute_ns = sum(inside[x][2] for x in moves + ([naive] if naive in inside else []))
    contract_ns = inside.get("tensor_core.contract", (0, 0, 0))[1]
    contract_flops = attrs.get("tensor_core.contract", {}).get("flops", 0)
    permute_rate = ratio(permute_bytes, permute_ns)         # bytes/ns = GB/s
    contract_rate = ratio(contract_flops, contract_ns)      # flop/ns = GFLOP/s
    outside_self = sum(row[1] for name, row in s["outside"].items()
                       if name.startswith("sampler."))
    predicted = workload.prediction()
    tail = harness.tail_percentile(plain.durations)
    overhead = ratio(statistics.median(traced.round_means),
                     statistics.median(plain.round_means)) - 1.0 \
        if plain.round_means and traced.round_means else 0.0

    values = {
        "rqcsim.import_s": (import_s, "s"),
        "circuits.generate_rqc_s": (setup_s("circuits.generate_rqc"), "s"),
        "contraction_plan.builtin_plan_s":
            (setup_s("contraction_plan.builtin_plan"), "s"),
        "network_builder.build_3d_s": (setup_s("network_builder.build_3d"), "s"),
        "network_builder.contract_time_s":
            (setup_s("network_builder.contract_time"), "s"),
        "network_builder.fix_outputs_s":
            (incl_s("network_builder.fix_outputs"), "s"),
        "contraction_plan.executor_init_s":
            (incl_s("contraction_plan.executor_init"), "s"),
        "contraction_plan.run_self_s": (self_s("contraction_plan.run"), "s"),
        "contraction_plan.paths": (per_op("paths"), "count"),
        "contraction_plan.flops": (per_op("flops"), "flop"),
        "contraction_plan.flops_predicted": (predicted["flops"], "flop"),
        "contraction_plan.peak_bytes": (per_op("peak_bytes"), "B"),
        "contraction_plan.peak_bytes_predicted": (predicted["peak_bytes"], "B"),
        "contraction_plan.peak_bytes_traced": (peak_traced, "B"),
        "tensor_core.permute_moves_s": (incl_s(*moves), "s"),
        "tensor_core.permute_moves_calls": (calls(*moves), "count"),
        "tensor_core.permute_two_move_s":
            (incl_s("tensor_core.permute_moves.2"), "s"),
        "tensor_core.permute_naive_s": (incl_s(naive), "s"),
        "tensor_core.permute_naive_calls": (calls(naive), "count"),
        "tensor_core.permute_gbytes_per_s": (permute_rate, "GB/s"),
        "tensor_core.contract_self_s": (self_s("tensor_core.contract"), "s"),
        "tensor_core.contract_calls": (calls("tensor_core.contract"), "count"),
        "tensor_core.contract_gflop_per_s": (contract_rate, "GFLOP/s"),
        "tensor_core.planned_s": (incl_s("tensor_core.planned"), "s"),
        "tensor_core.fix_s": (incl_s("tensor_core.fix"), "s"),
        "kernels.l_move_s": (incl_s("kernels.l_move"), "s"),
        "kernels.r_move_s": (incl_s("kernels.r_move"), "s"),
        "kernels.apply_1q_s": (incl_s("kernels.apply_1q"), "s"),
        "kernels.apply_diag_s": (incl_s("kernels.apply_diag"), "s"),
        "oracle.evolve_s": (incl_s("oracle.evolve"), "s"),
        "amplitude_engine.self_s":
            (self_s(*(x for x in inside if x.startswith("amplitude_engine."))), "s"),
        "sampler.self_s": (outside_self / n / 1e9, "s"),
        "sampler.batches": (ratio(sampling["batches"], sampling["calls"]), "count"),
        "sampler.acceptance_rate":
            (ratio(sampling["accepted"], sampling["batches"]), "ratio"),
        "memory.minor_faults": (per_op("minor_faults"), "count"),
        "memory.sys_s": (per_op("sys_s"), "s"),
        "roofline.cgemm_gflop_per_s": (machine["cgemm_gflop_per_s"], "GFLOP/s"),
        "roofline.copy_gbytes_per_s": (machine["copy_gbytes_per_s"], "GB/s"),
        "tensor_core.contract_roofline_frac":
            (ratio(contract_rate, machine["cgemm_gflop_per_s"]), "ratio"),
        "tensor_core.permute_bandwidth_frac":
            (ratio(permute_rate, machine["copy_gbytes_per_s"]), "ratio"),
        "op.tail_s": (tail[1] if tail else 0.0, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.self_time_coverage": (ratio(sum(r[1] for r in inside.values()),
                                           s["op_ns"]), "ratio"),
    }
    return {k: harness.metric(v, u) for k, (v, u) in values.items()}


def write_trace(args, setup_tracer, tracer, summary, machine, metrics) -> None:
    harness.OUT_DIR.mkdir(exist_ok=True)
    path = harness.OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "setup_spans": setup_tracer.dump(), "spans": tracer.dump(),
                   "summary": summary, "machine": machine,
                   "metrics": metrics}, fh)
    print(f"# spans written to {path}", file=sys.stderr)


def report(summary, machine, plain, traced) -> None:
    total = summary["op_ns"] or 1
    print(f"# untraced half: {len(plain.durations)} operations"
          f"{harness.tail_text(plain.durations)}", file=sys.stderr)
    print(f"# traced {summary['n_ops']} of {len(plain.durations) + len(traced.durations)}"
          f" operations; self time by layer (kernel passes count with their "
          f"permute), share of operation time:", file=sys.stderr)
    for name, ns in sorted(summary["layers"].items(), key=lambda kv: -kv[1])[:12]:
        print(f"#   {name:40s} {ns / 1e9 / max(1, summary['n_ops']):10.4f} s"
              f"  {100 * ns / total:5.1f}%", file=sys.stderr)
    if summary["negative_self"]:
        print(f"# WARNING: {summary['negative_self']} spans with negative self "
              f"time", file=sys.stderr)
    print(f"# roofline: {machine['gemm_n']}^2 complex64 GEMM, copy arrays of "
          f"{machine['copy_array_bytes'] / 2**20:.0f} MiB (L3 "
          f"{machine['llc_bytes'] / 2**20:.0f} MiB)", file=sys.stderr)

"""Command-line front end.

Subcommands cover the full pipeline: ``gen`` writes circuit files,
``amplitude`` computes single or batched amplitudes, ``sample`` runs the
frugal rejection sampler end to end, ``verify`` diffs the tensor engine
against the dense reference simulator, ``analyze`` hosts the statistical
checks (pt, pearson, xeb), ``complexity`` evaluates partition costs, and
``bench permute`` times the index-reordering kernel.

Structured results are JSON (or JSON lines); circuit and plan files stay
plain text.  Every output starts with an echo of the run configuration so
a result can be reproduced from the file alone.  All randomness flows
from ``--seed``.

Exit codes: 0 on success, 1 on usage errors (bad flags, out-of-range
counts, unreadable inputs, conflicting sources), 2 on numerical or
resource errors (memory budget exceeded, verification out of tolerance,
reference-simulator cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import _kernels, analysis, oracle
from .amplitude_engine import (AmplitudeEngine, FidelitySpec, amplitude_record,
                               batch_records, read_amplitudes, write_amplitudes)
from .circuits import (CircuitFormatError, DepthSpec, Lattice, generate_rqc,
                       parse_circuit, write_circuit)
from .contraction_plan import (MemoryBudgetError, PlanError, builtin_plan,
                               estimate_cost, load_plan)
from .network_builder import as_bits
from .partition_cost import best_partition, complexity_table, table_csv
from .sampler import SamplerConfig, required_batches, sample_circuit, write_samples
from .tensor_core import benchmark_csv, benchmark_permute

__all__ = ["main", "entry"]


class UsageError(Exception):
    """Bad invocation: wrong flags, unreadable inputs, conflicting sources."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_threads() -> int:
    env = os.environ.get("RQCSIM_THREADS", "")
    if env.strip():
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"RQCSIM_THREADS must be an integer, got {env!r}")
        if threads < 1:
            raise UsageError(f"RQCSIM_THREADS must be >= 1, got {env!r}")
        return threads
    return os.cpu_count() or 1


def _parse_bytes(text: str) -> int:
    """Byte count with an optional K/M/G suffix."""
    s = text.strip().upper()
    scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(s[-1:], 1)
    digits = s[:-1] if scale != 1 else s
    try:
        value = int(digits) * scale
    except ValueError:
        raise UsageError(f"bad memory budget {text!r}; use bytes or K/M/G")
    if value < 1:
        raise UsageError("memory budget must be positive")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _add_common(p: _Parser, *, source: bool = False, engine: bool = False):
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomness (default 0)")
    p.add_argument("-o", "--output", default=None,
                   help="output file (default stdout)")
    if source:
        p.add_argument("--circuit", default=None, help="circuit file to load")
        p.add_argument("--lattice", default=None,
                       help="lattice name (grid:RxC or bristlecone-N)")
        p.add_argument("--depth", default=None, help="depth spec 1+t+1")
    if engine:
        p.add_argument("--plan", default="auto",
                       help="contraction plan file, a lattice name for that "
                            "lattice's builtin plan, or 'auto' (default)")
        p.add_argument("--precision", choices=("single", "double"),
                       default="single", help="engine precision (default single)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: hardware concurrency, "
                            "override with RQCSIM_THREADS)")
        p.add_argument("--memory-budget", default=None,
                       help="peak bytes allowed during contraction (K/M/G ok)")
        p.add_argument("--fidelity", type=float, default=1.0,
                       help="target fidelity: fraction of paths summed "
                            "(default 1.0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rqcsim",
                     description="Tensor-network simulator for random "
                                 "quantum circuits.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("gen", help="generate a random circuit file")
    p.add_argument("--lattice", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--two-qubit-gate", choices=("cz", "iswap"), default="cz")
    _add_common(p)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("amplitude", help="compute one amplitude or a batch")
    _add_common(p, source=True, engine=True)
    p.add_argument("--in", dest="in_bits", default=None,
                   help="input bit-string (default all zeros)")
    p.add_argument("--out", dest="out_bits", default=None,
                   help="output bit-string for a single amplitude")
    p.add_argument("--s-ab", default=None,
                   help="fixed bits outside the open region (batch mode)")
    p.add_argument("--c-sites", default=None,
                   help="open-region qubits, comma separated, or 'auto'")
    p.add_argument("--n-c", type=int, default=None,
                   help="completions per batch (default min(32, 2^|C|))")
    p.add_argument("--oracle", action="store_true",
                   help="use the dense reference simulator instead")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write one JSON line per plan step: evaluations, "
                        "seconds, counted and priced flops")
    p.set_defaults(handler=_cmd_amplitude)

    p = sub.add_parser("sample", help="frugal rejection sampling end to end")
    _add_common(p, source=True, engine=True)
    p.add_argument("--in", dest="in_bits", default=None)
    p.add_argument("--target", type=int, required=True,
                   help="accepted samples wanted")
    p.add_argument("--m", type=int, default=10,
                   help="rejection ceiling M (default 10)")
    p.add_argument("--c-sites", default="auto")
    p.add_argument("--n-c", type=int, default=None)
    p.add_argument("--max-batches", type=int, default=None,
                   help="hard stop (default 10x the planned batch count)")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("verify",
                       help="diff engine amplitudes against the reference")
    _add_common(p, source=True, engine=True)
    p.add_argument("--samples", type=int, default=50,
                   help="random output bit-strings to compare (default 50)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="max |engine - reference| allowed (default 1e-5)")
    p.set_defaults(handler=_cmd_verify)

    pa = sub.add_parser("analyze", help="statistical checks")
    asub = pa.add_subparsers(dest="check", required=True, metavar="check")

    p = asub.add_parser("pt", help="shape of N*p against exp(-x)")
    p.add_argument("--amplitudes", required=True,
                   help="amplitude JSON-lines file")
    p.add_argument("--bins", type=int, default=50)
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_pt)

    p = asub.add_parser("pearson",
                        help="batch-independence: Pearson r vs Hamming distance")
    _add_common(p, source=True, engine=True)
    p.add_argument("--batches", type=int, default=1000,
                   help="number of s_AB draws (default 1000)")
    p.add_argument("--c-sites", default="auto")
    p.add_argument("--n-c", type=int, default=None,
                   help="completions per batch (default min(32, 2^|C|))")
    p.set_defaults(handler=_cmd_analyze_pearson)

    p = asub.add_parser("xeb", help="cross-entropy fidelity of a sample file")
    p.add_argument("--samples", required=True, help="bit-string sample file")
    _add_common(p, source=True)
    p.add_argument("--in", dest="in_bits", default=None)
    p.set_defaults(handler=_cmd_analyze_xeb)

    p = sub.add_parser("complexity", help="partition qubit-complexity")
    p.add_argument("--lattice", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--scheme", default="bi",
                   help="bi, tri, tri:<d>, or quad (default bi)")
    p.add_argument("--table", action="store_true",
                   help="CSV of every candidate in every scheme")
    _add_common(p)
    p.set_defaults(handler=_cmd_complexity)

    pb = sub.add_parser("bench", help="micro-benchmarks")
    bsub = pb.add_subparsers(dest="what", required=True, metavar="what")
    p = bsub.add_parser("permute", help="index-reordering kernel timings")
    p.add_argument("--rank", type=int, default=20)
    p.add_argument("--gammas", default="5:10",
                   help="gamma range lo:hi or comma list (default 5:10)")
    p.add_argument("--threads", default="1",
                   help="comma-separated thread counts (default 1)")
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--compare-backends", action="store_true",
                   help="time both kernel backends")
    _add_common(p)
    p.set_defaults(handler=_cmd_bench_permute)

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------

@contextmanager
def _open_out(args):
    if args.output:
        with open(args.output, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _load_circuit(args):
    """Circuit from --circuit or --lattice/--depth (mutually exclusive)."""
    if args.circuit and args.lattice:
        raise UsageError("--circuit and --lattice are mutually exclusive")
    if args.circuit:
        try:
            with open(args.circuit) as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read circuit file: {e}")
        try:
            return parse_circuit(text)
        except (CircuitFormatError, ValueError) as e:
            raise UsageError(f"bad circuit file {args.circuit}: {e}")
    if args.lattice:
        if not args.depth:
            raise UsageError("--lattice needs --depth")
        try:
            lattice = Lattice.named(args.lattice)
            depth = DepthSpec.parse(args.depth)
        except ValueError as e:
            raise UsageError(str(e))
        return generate_rqc(lattice, depth, seed=args.seed)
    raise UsageError("give either --circuit FILE or --lattice NAME --depth D")


def _make_engine(args, circuit, batch: bool = False):
    """The engine the arguments ask for, its plan's price for the config
    echo, and for a batch command the open sites.  The plan is priced at
    those sites, the circuit's depth, the precision and the circuit's
    two-qubit gate: a builtin plan (``auto``, the circuit's lattice, or a
    named lattice) is chosen by that price and cut to fit a memory budget,
    and every plan is checked against the budget before it runs."""
    budget = _parse_bytes(args.memory_budget) if args.memory_budget else None
    dtype = np.dtype(np.complex64 if args.precision == "single" else np.complex128)
    c_sites = _c_sites_arg(args, circuit) if batch else ()
    try:  # 'auto' or a lattice name: that lattice's builtin plan
        named = circuit.lattice if args.plan == "auto" else Lattice.named(args.plan)
    except ValueError:
        named = None
    if named is not None:
        if c_sites is None:  # every placement and cut count batches over one region
            c_sites = builtin_plan(named).batch_sites
        plan = builtin_plan(named, circuit.depth, memory_budget=budget,
                            open_sites=c_sites, itemsize=dtype.itemsize,
                            two_qubit_gate=circuit.two_qubit_gate)
    else:
        try:
            plan = load_plan(args.plan)
        except (OSError, PlanError) as e:
            raise UsageError(f"bad plan {args.plan}: {e}")
        if c_sites is None:
            c_sites = plan.batch_sites
    if batch and not c_sites:
        raise UsageError("plan has no batch region; give --c-sites")
    engine = AmplitudeEngine(circuit, plan, dtype=dtype,
                             thread_count=_threads_arg(args),
                             memory_budget=budget)
    cost = estimate_cost(plan, circuit.lattice, circuit.depth, open_sites=c_sites,
                         itemsize=dtype.itemsize,
                         two_qubit_gate=circuit.two_qubit_gate)
    plan_echo = {"plan_flops": cost.total_flops,
                 "plan_peak_bytes": cost.peak_bytes,
                 "c_joins": plan.c_join_step()}
    return engine, c_sites, plan_echo


def _threads_arg(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be >= 1")
    return _default_threads() if args.threads is None else args.threads


def _n_c_arg(args, c_sites) -> int:
    """--n-c, default min(32, 2^|C|); at most the 2^|C| completions."""
    top = 2 ** len(c_sites)
    if args.n_c is not None and not 1 <= args.n_c <= top:
        raise UsageError(f"--n-c must be in 1..{top}, got {args.n_c}")
    return min(32, top) if args.n_c is None else args.n_c


def _fidelity(args) -> FidelitySpec:
    try:
        return FidelitySpec(f=args.fidelity, seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e))


def _bits_arg(value: Optional[str], n: int) -> str:
    try:
        return as_bits("0" * n if value is None else value, n)
    except ValueError as e:
        raise UsageError(str(e))


def _c_sites_arg(args, circuit) -> Optional[tuple[int, ...]]:
    """--c-sites as sorted sites, or None for 'auto' (the plan's batch
    region)."""
    if args.c_sites is None or args.c_sites == "auto":
        return None
    sites = tuple(sorted(_parse_int_list(args.c_sites)))
    if any(not 0 <= s < circuit.n for s in sites):
        raise UsageError(f"--c-sites outside 0..{circuit.n - 1}")
    if len(set(sites)) != len(sites):
        raise UsageError(f"--c-sites lists a site twice: {args.c_sites!r}")
    return sites


def _config_echo(args, command: str, **extra) -> dict:
    cfg = {"command": command, "backend": _kernels.get_backend()}
    for key in ("circuit", "lattice", "depth", "seed", "plan", "precision",
                "threads", "memory_budget", "fidelity", "in_bits", "out_bits",
                "s_ab", "c_sites", "n_c", "m", "target", "samples", "tol",
                "bins", "batches", "scheme", "rank", "gammas", "repeats", "trace"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if hasattr(args, "precision"):  # the commands that run the engine
        cfg["effective_threads"] = _kernels.effective_threads(_threads_arg(args))
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    try:
        lattice = Lattice.named(args.lattice)
        depth = DepthSpec.parse(args.depth)
    except ValueError as e:
        raise UsageError(str(e))
    circuit = generate_rqc(lattice, depth, seed=args.seed,
                           two_qubit_gate=args.two_qubit_gate)
    with _open_out(args) as fh:
        fh.write(write_circuit(circuit))
    return 0


def _cmd_amplitude(args) -> int:
    circuit = _load_circuit(args)
    if args.out_bits is not None and args.c_sites is not None:
        raise UsageError("--out and --c-sites are mutually exclusive")
    in_bits = _bits_arg(args.in_bits, circuit.n)
    fid = _fidelity(args)

    if args.oracle:
        if args.out_bits is None:
            raise UsageError("--oracle mode needs --out")
        if args.trace is not None:
            raise UsageError("--trace traces the engine, not --oracle")
        out = _bits_arg(args.out_bits, circuit.n)
        amp = oracle.exact_amplitude(circuit, in_bits, out)
        records = [{"in": in_bits, "out": out, "re": amp.real, "im": amp.imag,
                    "oracle": True}]
        cfg = _config_echo(args, "amplitude", oracle=True)
    else:
        engine, c_sites, plan_echo = _make_engine(args, circuit,
                                               batch=args.out_bits is None)
        cfg = _config_echo(args, "amplitude", plan_kind=engine.plan.lattice_kind,
                           **plan_echo)
        engine.trace = args.trace is not None
        if args.out_bits is not None:
            out = _bits_arg(args.out_bits, circuit.n)
            amp, stats = engine.amplitude(in_bits, out, fidelity=fid)
            records = [amplitude_record(in_bits, out, amp, fid, stats)]
            key = {"in": in_bits, "out": out}
        else:
            n_c = _n_c_arg(args, c_sites)
            s_ab = _bits_arg(args.s_ab, circuit.n)
            batch = engine.amplitude_batch(in_bits, s_ab, c_sites, n_c,
                                           seed=args.seed, fidelity=fid)
            records = list(batch_records(batch))
            stats, key = batch.stats, {"in": in_bits, "s_ab": s_ab}
        if args.trace is not None:
            try:
                with open(args.trace, "w") as fh:
                    write_amplitudes(fh, ({**key, **step} for step in stats.steps))
            except OSError as e:
                raise UsageError(f"cannot write trace file: {e}")
    with _open_out(args) as fh:
        write_amplitudes(fh, [{"config": cfg}])
        write_amplitudes(fh, records)
    return 0


def _cmd_sample(args) -> int:
    if args.max_batches is not None and args.max_batches < 1:
        raise UsageError("--max-batches must be >= 1")
    circuit = _load_circuit(args)
    engine, c_sites, plan_echo = _make_engine(args, circuit, batch=True)
    in_bits = _bits_arg(args.in_bits, circuit.n)
    n_c = _n_c_arg(args, c_sites)
    try:
        config = SamplerConfig(n_c=n_c, target_samples=args.target, m=args.m,
                               seed=args.seed, fidelity=_fidelity(args))
    except ValueError as e:
        raise UsageError(str(e))
    start = time.perf_counter()
    run = sample_circuit(engine, c_sites, config, in_bits=in_bits,
                         max_batches=args.max_batches)
    seconds = time.perf_counter() - start
    cfg = _config_echo(args, "sample", c_sites=list(c_sites), n_c=n_c,
                       planned_batches=required_batches(args.m, n_c,
                                                        args.target),
                       **plan_echo)
    with _open_out(args) as fh:
        fh.write(f"# config: {json.dumps(cfg)}\n")
        write_samples(fh, run, batches_per_s=run.batches_used / seconds)
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if not 0 <= args.tol < float("inf"):  # nan fails too
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    circuit = _load_circuit(args)
    engine, _, plan_echo = _make_engine(args, circuit)
    if circuit.n > oracle.MAX_QUBITS:
        raise MemoryBudgetError(
            f"verification needs the reference simulator; "
            f"{circuit.n} qubits exceeds its {oracle.MAX_QUBITS}-qubit cap")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    start = time.perf_counter()
    state = oracle.evolve(circuit, 0)
    reference_s = time.perf_counter() - start
    fid = _fidelity(args)
    max_abs = 0.0
    max_rel = 0.0
    engine_s = 0.0
    for _ in range(args.samples):
        out = int(rng.integers(0, circuit.N))
        got, stats = engine.amplitude(0, out, fidelity=fid)
        engine_s += stats.seconds
        want = complex(state[out])
        diff = abs(got - want)
        max_abs = max(max_abs, diff)
        if want != 0:
            max_rel = max(max_rel, diff / abs(want))
    ok = max_abs <= args.tol
    report = {"config": _config_echo(args, "verify", **plan_echo),
              "samples": args.samples, "max_abs_diff": max_abs,
              "max_rel_err": max_rel, "tolerance": args.tol,
              "reference_s": reference_s, "engine_s": engine_s,
              "pass": bool(ok)}
    with _open_out(args) as fh:
        fh.write(json.dumps(report) + "\n")
    if not ok:
        print(f"verify: max |diff| {max_abs:.3e} exceeds tolerance "
              f"{args.tol:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_analyze_pt(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    try:
        with open(args.amplitudes) as fh:
            records = read_amplitudes(fh)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read amplitudes: {e}")
    records = [r for r in records if "re" in r]
    if not records:
        raise UsageError("no amplitude records in file")
    if len({len(r["out"]) for r in records}) != 1:
        raise UsageError("amplitude records have outputs of different lengths")
    n_dim = 2 ** len(records[0]["out"])
    probs = analysis.probabilities_from_records(records)
    hist = analysis.porter_thomas_check(probs, n_dim, bins=args.bins)
    with _open_out(args) as fh:
        fh.write(f"# config: {json.dumps(_config_echo(args, 'analyze pt'))}\n")
        fh.write(f"# count: {hist.count}\n")
        fh.write(f"# ks_stat: {hist.ks_stat:.8g}\n")
        fh.write(hist.to_csv())
    return 0


def _cmd_analyze_pearson(args) -> int:
    if args.batches < 2:
        raise UsageError("--batches must be >= 2 to correlate")
    circuit = _load_circuit(args)
    engine, c_sites, plan_echo = _make_engine(args, circuit, batch=True)
    n_c = _n_c_arg(args, c_sites)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    batches = []
    for _ in range(args.batches):
        s_ab = "".join(format(b, "d")
                       for b in rng.integers(0, 2, size=circuit.n))
        batches.append(engine.amplitude_batch(0, s_ab, c_sites, n_c,
                                              seed=args.seed,
                                              fidelity=_fidelity(args)))
    report = analysis.pearson_vs_hamming(batches)
    cfg = _config_echo(args, "analyze pearson", c_sites=list(c_sites), n_c=n_c,
                       **plan_echo)
    with _open_out(args) as fh:
        fh.write(f"# config: {json.dumps(cfg)}\n")
        fh.write(f"# pairs: {len(report.r)}\n")
        fh.write(report.to_csv())
    return 0


def _cmd_analyze_xeb(args) -> int:
    circuit = _load_circuit(args)
    in_bits = _bits_arg(args.in_bits, circuit.n)
    try:
        with open(args.samples) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as e:
        raise UsageError(f"cannot read samples: {e}")
    samples = [ln for ln in lines
               if ln and not ln.startswith("#") and not ln.startswith("{")]
    if not samples:
        raise UsageError("no samples in file")
    for line in samples:
        try:
            as_bits(line, circuit.n)
        except ValueError as e:
            raise UsageError(f"bad sample: {e}")
    probs = oracle.exact_distribution(circuit, in_bits)
    f_hat = analysis.xeb_fidelity(samples, probs)
    report = {"config": _config_echo(args, "analyze xeb"),
              "samples": len(samples), "xeb_fidelity": f_hat}
    with _open_out(args) as fh:
        fh.write(json.dumps(report) + "\n")
    return 0


def _cmd_complexity(args) -> int:
    try:
        lattice = Lattice.named(args.lattice)
        depth = DepthSpec.parse(args.depth)
    except ValueError as e:
        raise UsageError(str(e))
    with _open_out(args) as fh:
        fh.write(f"# config: {json.dumps(_config_echo(args, 'complexity'))}\n")
        if args.table:
            fh.write(table_csv(complexity_table(lattice, depth)))
        else:
            try:
                spec, cost = best_partition(lattice, depth, args.scheme)
            except ValueError as e:
                raise UsageError(str(e))
            fh.write(f"# best: {args.scheme} {spec.label} "
                     f"sizes={list(spec.sizes)} "
                     f"alphas={list(spec.cross_counts)}\n")
            fh.write(f"{cost:g}\n")
    return 0


def _cmd_bench_permute(args) -> int:
    text = args.gammas.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        try:
            gammas = range(int(lo), int(hi) + 1)
        except ValueError:
            raise UsageError(f"bad gamma range {text!r}")
    else:
        gammas = _parse_int_list(text)
    threads = _parse_int_list(args.threads)
    if any(not 2 <= g <= args.rank - 2 for g in gammas):
        raise UsageError(f"--gammas must lie in [2, rank - 2] = "
                         f"[2, {args.rank - 2}]")
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    if any(t < 1 for t in threads):
        raise UsageError("--threads must be >= 1")
    rows = benchmark_permute(rank=args.rank, gammas=gammas,
                             thread_counts=threads, repeats=args.repeats,
                             compare_backends=args.compare_backends,
                             seed=args.seed)
    cfg = _config_echo(args, "bench permute", threads=threads)
    with _open_out(args) as fh:
        fh.write(f"# config: {json.dumps(cfg)}\n")
        fh.write(benchmark_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, PlanError) as e:  # a plan that does not fit the circuit
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MemoryBudgetError, MemoryError) as e:
        print(f"resource error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

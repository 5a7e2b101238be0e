"""Amplitude computation: circuits in, (batches of) amplitudes out.

The engine owns the expensive artifacts — the all-outputs-open 2D network
for a circuit and the contraction plan — and answers amplitude queries by
slicing output indexes and summing the plan's paths.  Keeping every
output open in the cached network means one network build serves any
number of queried bit-strings; fixing an output is a view of the cached,
read-only site arrays.

Fidelity is traded for cost by keeping only a fraction ``f`` of the
paths: the resulting state has fidelity f against the exact one, and the
returned amplitudes are the corresponding sub-sums.  ``f_achieved_estimate``
on the emitted records is N * |a|^2 per amplitude; averaged over many
random bit-strings of a chaotic circuit it estimates the achieved
fidelity (it concentrates around f).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence, Union

import numpy as np

from .circuits import Circuit
from .contraction_plan import (ContractionPlan, PlanExecutor, builtin_plan,
                               enumerate_paths)
from .network_builder import Net2D, as_bits, build_3d, contract_time, out_label
from .tensor_core import Tensor


@dataclass(frozen=True)
class FidelitySpec:
    """Which fraction of paths to sum, and which ones.

    ``f=1`` keeps every path (exact amplitudes).  For smaller ``f`` the
    kept paths are a seeded uniform draw, so two runs with the same spec
    see the same sub-sum.
    """

    f: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.f <= 1.0:
            raise ValueError(f"fidelity fraction must be in (0, 1], got {self.f}")

    def paths_for(self, cut_dims: Sequence[int]) -> list[tuple[int, ...]]:
        return enumerate_paths(cut_dims, f=self.f, seed=self.seed)


@dataclass(frozen=True)
class PathStats:
    """What one amplitude (or batch) cost."""

    paths_total: int
    paths_used: int
    flops: int
    peak_bytes: int  # the executor's bound on its live set
    seconds: float   # wall time of the amplitude (or batch) call
    steps: tuple = ()  # per plan step, from a tracing engine (PlanExecutor.step_trace)


@dataclass(frozen=True)
class AmplitudeBatch:
    """Amplitudes for one fixed s_AB and many completions of region C."""

    in_bits: str
    s_ab: str                      # bits of the non-open qubits, by qubit id
    c_sites: tuple[int, ...]       # open qubits, ascending
    c_values: tuple[int, ...]      # completions, as integers over c_sites bits
    amplitudes: np.ndarray         # complex, aligned with c_values
    fidelity: FidelitySpec
    stats: PathStats

    def __len__(self) -> int:
        return len(self.c_values)

    def out_bits(self, i: int) -> str:
        """Full output bit-string for entry i (qubit 0 leftmost)."""
        bits = list(self.s_ab)
        cbits = format(self.c_values[i], f"0{len(self.c_sites)}b")
        for q, b in zip(self.c_sites, cbits):
            bits[q] = b
        return "".join(bits)


class AmplitudeEngine:
    """Computes amplitudes of one circuit via its contraction plan.  With
    ``trace`` every amplitude's and batch's stats carry per-step figures."""

    def __init__(self, circuit: Circuit, plan: Optional[ContractionPlan] = None,
                 *, dtype=np.complex64, thread_count: int = 1,
                 memory_budget: Optional[int] = None, trace: bool = False):
        self.circuit = circuit
        self.dtype = np.dtype(dtype)
        self.plan = plan if plan is not None else builtin_plan(
            circuit.lattice, circuit.depth, itemsize=self.dtype.itemsize,
            two_qubit_gate=circuit.two_qubit_gate)
        self.thread_count = thread_count
        self.memory_budget = memory_budget
        self.trace = trace
        self._nets: dict[str, Net2D] = {}  # in_bits -> all-outputs-open network

    def base_net(self, in_bits: Union[str, int] = 0) -> Net2D:
        """The all-outputs-open network for ``in_bits`` (cached).  Its site
        arrays are read-only: fixed outputs and cut slices are views of
        them, so a write into any operand would corrupt later queries."""
        key = as_bits(in_bits, self.circuit.n)
        net = self._nets.get(key)
        if net is None:
            net = contract_time(build_3d(self.circuit, in_bits=key,
                                         out_bits=None, dtype=self.dtype))
            for t in net.tensors.values():
                t.array.flags.writeable = False
            self._nets[key] = net
        return net

    def _executor(self, net: Net2D) -> PlanExecutor:
        return PlanExecutor(net, self.plan, thread_count=self.thread_count,
                            memory_budget=self.memory_budget, trace=self.trace)

    def _stats(self, ex: PlanExecutor, paths: int, start: float) -> PathStats:
        return PathStats(math.prod(ex.cut_dims), paths, ex.flops, ex.peak_bytes,
                         time.perf_counter() - start,
                         tuple(ex.step_trace()) if self.trace else ())

    def amplitude(self, in_bits: Union[str, int], out_bits: Union[str, int],
                  fidelity: FidelitySpec = FidelitySpec()) -> tuple[complex, PathStats]:
        """One amplitude <out|U|in>, summed over the selected paths."""
        start = time.perf_counter()
        n = self.circuit.n
        out = as_bits(out_bits, n)
        net = self.base_net(in_bits).fix_outputs(
            {q: int(b) for q, b in enumerate(out)})
        ex = self._executor(net)
        paths = fidelity.paths_for(ex.cut_dims)
        total = sum(ex.run(p).scalar() for p in paths)
        return total, self._stats(ex, len(paths), start)

    def amplitude_batch(self, in_bits: Union[str, int], s_ab: Union[str, int],
                        c_sites: Sequence[int], n_c: int, *, seed: int = 0,
                        fidelity: FidelitySpec = FidelitySpec()) -> AmplitudeBatch:
        """Amplitudes for ``n_c`` distinct completions of the open region.

        ``s_ab`` fixes the output bits of every qubit outside ``c_sites``
        (its bits at the open positions are ignored).  The completions are
        a seeded draw without replacement from the 2^|C| assignments, so a
        batch is n_c candidate bit-strings sharing one contraction.
        """
        start = time.perf_counter()
        n = self.circuit.n
        c_sites = tuple(sorted(c_sites))
        if not c_sites:
            raise ValueError("batch region is empty")
        if len(set(c_sites)) != len(c_sites):
            raise ValueError("duplicate sites in batch region")
        if not 1 <= n_c <= 2 ** len(c_sites):
            raise ValueError(f"n_c={n_c} not in [1, 2^{len(c_sites)}]")
        s_ab = as_bits(s_ab, n)
        open_set = set(c_sites)

        net = self.base_net(in_bits).fix_outputs(
            {q: int(b) for q, b in enumerate(s_ab) if q not in open_set})
        ex = self._executor(net)
        paths = fidelity.paths_for(ex.cut_dims)
        total = _path_sum(ex, paths, [out_label(q) for q in c_sites])

        rng = np.random.Generator(np.random.PCG64(seed))
        if n_c == 2 ** len(c_sites):
            values = np.arange(n_c)
        else:
            values = np.sort(rng.choice(2 ** len(c_sites), size=n_c,
                                        replace=False))
        amps = total.reshape(-1)[values]
        return AmplitudeBatch(as_bits(in_bits, n), s_ab, c_sites,
                              tuple(int(v) for v in values), amps,
                              fidelity, self._stats(ex, len(paths), start))

    def state(self, in_bits: Union[str, int] = 0,
              fidelity: FidelitySpec = FidelitySpec()) -> np.ndarray:
        """Full output state as a 2^n vector (qubit 0 is the leading bit).

        Exponential in qubit count — a diagnostic for desk-scale circuits,
        and the reference for fidelity-versus-fraction experiments.
        """
        ex = self._executor(self.base_net(in_bits))
        return _path_sum(ex, fidelity.paths_for(ex.cut_dims),
                         [out_label(q) for q in range(self.circuit.n)]).reshape(-1)


def _path_sum(ex: PlanExecutor, paths, labels: Sequence[str]) -> np.ndarray:
    """``ex``'s output summed over ``paths`` in the order every path gives
    it, then transposed once to ``labels``."""
    acc = None
    for p in paths:
        t = ex.run(p)
        acc = t.array.copy() if acc is None else acc + t.array
    return Tensor(t.labels, acc).transpose_to(labels).array


def mixed_state_samples(circuit: Circuit, f: float, count: int,
                        seed: int = 0) -> np.ndarray:
    """Bit-string samples from a state of fidelity ``f``.

    Draws from the exact output distribution with probability f and from
    the uniform distribution otherwise — the standard stand-in for a noisy
    sampler whose cross-entropy fidelity is f.  Needs the exact
    distribution, so it is desk-scale only.
    """
    from . import oracle

    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {f}")
    probs = oracle.exact_distribution(circuit)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_states = probs.size
    exact = rng.choice(n_states, size=count, p=probs)
    uniform = rng.integers(0, n_states, size=count)
    take_exact = rng.random(count) < f
    return np.where(take_exact, exact, uniform)


def amplitude_record(in_bits: str, out_bits: str, amplitude: complex,
                     fidelity: FidelitySpec, stats: PathStats) -> dict:
    """One JSON-ready record; ``f_achieved_estimate`` is N * |a|^2, whose
    mean over many random bit-strings estimates the achieved fidelity, and
    ``flops``, ``peak_bytes`` and ``seconds`` are those of the call that
    gave the amplitude (for a batch entry, of the whole batch)."""
    a = complex(amplitude)
    return {
        "in": in_bits,
        "out": out_bits,
        "re": a.real,
        "im": a.imag,
        "f_target": fidelity.f,
        "f_achieved_estimate": (2 ** len(in_bits)) * abs(a) ** 2,
        "paths": stats.paths_used,
        "seed": fidelity.seed,
        "flops": stats.flops,
        "peak_bytes": stats.peak_bytes,
        "seconds": stats.seconds,
    }


def batch_records(batch: AmplitudeBatch) -> Iterable[dict]:
    """Flatten a batch into one record per amplitude."""
    for i in range(len(batch)):
        yield amplitude_record(batch.in_bits, batch.out_bits(i),
                               batch.amplitudes[i], batch.fidelity, batch.stats)


def write_amplitudes(fh: IO[str], records: Iterable[dict]):
    """JSON-lines writer: one record per line."""
    for record in records:
        fh.write(json.dumps(record) + "\n")


def read_amplitudes(fh: IO[str]) -> list[dict]:
    """JSON-lines reader; skips blank lines."""
    return [json.loads(line) for line in fh if line.strip()]

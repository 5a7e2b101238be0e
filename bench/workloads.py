"""The benchmark's four workloads.

Each workload makes its inputs from the seed, sets up what a CLI call
would (circuit, plan, engine, all-outputs-open network), runs whole rounds
of operations through the public API, and afterwards checks every output
it kept against a computation made apart from the timed path.  Program
functions are called through their modules, so the traced run's wrappers
see every call.

A round covers every circuit of the workload once.  In single precision
the speed of a circuit depends on whether its intermediates underflow to
subnormal floats, so the single-precision grid workloads use fixed
circuits and the seed chooses the outputs and the sampler's draws.  On
grid:4x4 a run's ~2000 batches over four circuits, one of them with
subnormals, average the effect out.  On grid:6x6 it also depends on the
output (circuit 20: 12.5-16.9 s per amplitude), which two amplitudes per
run cannot average, so that workload keeps to circuit 0.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from rqcsim import amplitude_engine, circuits, contraction_plan, oracle, sampler

import checks
import common

REFERENCE_DIR = common.BENCH_DIR / "references"


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def stats_record(stats, count: int = 1) -> dict:
    return {"paths": stats.paths_used * count, "flops": stats.flops * count,
            "peak_bytes": stats.peak_bytes}


class Workload:
    lattice = ""
    depth = ""
    dtype = np.complex64
    results_name = ""     # what ``results_per_s`` counts
    ops_per_prediction = 1
    open_sites: tuple[int, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.results = 0

    def circuit_seeds(self) -> tuple[int, ...]:
        return (self.seed,)

    def setup(self) -> None:
        lattice = circuits.Lattice.named(self.lattice)
        self.plan = contraction_plan.builtin_plan(lattice, self.depth)
        self.circuits = []
        self.engines = []
        for seed in self.circuit_seeds():
            circuit = circuits.generate_rqc(lattice, self.depth, seed=seed)
            engine = amplitude_engine.AmplitudeEngine(
                circuit, self.plan, dtype=self.dtype, thread_count=1)
            engine.base_net(0)
            self.circuits.append(circuit)
            self.engines.append(engine)

    def prediction(self) -> dict:
        """The cost model's figures for one operation."""
        est = contraction_plan.estimate_cost(
            self.plan, self.circuits[0].lattice, self.depth,
            open_sites=self.open_sites, itemsize=np.dtype(self.dtype).itemsize)
        return {"flops": est.total_flops * self.ops_per_prediction,
                "peak_bytes": est.peak_bytes}

    def round(self, i: int, clock) -> None:
        raise NotImplementedError

    def single_op(self) -> None:
        """One operation whose outputs are not kept (memory tracing)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class AmplitudeWorkload(Workload):
    results_name = "amplitudes"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.kept: list[tuple[int, int, complex]] = []   # (circuit, output, amplitude)

    def output(self, i: int, k: int) -> int:
        raise NotImplementedError

    def round(self, i: int, clock) -> None:
        for k, engine in enumerate(self.engines):
            out = self.output(i, k)
            with clock.op() as rec:
                amp, stats = engine.amplitude(0, out)
            rec.update(stats_record(stats))
            self.kept.append((k, out, amp))
            self.results += 1

    def single_op(self) -> None:
        self.engines[0].amplitude(0, self.output(0, 0))


class GridAmplitudes(AmplitudeWorkload):
    """grid:6x6 1+16+1, generated plan, amplitudes at seeded outputs."""

    name = "amp-grid6x6"
    lattice = "grid:6x6"
    depth = "1+16+1"

    def circuit_seeds(self) -> tuple[int, ...]:
        return (0,)

    def output(self, i: int, k: int) -> int:
        return int(seeded_rng(self.seed, i, k).integers(0, 2 ** 36))

    def check(self) -> list[str]:
        """Each single-precision amplitude against a double-precision one
        under a 5-cut plan, and, for the first output, the cut identity
        between 4- and 5-cut plans in double precision."""
        def engine(circuit, cuts):
            plan = contraction_plan.grid_plan(circuit.lattice, n_cuts=cuts)
            return amplitude_engine.AmplitudeEngine(circuit, plan,
                                                    dtype=np.complex128)

        refs = [engine(c, 5) for c in self.circuits]
        problems = []
        for j, (k, out, amp) in enumerate(self.kept):
            n = self.circuits[k].n
            want, _ = refs[k].amplitude(0, out)
            problems += checks.amplitudes_match(
                amp, want, n, checks.SINGLE_RTOL,
                f"circuit {k}, output {out}: single precision vs double")
            if j == 0:
                other, _ = engine(self.circuits[k], 4).amplitude(0, out)
                problems += checks.amplitudes_match(
                    other, want, n, checks.DOUBLE_RTOL,
                    f"circuit {k}, output {out}: 4-cut vs 5-cut plan")
        return problems


class BristleconeAmplitudes(AmplitudeWorkload):
    """bristlecone-24 1+32+1, shipped plan, outputs with stored references."""

    name = "amp-bristlecone24"
    lattice = "bristlecone-24"
    depth = "1+32+1"
    reference_file = REFERENCE_DIR / "bristlecone-24_1+32+1.json"

    def __init__(self, seed: int):
        super().__init__(seed)
        with open(self.reference_file, encoding="utf-8") as fh:
            stored = json.load(fh)["circuits"]
        self.reference = stored[seed % len(stored)]
        order = seeded_rng(self.seed).permutation(len(self.reference["outputs"]))
        self.order = [int(k) for k in order]

    def circuit_seeds(self) -> tuple[int, ...]:
        return (self.reference["circuit_seed"],)

    def output(self, i: int, k: int) -> int:
        return self.reference["outputs"][self.order[i % len(self.order)]]

    def check(self) -> list[str]:
        """Against dense-reference amplitudes stored by make_references.py."""
        text = circuits.write_circuit(self.circuits[0])
        if hashlib.sha256(text.encode()).hexdigest() != \
                self.reference["circuit_sha256"]:
            return ["circuit differs from the one the references were made "
                    "for; run python3 bench/make_references.py"]
        ref = self.reference
        stored = dict(zip(ref["outputs"],
                          (complex(a, b) for a, b in zip(ref["re"], ref["im"]))))
        got = [amp for _, _, amp in self.kept]
        want = [stored[out] for _, out, _ in self.kept]
        return checks.amplitudes_match(got, want, self.circuits[0].n,
                                       checks.SINGLE_RTOL,
                                       "engine vs dense reference")


class FrugalSampling(Workload):
    """sample_circuit on grid:4x4 1+16+1; one operation is one batch."""

    name = "sample-grid4x4"
    lattice = "grid:4x4"
    depth = "1+16+1"
    results_name = "accepted samples"
    c_sites = tuple(range(8, 16))
    open_sites = c_sites
    n_c = 64
    m = 10
    samples_per_call = 25

    def __init__(self, seed: int):
        super().__init__(seed)
        self.samples: list[list[str]] = []
        self.batches: list[list[tuple[str, tuple[int, ...], np.ndarray]]] = []
        self.batches_used = 0
        self.calls = 0
        self._clock = None

    def circuit_seeds(self) -> tuple[int, ...]:
        return (0, 1, 2, 3)   # 2: its batches hold subnormal floats

    def setup(self) -> None:
        super().setup()
        for k, engine in enumerate(self.engines):
            engine.amplitude_batch = self._timed_batch(k)
            self.samples.append([])
            self.batches.append([])

    def _timed_batch(self, k: int):
        engine = self.engines[k]

        def timed(*args, **kwargs):
            # the class attribute, looked up per call, is what tracing wraps
            batch_fn = type(engine).amplitude_batch
            with self._clock.op() as rec:
                batch = batch_fn(engine, *args, **kwargs)
            rec.update(stats_record(batch.stats))
            self.batches[k].append((batch.s_ab, batch.c_values, batch.amplitudes))
            return batch

        return timed

    def round(self, i: int, clock) -> None:
        self._clock = clock
        for k, engine in enumerate(self.engines):
            cfg = sampler.SamplerConfig(
                n_c=self.n_c, target_samples=self.samples_per_call, m=self.m,
                seed=int(seeded_rng(self.seed, i, k).integers(2 ** 62)))
            run = sampler.sample_circuit(engine, self.c_sites, cfg)
            self.samples[k].extend(run.samples)
            self.batches_used += run.batches_used
            self.calls += 1
            self.results += len(run.samples)

    def single_op(self) -> None:
        engine = self.engines[0]
        type(engine).amplitude_batch(engine, 0, 0, self.c_sites, self.n_c)

    def check(self) -> list[str]:
        """Every batch entry against the dense state; each circuit's samples'
        XEB fidelity within a bound set by its sample count."""
        problems = []
        for k, circuit in enumerate(self.circuits):
            n = circuit.n
            state = oracle.evolve(circuit, 0)
            idx = np.concatenate([checks.batch_indices(n, s_ab, self.c_sites, vals)
                                  for s_ab, vals, _ in self.batches[k]])
            amps = np.concatenate([a for _, _, a in self.batches[k]])
            problems += checks.amplitudes_match(
                amps, state[idx], n, checks.SINGLE_RTOL,
                f"circuit {k}: batch entries vs dense state")
            problems += checks.xeb_within([int(s, 2) for s in self.samples[k]],
                                          np.abs(state) ** 2, self.m)
        return problems


class Verification(Workload):
    """grid:4x5 1+24+1 in double precision, verified as ``rqcsim verify``
    does: the dense reference state, then 50 engine amplitudes compared."""

    name = "verify-grid4x5"
    lattice = "grid:4x5"
    depth = "1+24+1"
    dtype = np.complex128
    results_name = "verified amplitudes"
    samples = 50
    tol = 1e-10
    ops_per_prediction = samples

    def __init__(self, seed: int):
        super().__init__(seed)
        self.norms: list[float] = []
        self.max_abs: list[float] = []

    def _verify(self, outs):
        circuit, engine = self.circuits[0], self.engines[0]
        state = oracle.evolve(circuit, 0)
        max_abs = 0.0
        for out in outs:
            got, stats = engine.amplitude(0, int(out))
            max_abs = max(max_abs, abs(got - complex(state[out])))
        return state, max_abs, stats

    def _outputs(self, i: int):
        return seeded_rng(self.seed, i).integers(0, self.circuits[0].N,
                                                 size=self.samples)

    def round(self, i: int, clock) -> None:
        outs = self._outputs(i)
        with clock.op() as rec:
            state, max_abs, stats = self._verify(outs)
        rec.update(stats_record(stats, len(outs)))
        self.norms.append(float(np.vdot(state, state).real))
        self.max_abs.append(max_abs)
        self.results += self.samples

    def single_op(self) -> None:
        self._verify(self._outputs(0))

    def check(self) -> list[str]:
        problems = []
        for norm2, max_abs in zip(self.norms, self.max_abs):
            problems += checks.unit_norm(norm2)
            problems += checks.max_abs_within(max_abs, self.tol,
                                              "verification")
        return problems


WORKLOADS = {w.name: w for w in (GridAmplitudes, BristleconeAmplitudes,
                                 FrugalSampling, Verification)}

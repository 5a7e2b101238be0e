"""Path-summed amplitudes, fidelity fractions, batches, and the record format."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from rqcsim import contraction_plan, oracle, tensor_core
from rqcsim.amplitude_engine import (
    AmplitudeBatch,
    AmplitudeEngine,
    FidelitySpec,
    amplitude_record,
    batch_records,
    mixed_state_samples,
    read_amplitudes,
    write_amplitudes,
)
from rqcsim.circuits import Lattice, generate_rqc
from rqcsim.contraction_plan import estimate_cost, grid_plan

from conftest import placement


@pytest.fixture(scope="module")
def engine_4x4(circuit_4x4_t16):
    return AmplitudeEngine(circuit_4x4_t16, dtype=np.complex128)


class TestAmplitude:
    def test_matches_reference(self, engine_4x4, state_4x4_t16):
        for out in (0, 1234, 65535):
            amp, stats = engine_4x4.amplitude(0, out)
            assert abs(amp - state_4x4_t16[out]) < 1e-10
            assert stats.paths_used == stats.paths_total

    def test_single_precision_tolerance(self, circuit_4x4_t16, state_4x4_t16):
        eng = AmplitudeEngine(circuit_4x4_t16, dtype=np.complex64)
        amp, _ = eng.amplitude(0, 4321)
        exact = state_4x4_t16[4321]
        assert abs(amp - exact) / abs(exact) < 1e-4

    def test_nonzero_input(self, circuit_4x4_t16):
        eng = AmplitudeEngine(circuit_4x4_t16, dtype=np.complex128)
        amp, _ = eng.amplitude("0000111100001111", 99)
        want = oracle.exact_amplitude(circuit_4x4_t16, 0b0000111100001111, 99)
        assert abs(amp - want) < 1e-10

    def test_default_plan_is_priced_for_the_circuit(self):
        """The default plan is builtin_plan's choice at the circuit's depth,
        the engine's precision and the circuit's two-qubit gate."""
        lat = Lattice.named("grid:6x6")
        eng = AmplitudeEngine(generate_rqc(lat, "1+16+1", seed=0))
        assert placement(eng.plan) == placement(grid_plan(lat, c_early=True))
        lat = Lattice.named("grid:3x4")
        for gate in ("cz", "iswap"):
            circ = generate_rqc(lat, "1+16+1", seed=0, two_qubit_gate=gate)
            for dtype in (np.complex64, np.complex128):
                eng = AmplitudeEngine(circ, dtype=dtype)
                assert eng.plan == contraction_plan.builtin_plan(
                    lat, "1+16+1", itemsize=np.dtype(dtype).itemsize,
                    two_qubit_gate=gate)

    def test_explicit_plan(self, circuit_4x4_t16, state_4x4_t16):
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=2)
        eng = AmplitudeEngine(circuit_4x4_t16, plan, dtype=np.complex128)
        amp, stats = eng.amplitude(0, 77)
        assert abs(amp - state_4x4_t16[77]) < 1e-10
        assert stats.paths_total == 16


class TestFidelityFraction:
    def test_path_count_is_ceil(self, engine_4x4):
        _, stats = engine_4x4.amplitude(0, 5, FidelitySpec(f=0.3))
        assert stats.paths_used == math.ceil(0.3 * stats.paths_total)

    def test_f1_uses_all_paths(self, engine_4x4):
        _, stats = engine_4x4.amplitude(0, 5, FidelitySpec(f=1.0))
        assert stats.paths_used == stats.paths_total

    def test_fraction_state_overlap_tracks_f(self, circuit_4x4_t16):
        """|<full|frac>|^2 normalized should sit near f on average."""
        eng = AmplitudeEngine(circuit_4x4_t16, dtype=np.complex128)
        full = eng.state(0)
        f = 0.5
        vals = []
        for seed in range(8):
            frac = eng.state(0, FidelitySpec(f=f, seed=seed))
            num = abs(np.vdot(full, frac)) ** 2
            den = np.vdot(frac, frac).real * np.vdot(full, full).real
            vals.append(num / den)
        assert abs(np.mean(vals) - f) / f < 0.4

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FidelitySpec(f=0.0)
        with pytest.raises(ValueError):
            FidelitySpec(f=1.00001)


class TestState:
    def test_full_state_matches_reference(self, engine_4x4, state_4x4_t16):
        got = engine_4x4.state(0)
        assert np.allclose(got, state_4x4_t16, atol=1e-10)


class TestBatch:
    def test_entries_equal_individual_amplitudes(self, engine_4x4, state_4x4_t16):
        c_sites = tuple(range(8, 16))
        batch = engine_4x4.amplitude_batch(0, "11110000" + "0" * 8, c_sites, 32, seed=5)
        assert len(batch.amplitudes) == 32
        for i in range(32):
            out = batch.out_bits(i)
            assert abs(batch.amplitudes[i] - state_4x4_t16[int(out, 2)]) < 1e-10

    def test_out_bits_merges_fixed_and_completion(self, engine_4x4):
        c_sites = (12, 13, 14, 15)
        batch = engine_4x4.amplitude_batch(0, "101010100101" + "0000", c_sites, 4, seed=1)
        for i in range(4):
            bits = batch.out_bits(i)
            assert len(bits) == 16
            assert bits[:12] == "101010100101"

    def test_full_completion_space_is_ordered(self, engine_4x4):
        c_sites = (12, 13, 14, 15)
        batch = engine_4x4.amplitude_batch(0, 0, c_sites, 16, seed=0)
        assert list(batch.c_values) == list(range(16))

    def test_subset_completions_unique_and_seeded(self, engine_4x4):
        c_sites = tuple(range(8, 16))
        b1 = engine_4x4.amplitude_batch(0, 0, c_sites, 32, seed=9)
        b2 = engine_4x4.amplitude_batch(0, 0, c_sites, 32, seed=9)
        b3 = engine_4x4.amplitude_batch(0, 0, c_sites, 32, seed=10)
        assert list(b1.c_values) == list(b2.c_values)
        assert list(b1.c_values) != list(b3.c_values)
        assert len(set(b1.c_values)) == 32

    def test_batches_share_one_pricing(self, engine_4x4, state_4x4_t16,
                                       monkeypatch):
        """Batches of one shape validate and price the plan once, in one
        walk, while each batch's executor starts with empty step and site
        caches."""
        calls = []
        walk = contraction_plan._walk
        monkeypatch.setattr(contraction_plan, "_walk",
                            lambda *a, **k: calls.append("_walk") or walk(*a, **k))
        contraction_plan._priced.cache_clear()
        c_sites = engine_4x4.plan.batch_sites
        rng = np.random.default_rng(7)
        batches = [engine_4x4.amplitude_batch(0, int(rng.integers(2 ** 16)),
                                              c_sites, 8, seed=i)
                   for i in range(20)]
        assert calls == ["_walk"]
        est = estimate_cost(engine_4x4.plan, engine_4x4.circuit.lattice, "1+16+1",
                            open_sites=c_sites, itemsize=16)
        for batch in batches:
            assert batch.stats.flops == est.total_flops
            assert batch.stats.peak_bytes == est.peak_bytes
            for i in range(len(batch)):
                want = state_4x4_t16[int(batch.out_bits(i), 2)]
                assert abs(batch.amplitudes[i] - want) < 1e-10

    def test_oversized_batch_rejected(self, engine_4x4):
        with pytest.raises(ValueError):
            engine_4x4.amplitude_batch(0, 0, (14, 15), 5, seed=0)


class TestCompiledRuns:
    """Per amplitude, the engine slices its cached network by views and
    runs a schedule compiled once per network shape."""

    def test_second_amplitude_makes_no_route_or_plan_lookups(
            self, circuit_3x4_t16, state_3x4_t16, monkeypatch):
        engine = AmplitudeEngine(circuit_3x4_t16, dtype=np.complex128)
        engine.amplitude(0, 5)
        routes = tensor_core.route.cache_info()
        plans = len(tensor_core._PLAN_CACHE)
        planned, lookups = tensor_core.planned, []
        monkeypatch.setattr(tensor_core, "planned",
                            lambda *a, **k: lookups.append(a) or planned(*a, **k))
        amp, _ = engine.amplitude(0, 6)
        info = tensor_core.route.cache_info()
        assert (info.hits, info.misses) == (routes.hits, routes.misses)
        assert len(tensor_core._PLAN_CACHE) == plans
        assert not lookups
        assert abs(amp - state_3x4_t16[6]) < 1e-10

    def test_fixed_outputs_are_views_of_a_read_only_base(self, circuit_3x4_t16):
        engine = AmplitudeEngine(circuit_3x4_t16)
        base = engine.base_net(0)
        fixed = base.fix_outputs({q: q % 2 for q in range(circuit_3x4_t16.n)})
        assert fixed.open_sites == ()
        for site, t in fixed.tensors.items():
            assert not any(label.startswith("out") for label in t.labels)
            assert t.array.flags.c_contiguous
            assert np.shares_memory(t.array, base.tensors[site].array)
        with pytest.raises(ValueError):
            base.tensors[0].array[...] = 0
        with pytest.raises(ValueError):
            fixed.tensors[0].array[...] = 0

    def test_trace_steps_sum_to_the_flops(self, circuit_3x4_t16):
        engine = AmplitudeEngine(circuit_3x4_t16, trace=True)
        _, stats = engine.amplitude(0, 3)
        assert [row["step"] for row in stats.steps] == \
            [step.name for step in engine.plan.steps()]
        assert sum(row["flops"] for row in stats.steps) == stats.flops
        assert AmplitudeEngine(circuit_3x4_t16).amplitude(0, 3)[1].steps == ()


class TestMixedStateSamples:
    def test_xeb_target_mixture(self, circuit_3x4_t16):
        """f=0.5 mixture: half the samples track the circuit distribution,
        half are uniform; its exact cross-entropy fidelity is f."""
        samples = mixed_state_samples(circuit_3x4_t16, 0.5, 2000, seed=4)
        assert samples.shape == (2000,)
        assert samples.dtype.kind in "iu"
        assert ((0 <= samples) & (samples < 4096)).all()

    def test_f1_draws_from_circuit(self, circuit_3x4_t16, state_3x4_t16):
        samples = mixed_state_samples(circuit_3x4_t16, 1.0, 5000, seed=0)
        probs = np.abs(state_3x4_t16) ** 2
        # empirical mean of p(sample) should be near sum p^2 (PT: ~2/N)
        got = probs[samples].mean()
        want = (probs**2).sum()
        assert abs(got - want) / want < 0.1

    def test_reproducible(self, circuit_3x4_t16):
        a = mixed_state_samples(circuit_3x4_t16, 0.5, 100, seed=5)
        b = mixed_state_samples(circuit_3x4_t16, 0.5, 100, seed=5)
        assert np.array_equal(a, b)


class TestRecords:
    def test_amplitude_record_fields(self, engine_4x4):
        amp, stats = engine_4x4.amplitude(0, 3)
        rec = amplitude_record("0" * 16, format(3, "016b"), amp,
                               FidelitySpec(), stats)
        assert rec["in"] == "0" * 16
        assert rec["out"].endswith("11")
        assert np.isclose(rec["re"] + 1j * rec["im"], amp)
        assert (rec["flops"], rec["peak_bytes"]) == (stats.flops, stats.peak_bytes)

    def test_batch_records_roundtrip(self, engine_4x4):
        batch = engine_4x4.amplitude_batch(0, 0, (12, 13, 14, 15), 8, seed=2)
        buf = io.StringIO()
        write_amplitudes(buf, batch_records(batch))
        buf.seek(0)
        back = read_amplitudes(buf)
        assert len(back) == 8
        for i, rec in enumerate(back):
            assert rec["out"] == batch.out_bits(i)
            assert np.isclose(
                rec["re"] + 1j * rec["im"], batch.amplitudes[i], atol=1e-12
            )

"""Each output check passes on correct outputs and fails on perturbed ones.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

import common

common.pin_threads()
common.use_checkout_source()

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from rqcsim import oracle  # noqa: E402


def perturbed(values, rel: float):
    values = np.asarray(values, dtype=np.complex128)
    return values + rel * np.abs(values).max()


def test_amplitudes_match_tolerances():
    want = np.array([1e-3 + 2e-3j, -4e-4j])
    assert checks.amplitudes_match(want, want, 20, checks.DOUBLE_RTOL, "x") == []
    assert checks.amplitudes_match(perturbed(want, 1e-9), want, 20,
                                   checks.DOUBLE_RTOL, "x")
    assert checks.amplitudes_match(perturbed(want, 1e-4), want, 20,
                                   checks.SINGLE_RTOL, "x")
    assert checks.amplitudes_match([np.nan], [1.0], 1, 1.0, "x")


def test_grid_single_vs_double():
    wl = workloads.GridAmplitudes(3)
    wl.setup()
    k = 0
    out = wl.output(0, k)
    ref = workloads.amplitude_engine.AmplitudeEngine(
        wl.circuits[k], workloads.contraction_plan.grid_plan(wl.circuits[k].lattice, 6),
        dtype=np.complex128)
    exact, _ = ref.amplitude(0, out)
    wl.kept = [(k, out, complex(np.complex64(exact)))]
    assert wl.check() == []
    wl.kept = [(k, out, complex(perturbed([exact], 1e-4)[0]))]
    assert wl.check()


def test_bristlecone_against_stored_references():
    wl = workloads.BristleconeAmplitudes(5)
    wl.setup()
    ref = wl.reference
    by_out = {o: complex(a, b) for o, a, b in zip(ref["outputs"], ref["re"], ref["im"])}
    outs = [wl.output(i, 0) for i in range(3)]
    exact = [by_out[o] for o in outs]
    wl.kept = [(0, o, a) for o, a in zip(outs, exact)]
    assert wl.check() == []
    wl.kept = [(0, o, a) for o, a in zip(outs, perturbed(exact, 1e-4))]
    assert wl.check()
    wl.kept = [(0, o, a) for o, a in zip(outs, exact)]
    wl.reference = dict(ref, circuit_sha256="0" * 64)
    assert wl.check()


@pytest.fixture(scope="module")
def sampled():
    wl = workloads.FrugalSampling(2)
    wl.setup()
    clock = harness.Clock()
    harness.run_rounds(wl, clock, seconds=0.0)       # one whole round
    return wl


def test_sampling_batches_against_dense_state(sampled):
    assert sampled.check() == []
    batches = sampled.batches[2]
    s_ab, values, amps = batches[0]
    batches[0] = (s_ab, values, perturbed(amps, 1e-4))
    try:
        assert sampled.check()
    finally:
        batches[0] = (s_ab, values, amps)


def test_xeb_bound_separates_faithful_from_uniform(sampled):
    probs = np.abs(oracle.evolve(sampled.circuits[0], 0)) ** 2
    rng = np.random.default_rng(0)
    faithful = rng.choice(probs.size, size=2000, p=probs)
    uniform = rng.integers(0, probs.size, size=2000)
    assert checks.xeb_within(faithful, probs, sampled.m) == []
    assert checks.xeb_within(uniform, probs, sampled.m)


def test_verification_norm_and_agreement():
    wl = workloads.Verification(0)
    wl.norms, wl.max_abs = [1.0 + 1e-15], [1e-17]
    assert wl.check() == []
    wl.norms = [1.0 + 1e-9]
    assert wl.check()
    wl.norms, wl.max_abs = [1.0], [1e-9]
    assert wl.check()

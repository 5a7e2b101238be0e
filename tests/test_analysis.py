"""Verification statistics: shape of the output distribution, cross-correlation
of batch probabilities, and the cross-entropy fidelity estimator."""

from __future__ import annotations

import numpy as np
import pytest

from rqcsim import oracle
from rqcsim.amplitude_engine import AmplitudeEngine, mixed_state_samples
from rqcsim.analysis import (
    pearson_from_matrix,
    pearson_vs_hamming,
    porter_thomas_check,
    probabilities_from_records,
    xeb_fidelity,
)


class TestPorterThomas:
    def test_exponential_input_has_tiny_ks(self):
        """Synthetic chaotic-circuit probabilities: p ~ Exp(1/N)."""
        rng = np.random.default_rng(0)
        n = 2**20
        probs = rng.exponential(1.0 / n, size=100_000)
        hist = porter_thomas_check(probs, n)
        assert hist.ks_stat < 0.01
        assert hist.count == 100_000

    def test_point_mass_is_far_from_exponential(self):
        n = 2**10
        probs = np.full(5000, 1.0 / n)
        hist = porter_thomas_check(probs, n)
        # KS distance of a point mass at x=1 from Exp(1) is 1 - 1/e
        assert hist.ks_stat == pytest.approx(1 - 1 / np.e, abs=1e-3)

    def test_density_normalized(self):
        rng = np.random.default_rng(1)
        probs = rng.exponential(1.0 / 4096, size=20_000)
        hist = porter_thomas_check(probs, 4096)
        widths = np.diff(hist.edges)
        assert np.isclose((hist.density * widths).sum(), 1.0, atol=1e-9)

    def test_reference_curve_is_exponential(self):
        rng = np.random.default_rng(2)
        probs = rng.exponential(1.0 / 4096, size=20_000)
        hist = porter_thomas_check(probs, 4096)
        assert np.allclose(hist.reference, np.exp(-hist.centers), atol=1e-12)

    def test_rejects_small_inputs(self):
        with pytest.raises(ValueError):
            porter_thomas_check(np.full(999, 1e-3), 2**10)
        with pytest.raises(ValueError):
            porter_thomas_check(np.full(1000, 1e-3), 2**10, bins=1001)

    def test_real_circuit_distribution_is_porter_thomas_like(self, state_3x4_t16):
        """Desk-scale golden: the exact 12-qubit output distribution already
        hugs the exponential curve."""
        probs = np.abs(state_3x4_t16) ** 2
        hist = porter_thomas_check(probs, probs.size)
        assert hist.ks_stat < 0.05

    def test_csv_layout(self):
        rng = np.random.default_rng(3)
        probs = rng.exponential(1.0 / 4096, size=5000)
        hist = porter_thomas_check(probs, 4096, bins=20)
        lines = hist.to_csv().strip().splitlines()
        assert lines[0] == "x,empirical_density,reference_density"
        assert len(lines) == 21


class TestPearson:
    def test_independent_batches_have_near_zero_r(self):
        rng = np.random.default_rng(4)
        n_batches, n_c = 200, 32
        probs = rng.exponential(1.0, size=(n_batches, n_c))
        c_values = list(range(n_c))
        rep = pearson_from_matrix(probs, c_values)
        assert rep.pairs.shape == (n_c * (n_c - 1) // 2, 2)
        assert np.abs(rep.r).mean() < 3.0 / np.sqrt(n_batches)

    def test_identical_columns_give_r_one(self):
        rng = np.random.default_rng(5)
        col = rng.exponential(1.0, size=300)
        probs = np.stack([col, col], axis=1)
        rep = pearson_from_matrix(probs, [0, 1])
        assert rep.r[0] == pytest.approx(1.0, abs=1e-12)

    def test_hamming_distances(self):
        probs = np.random.default_rng(6).exponential(1.0, size=(50, 4))
        rep = pearson_from_matrix(probs, [0b00, 0b01, 0b11, 0b10])
        got = dict(zip(map(tuple, rep.pairs), rep.hamming))
        assert got[(0, 1)] == 1   # 00 vs 01
        assert got[(0, 2)] == 2   # 00 vs 11
        assert got[(1, 2)] == 1   # 01 vs 11

    def test_distance_stats_grouping(self):
        probs = np.random.default_rng(7).exponential(1.0, size=(100, 4))
        rep = pearson_from_matrix(probs, [0, 1, 2, 3])
        stats = rep.distance_stats()
        assert sum(cnt for _, _, cnt in stats.values()) == 6

    def test_engine_batches_share_completions(self, circuit_3x4_t16):
        eng = AmplitudeEngine(circuit_3x4_t16, dtype=np.complex128)
        c_sites = tuple(range(4, 12))
        batches = [
            eng.amplitude_batch(0, v << 8, c_sites, 16, seed=0)
            for v in range(12)
        ]
        rep = pearson_vs_hamming(batches)
        assert len(rep.c_values) == 16
        assert rep.pairs.shape == (120, 2)

    def test_mismatched_batches_rejected(self, circuit_3x4_t16):
        eng = AmplitudeEngine(circuit_3x4_t16, dtype=np.complex128)
        c_sites = tuple(range(4, 12))
        a = eng.amplitude_batch(0, 0, c_sites, 16, seed=0)
        b = eng.amplitude_batch(0, 1 << 8, c_sites, 16, seed=99)
        with pytest.raises(ValueError):
            pearson_vs_hamming([a, b])

    def test_single_batch_rejected(self, circuit_3x4_t16):
        eng = AmplitudeEngine(circuit_3x4_t16, dtype=np.complex128)
        a = eng.amplitude_batch(0, 0, tuple(range(4, 12)), 8, seed=0)
        with pytest.raises(ValueError):
            pearson_vs_hamming([a])

    def test_csv_layout(self):
        probs = np.random.default_rng(8).exponential(1.0, size=(50, 4))
        rep = pearson_from_matrix(probs, [0, 1, 2, 3])
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "hamming,mean_r,std_r"


class TestXEB:
    def test_perfect_sampler_scores_one(self, circuit_3x4_t16, state_3x4_t16):
        probs = np.abs(state_3x4_t16) ** 2
        samples = mixed_state_samples(circuit_3x4_t16, 1.0, 50_000, seed=1)
        f_hat = xeb_fidelity(samples, probs)
        assert f_hat == pytest.approx(1.0, abs=0.05)

    def test_uniform_sampler_scores_zero(self, state_3x4_t16):
        probs = np.abs(state_3x4_t16) ** 2
        rng = np.random.default_rng(2)
        samples = rng.integers(0, probs.size, size=50_000)
        f_hat = xeb_fidelity(samples, probs)
        assert f_hat == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("f", [0.25, 0.5])
    def test_mixture_scores_f(self, circuit_3x4_t16, state_3x4_t16, f):
        probs = np.abs(state_3x4_t16) ** 2
        samples = mixed_state_samples(circuit_3x4_t16, f, 50_000, seed=3)
        assert xeb_fidelity(samples, probs) == pytest.approx(f, abs=0.05)

    def test_bitstring_samples_accepted(self, state_3x4_t16):
        probs = np.abs(state_3x4_t16) ** 2
        strings = [format(i, "012b") for i in (0, 5, 100)]
        as_str = xeb_fidelity(strings, probs)
        as_int = xeb_fidelity([0, 5, 100], probs)
        assert as_str == as_int

    @pytest.mark.parametrize("sample", ["0101", "1" * 13, "", "-00000000001",
                                        "0b0000000001", "00000_000001"])
    def test_malformed_bitstring_rejected(self, state_3x4_t16, sample):
        """A 12-qubit distribution takes 12 chars of 0/1 only: a shorter
        string would read as a low index, a longer one overflow, and a
        sign would index from the end."""
        with pytest.raises(ValueError, match="12 chars of 0/1"):
            xeb_fidelity(["0" * 12, sample], np.abs(state_3x4_t16) ** 2)

    @pytest.mark.parametrize("sample", [-1, 4096])
    def test_integer_sample_out_of_range_rejected(self, state_3x4_t16, sample):
        """-1 would index the last probability; 4096 is past the end."""
        with pytest.raises(ValueError, match="outside 0..4095"):
            xeb_fidelity([0, sample], np.abs(state_3x4_t16) ** 2)

    def test_empty_samples_rejected(self, state_3x4_t16):
        with pytest.raises(ValueError):
            xeb_fidelity([], np.abs(state_3x4_t16) ** 2)

    def test_uniform_distribution_rejected(self):
        # flat p makes the estimator's denominator vanish
        probs = np.full(4096, 1 / 4096)
        with pytest.raises(ValueError):
            xeb_fidelity([0, 1], probs)

    def test_zero_probability_sample_rejected(self):
        probs = np.zeros(16)
        probs[0] = 1.0
        with pytest.raises(ValueError):
            xeb_fidelity([3], probs)


class TestRecordHelpers:
    def test_probabilities_from_records(self):
        recs = [{"re": 0.6, "im": 0.8}, {"re": 0.0, "im": 0.5}]
        probs = probabilities_from_records(recs)
        assert np.allclose(probs, [1.0, 0.25])

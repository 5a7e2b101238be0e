"""Statistical checks on circuit output: Porter-Thomas shape, batch
independence, and cross-entropy fidelity.

A chaotic circuit's output probabilities approach the Porter-Thomas law:
x = N*p is exponentially distributed with unit rate.  ``porter_thomas_check``
histograms x against e^{-x} and reports the Kolmogorov-Smirnov statistic, but
deliberately bakes in no pass/fail threshold — convergence is depth-dependent
and the caller owns the policy.

``pearson_vs_hamming`` tests whether amplitudes inside one batch (same s_AB,
many completions of region C) behave as independent draws: for every pair of
completions it correlates the two probability sequences across many s_AB and
groups the coefficients by the Hamming distance between the completions.  For
a converged circuit the coefficients scatter around zero at every distance.

``xeb_fidelity`` is the cross-entropy estimate
f = (N*mean(p_sampled) - 1) / (N*sum(p^2) - 1), linear in the mixing
parameter of a state that is the target state with probability f and fully
depolarized otherwise: it reads 1 for perfect sampling and 0 for uniform
bit-strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PTHistogram", "PearsonReport", "porter_thomas_check",
    "pearson_vs_hamming", "pearson_from_matrix", "xeb_fidelity",
    "probabilities_from_records",
]


@dataclass(frozen=True)
class PTHistogram:
    """Empirical distribution of x = N*p against the e^{-x} reference."""

    edges: np.ndarray       # bin edges, length bins+1, starting at 0
    density: np.ndarray     # empirical density per bin (integrates to 1)
    reference: np.ndarray   # e^{-x} at bin centers
    count: int
    ks_stat: float          # KS distance between x and Exp(1)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def to_csv(self) -> str:
        lines = ["x,empirical_density,reference_density"]
        lines += [f"{x:.8g},{d:.8g},{r:.8g}"
                  for x, d, r in zip(self.centers, self.density, self.reference)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PearsonReport:
    """Per-pair correlations between completions, grouped by Hamming distance."""

    c_values: tuple[int, ...]   # the shared completion list
    pairs: np.ndarray           # (n_pairs, 2) completion indexes, i < j
    r: np.ndarray               # Pearson coefficient per pair
    hamming: np.ndarray         # Hamming distance per pair

    def distance_stats(self) -> dict[int, tuple[float, float, int]]:
        """distance -> (mean r, std of r, pair count)."""
        out = {}
        for d in sorted(set(self.hamming.tolist())):
            sel = self.r[self.hamming == d]
            out[int(d)] = (float(sel.mean()), float(sel.std()), int(sel.size))
        return out

    def to_csv(self) -> str:
        lines = ["hamming,mean_r,std_r"]
        lines += [f"{d},{m:.8g},{s:.8g}"
                  for d, (m, s, _) in self.distance_stats().items()]
        return "\n".join(lines) + "\n"


def porter_thomas_check(probabilities, n: int, *, bins: int = 50) -> PTHistogram:
    """Histogram x = n*p against e^{-x} and report the KS statistic."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.size < 1000:
        raise ValueError(f"need at least 1000 probabilities, got {probs.size}")
    if probs.size < bins:
        raise ValueError(f"fewer samples ({probs.size}) than bins ({bins})")
    x = probs * n
    density, edges = np.histogram(x, bins=bins, range=(0.0, float(x.max())),
                                  density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    from scipy import stats  # deferred: importing scipy.stats costs ~1 s
    ks = stats.kstest(x, "expon").statistic
    return PTHistogram(edges, density, np.exp(-centers), int(probs.size),
                       float(ks))


def pearson_from_matrix(probs: np.ndarray,
                        c_values: Sequence[int]) -> PearsonReport:
    """Pearson report from a (batches, completions) probability matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError("need a 2-d matrix with at least 2 completions")
    if probs.shape[0] < 2:
        raise ValueError("need at least 2 batches to correlate")
    if probs.shape[1] != len(c_values):
        raise ValueError("completion list does not match matrix width")
    corr = np.corrcoef(probs, rowvar=False)
    k = probs.shape[1]
    pairs = np.array([(i, j) for i in range(k) for j in range(i + 1, k)])
    r = corr[pairs[:, 0], pairs[:, 1]]
    ham = np.array([(c_values[i] ^ c_values[j]).bit_count()
                    for i, j in pairs])
    return PearsonReport(tuple(int(v) for v in c_values), pairs, r, ham)


def pearson_vs_hamming(batches: Sequence) -> PearsonReport:
    """Correlate completion probabilities across batches sharing one s_C list.

    Every batch must carry the identical c_sites and c_values; the k
    completions give k(k-1)/2 pairs.
    """
    if len(batches) < 2:
        raise ValueError("need at least 2 batches to correlate")
    first = batches[0]
    for b in batches[1:]:
        if b.c_sites != first.c_sites or b.c_values != first.c_values:
            raise ValueError("batches do not share the same completion list")
    probs = np.abs(np.stack([np.asarray(b.amplitudes, dtype=np.complex128)
                             for b in batches])) ** 2
    return pearson_from_matrix(probs, first.c_values)


def xeb_fidelity(samples: Iterable, probabilities) -> float:
    """Cross-entropy fidelity of sampled bit-strings against exact p.

    ``samples`` are output bit-strings (binary strings of n characters, or
    integers); ``probabilities`` is the full exact 2^n vector for the
    sampled circuit.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    n_bits = probs.size.bit_length() - 1
    idx = []
    for s in samples:
        if isinstance(s, str) and (len(s) != n_bits or set(s) - {"0", "1"}):
            raise ValueError(f"sample {s!r} is not {n_bits} chars of 0/1")
        i = int(s, 2) if isinstance(s, str) else int(s)
        if not 0 <= i < probs.size:
            raise ValueError(f"sample {s!r} is outside 0..{probs.size - 1}")
        idx.append(i)
    idx = np.array(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("no samples given")
    p_sampled = probs[idx]
    if np.any(p_sampled == 0.0):
        raise ValueError("sampled bit-string has zero exact probability")
    n = probs.size
    denom = n * float((probs ** 2).sum()) - 1.0
    if denom <= 0.0:
        raise ValueError("exact distribution is uniform; fidelity undefined")
    return (n * float(p_sampled.mean()) - 1.0) / denom


def probabilities_from_records(records: Iterable[dict]) -> np.ndarray:
    """|amplitude|^2 for each amplitude JSON record, from its ``re`` and
    ``im`` fields.  Both must be finite reals; a record without them is
    refused with a ValueError naming it."""
    probs = []
    for rec in records:
        parts = [rec.get("re"), rec.get("im")]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in parts):
            raise ValueError(f"amplitude record {rec} needs finite real "
                             "'re' and 'im'")
        probs.append(parts[0] ** 2 + parts[1] ** 2)
    return np.array(probs, dtype=np.float64)

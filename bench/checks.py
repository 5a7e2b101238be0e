"""Output checks, computed apart from the path under test.

Each function takes the program's outputs and an independent reference
(a dense state, another plan, another precision) and returns a list of
problems; an empty list means the outputs pass.  Amplitude tolerances are
relative, with the typical amplitude magnitude 2^(-n/2) as the floor so an
unusually small amplitude is not held to an impossible bound.  The
relative tolerances are the acceptance suite's: 1e-5 in single precision,
1e-10 in double.
"""

from __future__ import annotations

import math

import numpy as np

SINGLE_RTOL = 1e-5
DOUBLE_RTOL = 1e-10


def amplitudes_match(got, want, n_qubits: int, rtol: float,
                     what: str) -> list[str]:
    got = np.asarray(got, dtype=np.complex128).reshape(-1)
    want = np.asarray(want, dtype=np.complex128).reshape(-1)
    if got.shape != want.shape:
        return [f"{what}: {got.size} values against {want.size} references"]
    scale = np.maximum(np.abs(want), 2.0 ** (-n_qubits / 2))
    err = np.abs(got - want) / scale
    worst = float(err.max()) if err.size else 0.0
    if not worst <= rtol:   # also catches NaN
        return [f"{what}: relative error {worst:.3e} exceeds {rtol:.0e}"]
    return []


def unit_norm(norm: float, tol: float = 1e-12) -> list[str]:
    """``norm`` is the squared 2-norm of the reference state."""
    if not abs(norm - 1.0) <= tol:
        return [f"reference state norm^2 {norm!r} is not 1 within {tol:.0e}"]
    return []


def max_abs_within(max_abs: float, tol: float, what: str) -> list[str]:
    if not max_abs <= tol:
        return [f"{what}: max |engine - reference| {max_abs:.3e} exceeds {tol:.0e}"]
    return []


def batch_indices(n: int, s_ab: str, c_sites, c_values) -> np.ndarray:
    """Dense-state indices of a batch's entries (qubit 0 is the top bit)."""
    base = list(s_ab)
    for q in c_sites:
        base[q] = "0"
    weights = np.array([1 << (n - 1 - q) for q in c_sites], dtype=np.int64)
    k = len(c_sites)
    values = np.asarray(c_values, dtype=np.int64)
    bits = (values[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return int("".join(base), 2) + bits @ weights


def xeb_bounds(probs: np.ndarray, m: int, samples: int) -> tuple[float, float]:
    """Range the linear cross-entropy estimate N*mean(p) - 1 must fall in.

    Frugal rejection sampling with ceiling M draws close to q ~ min(p, M/N):
    the clipped distribution gives the lower end, exact sampling from p the
    upper.  Each end is widened by five standard errors of the mean of N*p
    over ``samples`` draws.
    """
    n_states = probs.size
    q = np.minimum(probs, m / n_states)
    q = q / q.sum()
    scaled = n_states * probs
    lo = float(q @ scaled) - 1.0
    hi = float(probs @ scaled) - 1.0
    spread = math.sqrt(max(float(q @ scaled ** 2) - (lo + 1.0) ** 2,
                           float(probs @ scaled ** 2) - (hi + 1.0) ** 2))
    margin = 5.0 * spread / math.sqrt(samples)
    return lo - margin, hi + margin


def xeb_within(sample_indices, probs: np.ndarray, m: int) -> list[str]:
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.size == 0:
        return ["no samples to score"]
    estimate = probs.size * float(probs[idx].mean()) - 1.0
    lo, hi = xeb_bounds(probs, m, idx.size)
    if not lo <= estimate <= hi:
        return [f"XEB fidelity {estimate:.4f} of {idx.size} samples outside "
                f"[{lo:.4f}, {hi:.4f}]"]
    return []

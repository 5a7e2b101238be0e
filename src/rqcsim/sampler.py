"""Frugal rejection sampling of output bit-strings from amplitude batches.

A batch of amplitudes that share one contraction (one s_AB, many completions
of the open region C) costs barely more than a single amplitude, so the
sampler consumes whole batches and accepts at most one bit-string from each:
entries are visited in a seeded-shuffle order and an entry with probability
p is accepted with min[1, p*N/M], where N is the Hilbert-space dimension and
M is the rejection ceiling.  Accepting at most one string per batch keeps
the accepted outputs free of intra-batch correlations.

Under a Porter-Thomas-distributed source a batch of N_C entries yields a
sample with probability 1 - (1 - 1/M)^N_C, which is what makes the scheme
frugal: for M = 10 and N_C = 30 a batch is already accepted 95.76% of the
time, so sampling a million bit-strings needs only a few percent more than
a million batches.

The ceiling M also bounds what the sampler can resolve: probabilities above
M/N are accepted with the clamped probability 1, so their excess weight is
lost.  ``estimate_sampling_error`` reports that excess as

    epsilon = (sum of the p_i strictly above M/N) * N / count,

which is zero exactly when no computed probability exceeds M/N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .amplitude_engine import AmplitudeEngine, FidelitySpec

__all__ = [
    "SamplerConfig", "SamplingErrorReport", "SampleRun",
    "accept_probability", "required_batches", "frugal_sample",
    "estimate_sampling_error", "circuit_batches", "sample_circuit",
    "write_samples",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one sampling run."""

    n_c: int                        # batch size (completions of region C)
    target_samples: int
    m: int = 10                     # rejection ceiling
    seed: int = 0
    fidelity: FidelitySpec = FidelitySpec()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"rejection ceiling m={self.m} must be >= 1")
        if self.n_c < 1:
            raise ValueError(f"batch size n_c={self.n_c} must be >= 1")
        if self.target_samples < 1:
            raise ValueError("target_samples must be >= 1")


@dataclass(frozen=True)
class SamplingErrorReport:
    """Statistical error from probabilities the ceiling M clips."""

    epsilon: float      # tail_mass * n / count
    m: int
    count: int          # probabilities inspected
    tail_mass: float    # sum of probabilities strictly above m/n


@dataclass(frozen=True)
class SampleRun:
    """Accepted bit-strings plus the accounting needed for the footer."""

    samples: tuple
    batches_used: int
    batch_size: int
    m: int
    n: int
    amplitude_count: int
    tail_mass: float

    @property
    def acceptance_rate(self) -> float:
        return len(self.samples) / self.batches_used if self.batches_used else 0.0

    def error_report(self) -> SamplingErrorReport:
        eps = self.tail_mass * self.n / self.amplitude_count \
            if self.amplitude_count else 0.0
        return SamplingErrorReport(eps, self.m, self.amplitude_count,
                                   self.tail_mass)

    def footer(self) -> dict:
        return {"M": self.m, "N_C": self.batch_size,
                "batches_used": self.batches_used,
                "acceptance_rate": self.acceptance_rate,
                "epsilon_estimate": self.error_report().epsilon}


def accept_probability(m: int, n_c: int) -> float:
    """Chance that a batch of n_c Porter-Thomas entries yields a sample."""
    if m < 1 or n_c < 1:
        raise ValueError("m and n_c must both be >= 1")
    return 1.0 - (1.0 - 1.0 / m) ** n_c


def required_batches(m: int, n_c: int, target_samples: int) -> int:
    """Batches needed so the expected accepted count reaches the target."""
    if target_samples < 1:
        raise ValueError("target_samples must be >= 1")
    return math.ceil(target_samples / accept_probability(m, n_c))


def _batch_probabilities(batch) -> np.ndarray:
    """Probabilities of one batch.

    Accepts an AmplitudeBatch (probabilities |a|^2), an
    (identities, probabilities) pair, or a bare probability array.
    """
    if hasattr(batch, "out_bits"):
        probs = np.abs(np.asarray(batch.amplitudes, dtype=np.complex128)) ** 2
    elif isinstance(batch, tuple) and len(batch) == 2:
        probs = np.asarray(batch[1], dtype=np.float64)
    else:
        probs = np.asarray(batch, dtype=np.float64)
    if not np.isfinite(probs).all():
        raise ValueError("batch contains non-finite probabilities")
    return probs


def _entry_identity(batch, index: int):
    """The accepted entry's bit-string (or its index, for bare arrays)."""
    if hasattr(batch, "out_bits"):
        return batch.out_bits(index)
    if isinstance(batch, tuple) and len(batch) == 2:
        return batch[0][index]
    return index


def frugal_sample(batches: Iterable, m: int, n: int, seed: int = 0,
                  target_samples: Optional[int] = None,
                  max_batches: Optional[int] = None) -> SampleRun:
    """Accept at most one bit-string per batch, in seeded-shuffle order.

    Each batch entry with probability p is accepted with min[1, p*n/m]; one
    uniform draw is consumed per entry, in visit order, so a run is fully
    determined by the seed and the batch stream.  Stops once
    ``target_samples`` strings are accepted (or ``max_batches`` batches are
    consumed, or the stream ends).
    """
    if m < 1:
        raise ValueError(f"rejection ceiling m={m} must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    threshold = m / n
    samples: list = []
    batches_used = 0
    batch_size = 0
    amplitude_count = 0
    tail_mass = 0.0
    for batch in batches:
        if target_samples is not None and len(samples) >= target_samples:
            break
        if max_batches is not None and batches_used >= max_batches:
            break
        probs = _batch_probabilities(batch)
        batches_used += 1
        batch_size = batch_size or len(probs)
        amplitude_count += len(probs)
        tail_mass += float(probs[probs > threshold].sum())
        order = rng.permutation(len(probs))
        u = rng.random(len(probs))
        hits = np.nonzero(u < np.minimum(1.0, probs[order] * (n / m)))[0]
        if hits.size:
            samples.append(_entry_identity(batch, int(order[hits[0]])))
    return SampleRun(tuple(samples), batches_used, batch_size, m, n,
                     amplitude_count, tail_mass)


def estimate_sampling_error(probabilities, m: int, n: int) -> SamplingErrorReport:
    """Error estimate from the probability mass the ceiling clips.

    epsilon = (sum of p_i strictly above m/n) * n / count.  Probabilities at
    or below the threshold are sampled faithfully and contribute nothing.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("no probabilities given")
    tail = float(probs[probs > m / n].sum())
    return SamplingErrorReport(tail * n / probs.size, m, int(probs.size), tail)


def circuit_batches(engine: AmplitudeEngine, c_sites: Sequence[int], n_c: int,
                    *, in_bits: Union[str, int] = 0, seed: int = 0,
                    fidelity: FidelitySpec = FidelitySpec()) -> Iterator:
    """Endless stream of batches with uniformly random s_AB per batch."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = engine.circuit.n
    while True:
        s_ab = "".join(format(b, "d") for b in rng.integers(0, 2, size=n))
        yield engine.amplitude_batch(in_bits, s_ab, c_sites, n_c,
                                     seed=int(rng.integers(2 ** 63)),
                                     fidelity=fidelity)


def sample_circuit(engine: AmplitudeEngine, c_sites: Sequence[int],
                   config: SamplerConfig, *, in_bits: Union[str, int] = 0,
                   max_batches: Optional[int] = None) -> SampleRun:
    """End-to-end run: stream engine batches into the rejection sampler."""
    stream = circuit_batches(engine, c_sites, config.n_c, in_bits=in_bits,
                             seed=config.seed, fidelity=config.fidelity)
    if max_batches is None:
        max_batches = 10 * required_batches(config.m, config.n_c,
                                            config.target_samples)
    return frugal_sample(stream, config.m, 2 ** engine.circuit.n,
                         seed=config.seed,
                         target_samples=config.target_samples,
                         max_batches=max_batches)


def write_samples(fh: IO[str], run: SampleRun, **extra):
    """One accepted bit-string per line, then a one-line JSON footer:
    ``run.footer()`` plus the ``extra`` entries."""
    for s in run.samples:
        fh.write(f"{s}\n")
    fh.write(json.dumps({**run.footer(), **extra}) + "\n")

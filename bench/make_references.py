"""Recompute the dense-reference amplitudes for ``amp-bristlecone24``.

The bristlecone-24 1+32+1 reference state takes ~2 minutes and ~1.3 GB
per circuit in ``rqcsim.oracle``, too much for every benchmark run, so
its amplitudes at a fixed set of outputs are stored in
``references/bristlecone-24_1+32+1.json``.  This command computes them
again from the dense state-vector simulator, independently of the
tensor-network path the workload times, and rewrites the file::

    python3 bench/make_references.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import common

LATTICE = "bristlecone-24"
DEPTH = "1+32+1"
CIRCUIT_SEEDS = (0, 1, 2, 3)
OUTPUTS_PER_CIRCUIT = 32
REFERENCE_FILE = common.BENCH_DIR / "references" / f"{LATTICE}_{DEPTH}.json"


def circuit_digest(circuit) -> str:
    from rqcsim.circuits import write_circuit

    return hashlib.sha256(write_circuit(circuit).encode()).hexdigest()


def reference_outputs(circuit_seed: int, n: int) -> list[int]:
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(10_000 + circuit_seed))
    picks = rng.choice(2 ** n, size=OUTPUTS_PER_CIRCUIT, replace=False)
    return sorted(int(v) for v in picks)


def compute() -> dict:
    from rqcsim import oracle
    from rqcsim.circuits import Lattice, generate_rqc

    circuits = []
    for seed in CIRCUIT_SEEDS:
        t0 = time.perf_counter()
        circuit = generate_rqc(Lattice.named(LATTICE), DEPTH, seed=seed)
        state = oracle.evolve(circuit, 0)
        outs = reference_outputs(seed, circuit.n)
        circuits.append({
            "circuit_seed": seed,
            "circuit_sha256": circuit_digest(circuit),
            "norm": float(abs(state @ state.conj())),
            "outputs": outs,
            "re": [float(state[o].real) for o in outs],
            "im": [float(state[o].imag) for o in outs],
        })
        del state
        print(f"circuit seed {seed}: {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    return {"lattice": LATTICE, "depth": DEPTH, "in_bits": 0,
            "command": "python3 bench/make_references.py",
            "circuits": circuits}


def main() -> int:
    common.pin_threads()
    common.use_checkout_source()
    REFERENCE_FILE.write_text(json.dumps(compute(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

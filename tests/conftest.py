"""Shared fixtures: small circuits and cached reference states."""

from __future__ import annotations

import numpy as np
import pytest

from rqcsim import _kernels, oracle
from rqcsim.circuits import Circuit, Lattice, generate_rqc


@pytest.fixture(scope="session")
def grid_2x2() -> Lattice:
    return Lattice.rectangle(2, 2)


@pytest.fixture(scope="session")
def grid_3x4() -> Lattice:
    return Lattice.rectangle(3, 4)


@pytest.fixture(scope="session")
def grid_4x4() -> Lattice:
    return Lattice.rectangle(4, 4)


@pytest.fixture(scope="session")
def bristlecone_24() -> Lattice:
    return Lattice.named("bristlecone-24")


@pytest.fixture(scope="session")
def circuit_4x4_t16(grid_4x4) -> Circuit:
    return generate_rqc(grid_4x4, "1+16+1", seed=3)


@pytest.fixture(scope="session")
def circuit_3x4_t16(grid_3x4) -> Circuit:
    return generate_rqc(grid_3x4, "1+16+1", seed=11)


@pytest.fixture(scope="session")
def state_4x4_t16(circuit_4x4_t16) -> np.ndarray:
    """Full state vector of the 4x4 reference circuit from |0...0>."""
    return oracle.evolve(circuit_4x4_t16)


@pytest.fixture(scope="session")
def state_3x4_t16(circuit_3x4_t16) -> np.ndarray:
    return oracle.evolve(circuit_3x4_t16)


@pytest.fixture(params=["numpy", "numba"])
def kernel_backend(request, monkeypatch) -> str:
    """Each kernel backend in turn.  Without numba installed, the numba case
    still takes numba's routes -- ``workspace_slots``' count and
    ``permute_fast``'s ping-pong between two buffers -- by having
    ``get_backend`` report it, while the move kernels run their NumPy
    versions."""
    if request.param == "numba" and not _kernels._HAVE_NUMBA:
        monkeypatch.setattr(_kernels, "get_backend", lambda: "numba")
    else:
        prev = _kernels.set_backend(request.param)
        request.addfinalizer(lambda: _kernels.set_backend(prev))
    return request.param


def placement(plan) -> tuple:
    """What a plan places where, blind to the order each step folds its
    inputs in: where C first meets the rest, the cuts, the batch sites,
    and the program with each step's inputs as a set (so each region's
    membership and the loop where each sliced site joins)."""
    return (plan.c_join_step(), plan.cuts, plan.batch_sites, [
        (payload.name, frozenset(payload.inputs), payload.reuse)
        if kind == "contract" else (kind, payload)
        for kind, payload in plan.program])


def pass_line(tag: str, detail: str) -> None:
    """One-line PASS marker printed by each acceptance check."""
    print(f"PASS {tag}: {detail}")

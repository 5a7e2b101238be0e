"""Dense state-vector reference simulator.

Independent of the tensor-network machinery: gates are applied one by
one, cycle by cycle, to a full 2^n state vector in double precision.  The
NumPy kernels work in place on the (2,)*n view of the state, so a run
needs little more memory than the state.  Used for cross-checking
amplitudes, distributions, and sampling statistics on small circuits;
refuses systems above `MAX_QUBITS`.

Conventions: qubit 0 is the most significant bit of the state index, so
bit-string '10...0' (qubit 0 set) maps to index 2^(n-1), and qubit q is
axis q of the (2,)*n view.
"""

from __future__ import annotations

import operator

import numpy as np

from . import _kernels
from .circuits import Circuit

MAX_QUBITS = 26

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
X_1_2 = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)
Y_1_2 = 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=np.complex128)
CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1j, 0],
     [0, 1j, 0, 0],
     [0, 0, 0, 1]], dtype=np.complex128)

GATE_MATRIX = {"h": H, "t": T, "x_1_2": X_1_2, "y_1_2": Y_1_2, "cz": CZ, "iswap": ISWAP}


def _check_size(circuit: Circuit):
    if circuit.n > MAX_QUBITS:
        raise ValueError(
            f"reference simulator capped at {MAX_QUBITS} qubits, got {circuit.n}")


def bits_to_index(bits: str) -> int:
    """Bit-string (leftmost char = qubit 0) to state index."""
    return int(bits, 2)


def index_to_bits(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def _index(bits: str | int, n: int) -> int:
    """State index of a basis state given as an n-char bit-string or an int."""
    if isinstance(bits, str):
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"bit-string must be {n} chars of 0/1, got {bits!r}")
        return bits_to_index(bits)
    index = operator.index(bits)
    if not 0 <= index < 1 << n:
        raise ValueError(f"basis index {bits} outside 0..{(1 << n) - 1}")
    return index


def evolve(circuit: Circuit, in_bits: str | int = 0) -> np.ndarray:
    """Full output state vector for a computational-basis input."""
    _check_size(circuit)
    n = circuit.n
    state = np.zeros(1 << n, dtype=np.complex128)
    state[_index(in_bits, n)] = 1.0
    view = state.reshape((2,) * n)

    for gates in circuit.by_cycle():
        for g in gates:
            if g.name in ("cz", "t"):  # 1 but on |1..1>: the last entry
                _kernels.apply_diag(view, g.qubits, GATE_MATRIX[g.name][-1, -1])
            elif g.name == "iswap":
                _kernels.apply_iswap(view, *g.qubits)
            else:
                _kernels.apply_1q(view, GATE_MATRIX[g.name], g.qubits[0])
    return state


def exact_amplitude(circuit: Circuit, in_bits: str | int, out_bits: str | int) -> complex:
    out = _index(out_bits, circuit.n)
    return complex(evolve(circuit, in_bits)[out])


def exact_distribution(circuit: Circuit, in_bits: str | int = 0) -> np.ndarray:
    """Output probabilities |<b|U|in>|^2 for all 2^n bit-strings b."""
    state = evolve(circuit, in_bits)
    return np.abs(state) ** 2

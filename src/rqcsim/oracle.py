"""Dense state-vector reference simulator.

Independent of the tensor-network machinery: the circuit runs on a full
2^n state vector in double precision.  One-qubit gates are fused: each
qubit's run of one-qubit gates is multiplied into one 2x2 matrix, applied
only when the qubit next meets a two-qubit gate or at the end.  Until the
first two-qubit gate the state is a product state, so it is written once,
with every qubit's leading run already applied.  The NumPy kernels work
in place on the (2,)*n view of the state, so a run needs little more
memory than the state.  Used for cross-checking amplitudes,
distributions, and sampling statistics on small circuits; refuses
systems above `MAX_QUBITS`.

Conventions: qubit 0 is the most significant bit of the state index, so
bit-string '10...0' (qubit 0 set) maps to index 2^(n-1), and qubit q is
axis q of the (2,)*n view.
"""

from __future__ import annotations

import operator
from functools import reduce

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
    """Full output state vector for a computational-basis input.

    Gates run in cycle order, except that each qubit's one-qubit gates
    wait, multiplied into one pending 2x2 matrix, until the qubit meets a
    two-qubit gate or the circuit ends.  Before the first two-qubit gate
    the pending matrices act on a product state, so they are folded into
    it as it is built.
    """
    _check_size(circuit)
    n = circuit.n
    index = _index(in_bits, n)
    pending: dict[int, np.ndarray] = {}
    state = view = None
    for g in circuit.gates:
        if len(g.qubits) == 1:
            (q,) = g.qubits
            gate = GATE_MATRIX[g.name]
            pending[q] = gate @ pending[q] if q in pending else gate
            continue
        if state is None:
            state = _product_state(n, index, pending)
            pending.clear()
            view = state.reshape((2,) * n)
        for q in g.qubits:
            _apply_pending(view, pending.pop(q, None), q)
        if g.name == "cz":  # 1 but on |11>: the last entry
            _kernels.apply_diag(view, g.qubits, CZ[-1, -1])
        else:
            _kernels.apply_iswap(view, *g.qubits)
    if state is None:
        return _product_state(n, index, pending)
    for q, gate in pending.items():
        _apply_pending(view, gate, q)
    return state


def _product_state(n: int, index: int, gates: dict[int, np.ndarray]) -> np.ndarray:
    """The state gates[q] |bit q of index> over all qubits, as a flat
    2^n vector.  It is written straight into its buffer as the outer
    product of the two half-registers' factors, each a 2^(n/2) vector."""
    factors = []
    for q in range(n):
        bit = (index >> (n - 1 - q)) & 1
        factors.append(gates[q][:, bit] if q in gates else np.eye(2)[bit])
    half = n // 2
    state = np.empty(1 << n, dtype=np.complex128)
    np.multiply.outer(reduce(np.kron, factors[:half], np.ones(1)),
                      reduce(np.kron, factors[half:], np.ones(1)),
                      out=state.reshape(1 << half, -1))
    return state


def _apply_pending(view: np.ndarray, gate: np.ndarray | None, q: int) -> None:
    """Apply a qubit's pending one-qubit matrix; diag(1, phase), such as a
    run of T gates, touches only the half of the state where q is 1."""
    if gate is None:
        return
    if gate[0, 1] == 0 and gate[1, 0] == 0 and gate[0, 0] == 1:
        if gate[1, 1] != 1:
            _kernels.apply_diag(view, (q,), gate[1, 1])
    else:
        _kernels.apply_1q(view, gate, q)


def exact_amplitude(circuit: Circuit, in_bits: str | int, out_bits: str | int) -> complex:
    out = _index(out_bits, circuit.n)
    return complex(evolve(circuit, in_bits)[out])


def exact_distribution(circuit: Circuit, in_bits: str | int = 0) -> np.ndarray:
    """Output probabilities |<b|U|in>|^2 for all 2^n bit-strings b."""
    state = evolve(circuit, in_bits)
    return np.abs(state) ** 2

"""Reference state-vector simulator checked against hand-built matrices."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcsim import _kernels, oracle
from rqcsim.amplitude_engine import AmplitudeEngine
from rqcsim.circuits import Circuit, DepthSpec, Gate, Lattice, generate_rqc
from rqcsim.contraction_plan import grid_plan

ONE_QUBIT = ("h", "t", "x_1_2", "y_1_2")

I2 = np.eye(2, dtype=np.complex128)


def kron_chain(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Brute-force circuit unitary built from explicit kron products.

    Qubit 0 is the most significant bit, so a gate on qubit q sits at kron
    position q counted from the left.
    """
    n = circuit.n
    u = np.eye(2**n, dtype=np.complex128)
    for cycle in range(circuit.depth.cycles):
        for g in circuit.cycle_gates(cycle):
            mat = oracle.GATE_MATRIX[g.name]
            if len(g.qubits) == 1:
                (q,) = g.qubits
                factors = [I2] * n
                factors[q] = mat
                full = kron_chain(*factors)
            else:
                a, b = g.qubits
                full = two_qubit_embed(mat, a, b, n)
            u = full @ u
    return u


def two_qubit_embed(mat: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    full = np.zeros((2**n, 2**n), dtype=np.complex128)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        col_sub = 2 * bits[a] + bits[b]
        for row_sub in range(4):
            amp = mat[row_sub, col_sub]
            if amp == 0:
                continue
            new = bits.copy()
            new[a], new[b] = row_sub >> 1, row_sub & 1
            row = sum(bit << (n - 1 - q) for q, bit in enumerate(new))
            full[row, col] += amp
    return full


class TestGateMatrices:
    def test_all_unitary(self):
        for name, m in oracle.GATE_MATRIX.items():
            assert np.allclose(m @ m.conj().T, np.eye(len(m))), name

    def test_half_rotations_square_to_pauli(self):
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(oracle.X_1_2 @ oracle.X_1_2, x)
        assert np.allclose(oracle.Y_1_2 @ oracle.Y_1_2, y)

    def test_diagonal_two_qubit_gate(self):
        assert np.allclose(oracle.CZ, np.diag([1, 1, 1, -1]))


class TestBitConventions:
    def test_round_trip(self):
        for n in (1, 3, 6):
            for idx in range(2**n):
                assert oracle.bits_to_index(oracle.index_to_bits(idx, n)) == idx

    def test_qubit0_is_most_significant(self):
        assert oracle.bits_to_index("100") == 4
        assert oracle.index_to_bits(4, 3) == "100"


class TestEvolve:
    def test_double_hadamard_is_identity(self, grid_2x2):
        # 1+0+1 depth: H layer immediately followed by H layer
        circ = generate_rqc(grid_2x2, "1+0+1", seed=0)
        state = oracle.evolve(circ)
        expect = np.zeros(16)
        expect[0] = 1
        assert np.allclose(state, expect, atol=1e-12)

    def test_matches_dense_unitary(self):
        lat = Lattice.rectangle(2, 2)
        circ = generate_rqc(lat, "1+6+1", seed=4)
        u = dense_unitary(circ)
        for in_idx in (0, 5, 15):
            got = oracle.evolve(circ, in_idx)
            assert np.allclose(got, u[:, in_idx], atol=1e-10)

    # On grid:1x3 every qubit pair is the leading or trailing two axes, so
    # it cannot catch a gate applied to a copy of the state; the others
    # can.  The one- and two-cut plans slice iSWAP bonds of dimension 4^k.
    @pytest.mark.parametrize("kind,depth,seed,cuts", [
        ("grid:1x3", "1+5+1", 2, (1,)),
        ("grid:2x2", "1+8+1", 1, (1, 2)),
        ("grid:1x4", "1+8+1", 1, (1,)),
        ("grid:2x3", "1+8+1", 1, (1, 2)),
    ], ids=["grid:1x3", "grid:2x2", "grid:1x4", "grid:2x3"])
    def test_iswap_circuit_matches_dense_unitary(self, kind, depth, seed, cuts):
        circ = generate_rqc(Lattice.named(kind), depth, seed=seed,
                            two_qubit_gate="iswap")
        want = dense_unitary(circ)[:, 0]
        assert np.allclose(oracle.evolve(circ), want, atol=1e-10)
        plans = [None] + [grid_plan(circ.lattice, n_cuts=k) for k in cuts]
        for plan in plans:
            engine = AmplitudeEngine(circ, plan, dtype=np.complex128)
            got = [engine.amplitude(0, out)[0] for out in range(circ.N)]
            assert np.allclose(got, want, atol=1e-10), plan

    def test_norm_preserved(self, circuit_3x4_t16, state_3x4_t16):
        assert np.isclose(np.linalg.norm(state_3x4_t16), 1.0, atol=1e-10)

    def test_in_bits_as_string(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+4+1", seed=1)
        assert np.allclose(
            oracle.evolve(circ, "0101"), oracle.evolve(circ, 5), atol=1e-14
        )

    def test_cz_sign_placement(self):
        """One explicit cz on |11>: amplitude sign flips exactly there."""
        lat = Lattice.rectangle(1, 2)
        gates = (
            Gate(0, "h", (0,)),
            Gate(0, "h", (1,)),
            Gate(1, "cz", (0, 1)),
        )
        circ = Circuit(lat, DepthSpec(1), gates)
        state = oracle.evolve(circ)
        assert np.allclose(state, np.array([1, 1, 1, -1]) / 2, atol=1e-12)

    def test_peak_memory_stays_near_the_state(self, circuit_4x4_t16):
        tracemalloc.start()
        try:
            state = oracle.evolve(circuit_4x4_t16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * state.nbytes

    @pytest.mark.parametrize("bits", [-1, -16, 16, "11", "00000", "01a1"])
    def test_rejects_bits_outside_the_register(self, grid_2x2, bits):
        circ = generate_rqc(grid_2x2, "1+4+1", seed=1)
        with pytest.raises(ValueError):
            oracle.evolve(circ, bits)
        with pytest.raises(ValueError):
            oracle.exact_amplitude(circ, 0, bits)

    def test_size_cap(self):
        lat = Lattice.rectangle(4, 7)  # 28 qubits > cap
        circ = generate_rqc(lat, "1+2+1", seed=0)
        with pytest.raises(ValueError):
            oracle.evolve(circ)


class TestKernels:
    """Each in-place kernel on a random 5-qubit state against the matrix
    built by kron products, walking the state in two pieces (the default
    on 5 qubits) and in pieces with one-amplitude slices."""

    N_QUBITS = 5

    @pytest.fixture(autouse=True, params=[14, 0])
    def piece_qubits(self, request, monkeypatch):
        monkeypatch.setattr(_kernels, "_PIECE_QUBITS", request.param)

    def random_state(self):
        rng = np.random.default_rng(7)
        dim = 2 ** self.N_QUBITS
        return rng.normal(size=dim) + 1j * rng.normal(size=dim)

    @pytest.mark.parametrize("name", ["h", "t", "x_1_2", "y_1_2"])
    def test_one_qubit_gate_on_every_qubit(self, name):
        n = self.N_QUBITS
        for q in range(n):
            psi = self.random_state()
            factors = [I2] * n
            factors[q] = oracle.GATE_MATRIX[name]
            want = kron_chain(*factors) @ psi
            _kernels.apply_1q(psi.reshape((2,) * n), oracle.GATE_MATRIX[name], q)
            assert np.abs(psi - want).max() <= 1e-14, q

    def test_t_on_every_qubit(self):
        n = self.N_QUBITS
        for q in range(n):
            psi = self.random_state()
            factors = [I2] * n
            factors[q] = oracle.T
            want = kron_chain(*factors) @ psi
            _kernels.apply_diag(psi.reshape((2,) * n), (q,), oracle.T[1, 1])
            assert np.abs(psi - want).max() <= 1e-14, q

    @pytest.mark.parametrize("name", ["cz", "iswap"])
    def test_two_qubit_gate_on_every_ordered_pair(self, name):
        n = self.N_QUBITS
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                psi = self.random_state()
                want = two_qubit_embed(oracle.GATE_MATRIX[name], a, b, n) @ psi
                view = psi.reshape((2,) * n)
                if name == "cz":
                    _kernels.apply_diag(view, (a, b), -1.0)
                else:
                    _kernels.apply_iswap(view, a, b)
                assert np.abs(psi - want).max() <= 1e-14, (a, b)


class TestApply1qBranches:
    """apply_1q picks slices, a gathered 2x2 product or a kron product by
    the run R = 2^(n-q-1) below its qubit.  On 14 qubits every position is
    checked against an einsum over the (2,)*n view, with pieces of the
    default size, several rows, and one row."""

    N_QUBITS = 14

    @pytest.fixture(autouse=True, params=[14, 8, 0])
    def piece_qubits(self, request, monkeypatch):
        monkeypatch.setattr(_kernels, "_PIECE_QUBITS", request.param)

    def test_positions_reach_every_branch(self):
        runs = [1 << (self.N_QUBITS - q - 1) for q in range(self.N_QUBITS)]
        assert min(runs) <= _kernels._KRON_MAX_RUN
        assert any(_kernels._KRON_MAX_RUN < r <= _kernels._MATMUL_MAX_RUN
                   for r in runs)
        assert max(runs) > _kernels._MATMUL_MAX_RUN

    @pytest.mark.parametrize("name", [*ONE_QUBIT, "random"])
    def test_every_position_matches_einsum(self, name):
        n = self.N_QUBITS
        rng = np.random.default_rng(17)
        if name == "random":  # a fused run is a general 2x2
            gate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        else:
            gate = oracle.GATE_MATRIX[name]
        for q in range(n):
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            axes = list(range(n))
            want = np.einsum(gate, [n, q], psi.reshape((2,) * n), axes,
                             [n if a == q else a for a in axes]).ravel()
            _kernels.apply_1q(psi.reshape((2,) * n), gate, q)
            assert np.abs(psi - want).max() <= 1e-14, q

    def test_refuses_a_non_contiguous_state(self):
        psi = np.zeros((2,) * 7, dtype=np.complex128)[:, 0]
        with pytest.raises(ValueError):
            _kernels.apply_1q(psi, oracle.H, 5)


def _lattice(n: int) -> Lattice:
    return Lattice.rectangle(2, n // 2) if n in (4, 6) else Lattice.rectangle(1, n)


def _circuit(lat: Lattice, ops) -> Circuit:
    """Gates in the order given, each in the first cycle after the last
    gate on its qubits."""
    free = [0] * lat.n
    gates = []
    for name, qubits in ops:
        cycle = max(free[q] for q in qubits)
        gates.append(Gate(cycle, name, qubits))
        for q in qubits:
            free[q] = cycle + 1
    return Circuit(lat, DepthSpec(max(0, max(free, default=0) - 2)), gates)


@st.composite
def hand_built_circuits(draw):
    n = draw(st.integers(2, 6))
    lat = _lattice(n)
    edges = lat.edges()
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(ONE_QUBIT + ("cz", "iswap")))
        if kind in ONE_QUBIT:
            ops.append((kind, (draw(st.integers(0, n - 1)),)))
        else:
            a, b = draw(st.sampled_from(edges))
            ops.append((kind, draw(st.sampled_from([(a, b), (b, a)]))))
    return _circuit(lat, ops), draw(st.integers(0, (1 << n) - 1))


class TestFusedEvolve:
    """evolve fuses one-qubit runs and starts from a product state; every
    circuit must still give the dense unitary's column."""

    @staticmethod
    def check(circ: Circuit, in_idx: int = 0):
        want = dense_unitary(circ)[:, in_idx]
        bits = oracle.index_to_bits(in_idx, circ.n)
        for arg in (in_idx, bits):
            got = oracle.evolve(circ, arg)
            assert np.abs(got - want).max() <= 1e-13, arg

    @settings(max_examples=60, deadline=None)
    @given(hand_built_circuits())
    def test_random_circuits_match_dense_unitary(self, case):
        self.check(*case)

    def test_no_two_qubit_gate(self):
        ops = [("h", (0,)), ("t", (0,)), ("x_1_2", (1,)), ("y_1_2", (2,)),
               ("t", (2,)), ("h", (1,))]
        self.check(_circuit(_lattice(3), ops), 5)

    def test_qubit_without_gates(self):
        ops = [("h", (0,)), ("cz", (0, 1)), ("x_1_2", (1,)), ("iswap", (0, 1))]
        self.check(_circuit(_lattice(3), ops), 0b011)

    def test_first_gate_two_qubit(self):
        ops = [("h", (0,)), ("iswap", (1, 2)), ("y_1_2", (2,)), ("cz", (0, 1)),
               ("t", (1,))]
        self.check(_circuit(_lattice(3), ops), 0b010)

    def test_t_run_stays_before_iswap(self, monkeypatch):
        ops = [("h", (0,)), ("y_1_2", (1,)), ("cz", (0, 1)),
               ("t", (0,)), ("t", (0,)), ("t", (0,)), ("iswap", (0, 1)),
               ("h", (0,)), ("h", (1,))]
        circ = _circuit(_lattice(2), ops)
        diag = []
        real = _kernels.apply_diag
        monkeypatch.setattr(_kernels, "apply_diag",
                            lambda v, qs, ph: (diag.append((qs, ph)), real(v, qs, ph)))
        self.check(circ)
        # the three Ts are one phase e^{3i pi/4}, on half of the state
        assert ((0,), pytest.approx(np.exp(3j * np.pi / 4))) in diag

    def test_peak_memory_on_grid4x5(self):
        circ = generate_rqc(Lattice.named("grid:4x5"), "1+24+1", seed=0)
        tracemalloc.start()
        try:
            state = oracle.evolve(circ)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * state.nbytes


class TestAmplitudeAndDistribution:
    def test_exact_amplitude_indexes_the_state(self, circuit_3x4_t16, state_3x4_t16):
        for idx in (0, 17, 4095):
            amp = oracle.exact_amplitude(circuit_3x4_t16, 0, idx)
            assert np.isclose(amp, state_3x4_t16[idx], atol=1e-14)

    def test_bitstring_arguments(self, circuit_3x4_t16, state_3x4_t16):
        amp = oracle.exact_amplitude(circuit_3x4_t16, "0" * 12, "000000010001")
        assert np.isclose(amp, state_3x4_t16[17], atol=1e-14)

    def test_distribution_normalized(self, circuit_3x4_t16):
        probs = oracle.exact_distribution(circuit_3x4_t16)
        assert probs.shape == (4096,)
        assert np.isclose(probs.sum(), 1.0, atol=1e-10)
        assert (probs >= 0).all()

    def test_distribution_matches_state(self, circuit_3x4_t16, state_3x4_t16):
        probs = oracle.exact_distribution(circuit_3x4_t16)
        assert np.allclose(probs, np.abs(state_3x4_t16) ** 2, atol=1e-14)

"""Circuit-to-tensor-network assembly checked against the reference simulator."""

from __future__ import annotations

import numpy as np
import pytest

from rqcsim import oracle
from rqcsim.amplitude_engine import AmplitudeEngine
from rqcsim.circuits import SCHMIDT_RANK, Lattice, edge_activations, generate_rqc
from rqcsim.network_builder import (
    build_3d,
    contract_grid,
    contract_time,
    gate_tensor,
    out_label,
    site_label_order,
    site_shapes,
    window_bond,
)
from rqcsim.tensor_core import contract


def closed_amplitude(circ, in_bits, out_bits, dtype=np.complex128) -> complex:
    net = contract_time(build_3d(circ, in_bits, out_bits, dtype=dtype))
    return contract_grid(net).scalar()


class TestGateTensors:
    def test_single_qubit_shapes(self):
        for name in ("h", "t", "x_1_2", "y_1_2"):
            assert gate_tensor(name).shape == (2, 2)

    def test_cz_factorizes_into_bond2_pair(self):
        """The diagonal two-qubit gate splits into two (bond, in, out)
        halves joined by a dimension-2 bond; recombining them must give
        the full matrix."""
        a, b = gate_tensor("cz")
        assert a.shape == b.shape == (2, 2, 2)
        full = np.einsum("wio,wjp->opij", a, b).reshape(4, 4)
        assert np.allclose(full, np.diag([1, 1, 1, -1]))

    def test_iswap_factors_need_bond4(self):
        a, b = gate_tensor("iswap")
        assert a.shape[0] == 4
        full = np.einsum("wio,wjp->opij", a, b).reshape(4, 4)
        assert np.allclose(full, oracle.ISWAP)

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_tensor("quux")


class TestClosedContraction:
    # 1+1+1 seed 1 leaves a qubit without a two-qubit gate: a 0-d block
    @pytest.mark.parametrize("depth,seed", [
        pytest.param("1+8+1", 0, id="0"),
        pytest.param("1+8+1", 1, id="1"),
        pytest.param("1+8+1", 2, id="2"),
        pytest.param("1+1+1", 1, id="1+1+1-1"),
    ])
    def test_matches_reference_2x2(self, grid_2x2, depth, seed):
        circ = generate_rqc(grid_2x2, depth, seed=seed)
        state = oracle.evolve(circ)
        for out in (0, 7, 15):
            assert np.isclose(
                closed_amplitude(circ, 0, out), state[out], atol=1e-10
            )

    def test_matches_reference_3x3(self):
        circ = generate_rqc(Lattice.rectangle(3, 3), "1+10+1", seed=6)
        state = oracle.evolve(circ)
        for out in (0, 100, 511):
            assert np.isclose(
                closed_amplitude(circ, 0, out), state[out], atol=1e-9
            )

    def test_nonzero_input_bits(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=3)
        state = oracle.evolve(circ, 9)
        assert np.isclose(closed_amplitude(circ, 9, 4), state[4], atol=1e-10)

    @pytest.mark.parametrize("bits", [2**4, 2**4 + 1, -1, "0101 1", "012"])
    def test_bad_bits_rejected(self, grid_2x2, bits):
        """The network builder and the engine read bit-strings through one
        checked parser: an integer outside [0, 2^n) is refused, not
        truncated or formatted with a sign."""
        circ = generate_rqc(grid_2x2, "1+8+1", seed=5)
        with pytest.raises(ValueError, match="out of range|chars of 0/1"):
            build_3d(circ, in_bits=bits, out_bits=0)
        with pytest.raises(ValueError, match="out of range|chars of 0/1"):
            AmplitudeEngine(circ).amplitude(0, bits)

    def test_single_precision_close(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=3)
        exact = oracle.exact_amplitude(circ, 0, 6)
        got = closed_amplitude(circ, 0, 6, dtype=np.complex64)
        assert abs(got - exact) < 1e-5


class TestOpenOutputs:
    def test_all_open_gives_full_state(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=5)
        net = contract_time(build_3d(circ, dtype=np.complex128))
        t = contract_grid(net)
        t = t.transpose_to(tuple(out_label(q) for q in range(4)))
        state = t.array.reshape(-1)
        assert np.allclose(state, oracle.evolve(circ), atol=1e-10)

    def test_partially_open_region(self, grid_2x2):
        """Fixed bits on A, open on C: slices of the result match the state."""
        circ = generate_rqc(grid_2x2, "1+8+1", seed=5)
        net = contract_time(
            build_3d(circ, in_bits=0, out_bits=0, open_sites=(2, 3),
                     dtype=np.complex128)
        )
        t = contract_grid(net).transpose_to((out_label(2), out_label(3)))
        state = oracle.evolve(circ)
        for b2 in (0, 1):
            for b3 in (0, 1):
                idx = (b2 << 1) | b3  # qubits 0,1 fixed to 0
                assert np.isclose(t.array[b2, b3], state[idx], atol=1e-10)

    def test_fix_outputs_slices_open_indexes(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=5)
        net = contract_time(
            build_3d(circ, out_bits=0, open_sites=(2, 3), dtype=np.complex128)
        )
        fixed = net.fix_outputs({2: 1, 3: 0})
        amp = contract_grid(fixed).scalar()
        assert np.isclose(amp, oracle.exact_amplitude(circ, 0, 0b0010), atol=1e-10)
        assert fixed.open_sites == ()

    @pytest.mark.parametrize("which", [0, 1])
    def test_fix_outputs_on_a_site_holding_two(self, which):
        """A folded bristlecone-72 corner leaves its neighbour two leading
        outputs: fixing the first is a view, fixing only the second a
        contiguous copy of the strided slice."""
        lat = Lattice.named("bristlecone-72")
        net = contract_time(build_3d(generate_rqc(lat, "1+8+1", seed=0)))
        site, t = next((s, t) for s, t in net.tensors.items()
                       if sum(l.startswith("out") for l in t.labels) == 2)
        q = int(t.labels[which][3:])
        fixed = net.fix_outputs({q: 1}).tensors[site]
        assert fixed.labels == t.labels[:which] + t.labels[which + 1:]
        assert fixed.array.flags.c_contiguous
        assert np.array_equal(fixed.array, np.take(t.array, 1, axis=which))
        assert np.shares_memory(fixed.array, t.array) == (which == 0)

    def test_fix_outputs_unknown_site(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=5)
        net = contract_time(build_3d(circ, out_bits=0, dtype=np.complex128))
        with pytest.raises(KeyError, match="site 1 has no open output"):
            net.fix_outputs({1: 0})


class TestNetworkShape:
    def test_one_tensor_per_site(self, grid_3x4):
        circ = generate_rqc(grid_3x4, "1+16+1", seed=0)
        net = contract_time(build_3d(circ, out_bits=0))
        assert sorted(net.tensors) == list(range(grid_3x4.n))

    def test_bond_dims_grow_with_depth(self, grid_2x2):
        shallow = generate_rqc(grid_2x2, "1+8+1", seed=0)
        deep = generate_rqc(grid_2x2, "1+24+1", seed=0)
        b_sh = contract_time(build_3d(shallow, out_bits=0)).bond_dim
        b_dp = contract_time(build_3d(deep, out_bits=0)).bond_dim
        assert all(b_dp[e] >= b_sh[e] for e in b_sh)



class TestSiteLayout:
    @pytest.mark.parametrize("lattice,depth,gate", [
        ("grid:3x3", "1+16+1", "cz"),
        ("bristlecone-72", "1+8+1", "cz"),  # corners fold into neighbours
        ("grid:3x4", "1+16+1", "iswap"),
        ("grid:1x2", "1+88+1", "cz"),       # 11 windows, one 2048-dim bond
    ])
    def test_sites_in_label_order_with_merged_bond_dims(self, lattice, depth, gate):
        lat = Lattice.named(lattice)
        circ = generate_rqc(lat, depth, seed=0, two_qubit_gate=gate)
        net = contract_time(build_3d(circ))
        for t in net.tensors.values():
            assert t.array.flags.c_contiguous
            assert t.labels == site_label_order(t.labels)
        rank = SCHMIDT_RANK[gate]
        expect = {e: rank ** k for e, k in edge_activations(lat, circ.depth.t).items()
                  if k and all(s in net.tensors for s in e)}
        assert net.bond_dim == expect

    @pytest.mark.parametrize("lattice,depth,gate", [
        ("grid:3x3", "1+16+1", "cz"),
        ("bristlecone-72", "1+8+1", "cz"),
        ("grid:3x4", "1+16+1", "iswap"),
        ("grid:1x2", "1+88+1", "cz"),
    ])
    @pytest.mark.parametrize("opened", ["all", "none", "corners"])
    def test_priced_shapes_are_the_built_ones(self, lattice, depth, gate, opened):
        """``site_shapes`` gives each site tensor's labels and dims in index
        order, and the bond dimensions, exactly as ``contract_time`` builds
        them, folded bristlecone-72 corners and their outputs included."""
        lat = Lattice.named(lattice)
        circ = generate_rqc(lat, depth, seed=0, two_qubit_gate=gate)
        open_sites = {"all": range(lat.n), "none": (),
                      "corners": (0, lat.n - 1, lat.site_id((0, 5)) if
                                  lattice == "bristlecone-72" else 1)}[opened]
        net = contract_time(build_3d(circ, 0, 0, open_sites=open_sites))
        shapes, bond_dims = site_shapes(lat, circ.depth.t, gate, open_sites)
        assert shapes == {s: dict(zip(t.labels, t.dims))
                          for s, t in net.tensors.items()}
        assert {s: tuple(d) for s, d in shapes.items()} == \
            {s: t.labels for s, t in net.tensors.items()}
        assert bond_dims == net.bond_dim

    def test_windows_merge_in_numeric_order(self):
        """The first window is the most significant digit of the merged
        bond: b0, b1, ..., b10, not the string order b0, b1, b10, b2."""
        circ = generate_rqc(Lattice.named("grid:1x2"), "1+88+1", seed=0)
        net3 = build_3d(circ)
        net = contract_time(net3)
        for q, stack in net3.blocks.items():
            blocks = stack[0]
            for blk in stack[1:]:
                blocks = contract(blocks, blk)
            windows = [window_bond(w, 0, 1) for w in range(11)]
            want = blocks.transpose_to([out_label(q)] + windows).array
            assert np.array_equal(net.tensors[q].array,
                                  want.reshape(2, 2 ** 11))

"""Lattices, gate sequences, the serialized circuit format, and bond patterns."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcsim.circuits import (
    Circuit,
    CircuitFormatError,
    DepthSpec,
    Gate,
    MAX_SITES,
    Lattice,
    cross_gate_count,
    cz_cut_count,
    edge_activations,
    generate_rqc,
    parse_circuit,
    pattern_bonds,
    write_circuit,
)


class TestLattice:
    def test_rectangle_sites_are_dense_row_major(self):
        lat = Lattice.rectangle(2, 3)
        assert lat.n == 6
        assert [lat.coords(i) for i in range(6)] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert lat.site_id((1, 2)) == 5

    def test_rectangle_edges_connect_nearest_neighbours_only(self):
        lat = Lattice.rectangle(3, 3)
        for a, b in lat.edges():
            (ra, ca), (rb, cb) = lat.coords(a), lat.coords(b)
            assert abs(ra - rb) + abs(ca - cb) == 1
            assert a < b
        # interior 3x3 grid: 2 * 3 * 2 = 12 bonds
        assert len(lat.edges()) == 12

    def test_named_bristlecone_sizes(self):
        for name, n in [("bristlecone-24", 24), ("bristlecone-60", 60),
                        ("bristlecone-70", 70), ("bristlecone-72", 72)]:
            assert Lattice.named(name).n == n

    def test_named_grid_alias(self):
        lat = Lattice.named("grid:4x5")
        assert lat.n == 20
        assert lat.kind == "grid:4x5"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            Lattice.named("hexagon-7")

    def test_neighbors_and_adjacent(self):
        lat = Lattice.rectangle(2, 2)
        assert set(lat.neighbors(0)) == {1, 2}
        assert lat.adjacent(0, 1) and not lat.adjacent(0, 3)

    def test_from_sites_rejects_disconnected_sites(self):
        with pytest.raises(ValueError):
            Lattice.from_sites("custom", [(0, 0), (5, 5)])


    @pytest.mark.parametrize("rows,cols", [(1, MAX_SITES + 1), (100000, 100000)])
    def test_rectangle_size_is_capped(self, rows, cols):
        with pytest.raises(ValueError, match="supported"):
            Lattice.rectangle(rows, cols)
        with pytest.raises(ValueError, match="supported"):
            Lattice.named(f"grid:{rows}x{cols}")

    def test_cap_leaves_room_for_shipped_lattices(self):
        assert Lattice.rectangle(32, 32).n == MAX_SITES
        assert Lattice.named("bristlecone-72").n <= MAX_SITES


class TestDepthSpec:
    def test_parse_forms(self):
        assert DepthSpec.parse("1+8+1").t == 8
        assert DepthSpec.parse(8).t == 8
        assert DepthSpec.parse(DepthSpec(8)).t == 8

    def test_cycles_includes_boundary_rounds(self):
        assert DepthSpec.parse("1+8+1").cycles == 10

    def test_bad_strings_raise(self):
        for bad in ("2+8+1", "1+8", "1+x+1", "-3"):
            with pytest.raises(ValueError):
                DepthSpec.parse(bad)


class TestGeneratedCircuits:
    def test_first_cycle_is_all_hadamards(self, grid_3x4):
        circ = generate_rqc(grid_3x4, "1+8+1", seed=0)
        first = circ.cycle_gates(0)
        assert len(first) == grid_3x4.n
        assert all(g.name == "h" for g in first)

    def test_final_cycle_is_all_hadamards(self, grid_3x4):
        circ = generate_rqc(grid_3x4, "1+8+1", seed=0)
        last = circ.cycle_gates(circ.depth.cycles - 1)
        assert len(last) == grid_3x4.n
        assert all(g.name == "h" for g in last)

    def test_single_qubit_gate_placement_rules(self, grid_3x4):
        """Interior cycles: a qubit idle this cycle gets x_1_2/y_1_2 if a cz
        hit it last cycle, t if x_1_2/y_1_2/h hit it last cycle, and nothing
        after a t (so no t ever directly follows a cz)."""
        circ = generate_rqc(grid_3x4, "1+16+1", seed=5)
        last: dict[int, tuple[int, str]] = {
            q: (0, "h") for q in range(grid_3x4.n)
        }
        for cycle in range(1, circ.depth.cycles - 1):
            gates = circ.cycle_gates(cycle)
            placed = {g.qubits[0]: g.name for g in gates if len(g.qubits) == 1}
            busy = {q for g in gates if g.name == "cz" for q in g.qubits}
            for q in range(grid_3x4.n):
                prev_cycle, prev_name = last[q]
                if q in busy:
                    assert q not in placed
                    last[q] = (cycle, "cz")
                elif prev_cycle == cycle - 1 and prev_name == "cz":
                    assert placed[q] in ("x_1_2", "y_1_2")
                    last[q] = (cycle, placed[q])
                elif prev_cycle == cycle - 1 and prev_name in (
                    "x_1_2", "y_1_2", "h",
                ):
                    assert placed[q] == "t"
                    last[q] = (cycle, "t")
                else:
                    assert q not in placed
        # consequence at any depth: a t never directly follows a cz
        for q in range(grid_3x4.n):
            names = [g.name for g in circ.gates if q in g.qubits]
            for prev, cur in zip(names, names[1:]):
                assert not (prev == "cz" and cur == "t")

    def test_cz_layout_is_seed_independent(self, grid_3x4):
        a = generate_rqc(grid_3x4, "1+16+1", seed=0).two_qubit_gates()
        b = generate_rqc(grid_3x4, "1+16+1", seed=99).two_qubit_gates()
        assert [(g.cycle, g.qubits) for g in a] == [(g.cycle, g.qubits) for g in b]

    def test_single_qubit_choices_vary_with_seed(self, grid_3x4):
        a = generate_rqc(grid_3x4, "1+16+1", seed=0)
        b = generate_rqc(grid_3x4, "1+16+1", seed=1)
        assert write_circuit(a) != write_circuit(b)

    def test_same_seed_reproduces(self, grid_3x4):
        a = generate_rqc(grid_3x4, "1+16+1", seed=7)
        b = generate_rqc(grid_3x4, "1+16+1", seed=7)
        assert write_circuit(a) == write_circuit(b)

    def test_iswap_variant(self, grid_2x2):
        circ = generate_rqc(grid_2x2, "1+8+1", seed=0, two_qubit_gate="iswap")
        assert {g.name for g in circ.two_qubit_gates()} == {"iswap"}

    def test_two_qubit_gate_prices_the_widest_bond(self, grid_2x2):
        """A circuit names its two-qubit gate; of a mix, the one of highest
        Schmidt rank, and a circuit without any prices as CZ."""
        assert generate_rqc(grid_2x2, "1+8+1", seed=0).two_qubit_gate == "cz"
        mixed = parse_circuit("4\n1 cz 0 1\n2 iswap 2 3\n3 cz 0 2\n")
        assert mixed.two_qubit_gate == "iswap"
        assert parse_circuit("4\n0 h 0\n").two_qubit_gate == "cz"


class TestBondPatterns:
    def test_eight_patterns_cover_every_edge(self, grid_4x4):
        covered = set()
        for p in range(8):
            covered.update(pattern_bonds(grid_4x4, p))
        assert covered == set(grid_4x4.edges())

    def test_patterns_are_disjoint_on_qubits(self, grid_4x4):
        for p in range(8):
            qubits: list[int] = []
            for a, b in pattern_bonds(grid_4x4, p):
                qubits += [a, b]
            assert len(qubits) == len(set(qubits))

    def test_activations_at_t32_are_uniformly_four(self, grid_4x4):
        acts = edge_activations(grid_4x4, 32)
        assert set(acts.values()) == {4}

    def test_activation_count_closed_form(self, grid_4x4):
        # each edge belongs to exactly one of the 8 round-robin patterns
        for t in (0, 1, 5, 9, 16, 32):
            acts = edge_activations(grid_4x4, t)
            circ = generate_rqc(grid_4x4, f"1+{t}+1", seed=0)
            from collections import Counter

            counted: Counter = Counter()
            for g in circ.two_qubit_gates():
                counted[g.qubits] += 1
            for edge, k in acts.items():
                assert counted.get(edge, 0) == k


class TestCutCounts:
    def test_cz_cut_count_matches_manual_count(self, circuit_4x4_t16, grid_4x4):
        left = {q for q in range(grid_4x4.n) if grid_4x4.coords(q)[1] < 2}
        right = set(range(grid_4x4.n)) - left
        manual = sum(
            1
            for g in circuit_4x4_t16.two_qubit_gates()
            if (g.qubits[0] in left) != (g.qubits[1] in left)
        )
        assert cz_cut_count(circuit_4x4_t16, (left, right)) == manual

    def test_cut_count_requires_a_true_bipartition(self, circuit_4x4_t16):
        with pytest.raises(ValueError):
            cz_cut_count(circuit_4x4_t16, ({0, 1}, {1, 2}))
        with pytest.raises(ValueError):
            cz_cut_count(circuit_4x4_t16, ({0, 1}, {2, 3}))

    def test_cross_gate_count_is_symmetric(self, circuit_4x4_t16):
        a, b = {0, 1, 4, 5}, {2, 3, 6, 7}
        assert cross_gate_count(circuit_4x4_t16, a, b) == cross_gate_count(
            circuit_4x4_t16, b, a
        )


class TestSerialization:
    def test_round_trip_preserves_gates(self, circuit_3x4_t16):
        text = write_circuit(circuit_3x4_t16)
        back = parse_circuit(text)
        assert back.gates == circuit_3x4_t16.gates
        assert back.lattice.kind == circuit_3x4_t16.lattice.kind

    def test_text_is_deterministic(self, grid_3x4):
        a = write_circuit(generate_rqc(grid_3x4, "1+8+1", seed=2))
        b = write_circuit(generate_rqc(grid_3x4, "1+8+1", seed=2))
        assert a == b

    def test_header_carries_metadata(self, circuit_3x4_t16):
        text = write_circuit(circuit_3x4_t16)
        head = [ln for ln in text.splitlines() if ln.startswith("#")]
        keys = {ln.split(":")[0].lstrip("# ").strip() for ln in head}
        assert {"lattice", "depth", "seed"} <= keys

    def test_first_line_is_qubit_count(self, circuit_3x4_t16):
        text = write_circuit(circuit_3x4_t16)
        assert text.splitlines()[0].strip() == str(circuit_3x4_t16.n)

    def test_qubit_count_is_capped_before_any_lattice(self):
        """A huge header count is refused on its first line, before any
        lattice is inferred or built."""
        for n in (MAX_SITES + 1, 1000000007):
            with pytest.raises(CircuitFormatError, match="at most"):
                parse_circuit(f"{n}\n0 h 0\n")

    def test_malformed_lines_raise(self):
        with pytest.raises(CircuitFormatError):
            parse_circuit("not-a-number\n")
        with pytest.raises(ValueError):
            parse_circuit("4\n0 h 0\n0 cz 1\n")  # cz needs two qubits

    def test_gate_validation_rejects_out_of_range_qubits(self, grid_2x2):
        with pytest.raises(ValueError):
            Circuit(grid_2x2, DepthSpec(1), (Gate(0, "h", (9,)),))

    def test_cz_must_follow_lattice_bonds(self, grid_2x2):
        with pytest.raises(ValueError):
            Circuit(grid_2x2, DepthSpec(1), (Gate(0, "cz", (0, 3)),))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 3),
    cols=st.integers(2, 4),
    t=st.integers(0, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(rows, cols, t, seed):
    circ = generate_rqc(Lattice.rectangle(rows, cols), f"1+{t}+1", seed=seed)
    assert parse_circuit(write_circuit(circ)).gates == circ.gates

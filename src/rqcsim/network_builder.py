"""Build the circuit's tensor network and contract it down to the grid.

The network is assembled in two stages.  ``build_3d`` makes one small
block tensor per qubit per 8-cycle window: single-qubit gates multiply
into the block along its time index, while each two-qubit gate leaves a
bond index shared with the neighbor's block (two-qubit gates enter in
rank-revealing factored form, so a CZ costs one binary index and an
iSWAP one of dimension 4, instead of a dense 4x4 link).  Input/output
basis states fold into the first/last blocks; selected outputs may stay
open.

``contract_time`` then collapses each qubit's blocks along time and
merges the per-window bonds of every lattice edge into a single index
whose dimension is the product of their Schmidt ranks, yielding one
tensor per site -- a 2D network shaped like the lattice, ready for the
contraction planner.  Each site tensor is laid out with one transpose,
straight into :func:`site_label_order`, and one reshape.  Its output
indexes lead, so fixing output bits takes views, not copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .circuits import SCHMIDT_RANK, Circuit, Lattice, edge_activations
from .tensor_core import Tensor, contract

# Gate matrices, U[out, in].  (The reference simulator keeps its own copies;
# the duplication is deliberate so the two pipelines stay independent.)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(np.complex128)
_X_1_2 = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)
_Y_1_2 = 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=np.complex128)

_GATE_1Q = {"h": _H, "t": _T, "x_1_2": _X_1_2, "y_1_2": _Y_1_2}

# Factored two-qubit gates: a pair of g[b, in, out] arrays, one per endpoint,
# with sum_b ga[b,i1,o1]*gb[b,i2,o2] equal to the 4x4 gate element
# <o1 o2|U|i1 i2>.  The bond runs over the gate's Schmidt rank.
_CZ_A = np.zeros((2, 2, 2), dtype=np.complex128)
_CZ_A[0, 0, 0] = 1.0
_CZ_A[1, 1, 1] = 1.0
_CZ_B = np.zeros((2, 2, 2), dtype=np.complex128)
_CZ_B[0] = np.eye(2)
_CZ_B[1] = np.diag([1.0, -1.0])

_ISWAP_A = np.zeros((4, 2, 2), dtype=np.complex128)
_ISWAP_A[0, 0, 0] = 1.0
_ISWAP_A[1, 1, 1] = 1.0
_ISWAP_A[2, 0, 1] = 1.0  # |1><0|
_ISWAP_A[3, 1, 0] = 1.0  # |0><1|
_ISWAP_B = np.zeros((4, 2, 2), dtype=np.complex128)
_ISWAP_B[0, 0, 0] = 1.0
_ISWAP_B[1, 1, 1] = 1.0
_ISWAP_B[2, 1, 0] = 1j  # i|0><1|
_ISWAP_B[3, 0, 1] = 1j  # i|1><0|

_GATE_2Q = {"cz": (_CZ_A, _CZ_B), "iswap": (_ISWAP_A, _ISWAP_B)}


def gate_tensor(name: str):
    """Tensor form of a gate.

    Single-qubit gates return a (2, 2) matrix U[out, in].  Two-qubit gates
    return a pair of (rank, 2, 2) factors g[bond, in, out], lower site id
    first, whose bond contraction rebuilds the 4x4 matrix.
    """
    if name in _GATE_1Q:
        return _GATE_1Q[name]
    if name in _GATE_2Q:
        return _GATE_2Q[name]
    raise ValueError(f"unknown gate {name!r}")


WINDOW = 8


def time_bond(q: int, w: int) -> str:
    return f"t{q}w{w}"


def window_bond(w: int, a: int, b: int) -> str:
    return f"b{w}_{a}_{b}"


def edge_label(a: int, b: int) -> str:
    a, b = min(a, b), max(a, b)
    return f"e{a}_{b}"


def out_label(q: int) -> str:
    return f"out{q}"


def as_bits(value, n: int) -> str:
    """n chars of 0/1, qubit 0 first, from such a string or an integer in
    [0, 2^n) whose most significant bit is qubit 0."""
    if isinstance(value, str):
        s = value.strip()
        if len(s) != n or set(s) - {"0", "1"}:
            raise ValueError(f"bit-string must be {n} chars of 0/1, got {value!r}")
        return s
    value = int(value)
    if not 0 <= value < 1 << n:
        raise ValueError(f"bit value {value} out of range for {n} qubits")
    return format(value, f"0{n}b")


def site_label_order(labels: Iterable[str]) -> tuple[str, ...]:
    """A site tensor's index order: outputs by qubit, then merged edges by
    label.  With the outputs leading, fixing them selects one contiguous
    block of the tensor."""
    return tuple(sorted(labels, key=lambda l: (0, int(l[3:]))
                        if l.startswith("out") else (1, l)))


#: Sites (row, col) that :func:`contract_time` folds into their only
#: neighbour, by lattice kind: bristlecone-72's two degree-1 corners, which
#: leaves the 70-site frame the contraction plans use.
FOLDED_CORNERS = {"bristlecone-72": ((0, 5), (11, 5))}


def _corner_folds(lattice: Lattice) -> list[tuple[int, int]]:
    """(corner, neighbour) site ids of ``lattice``'s folded corners."""
    corners = [lattice.site_id(rc) for rc in FOLDED_CORNERS.get(lattice.kind, ())]
    return [(c, lattice.neighbors(c)[0]) for c in corners]


def _bond_dims(lattice: Lattice, dims: dict[int, dict[str, int]]):
    """Dimension of every lattice bond still carried by a site tensor."""
    return {(a, b): dims[a][edge_label(a, b)] for a, b in lattice.edges()
            if edge_label(a, b) in dims.get(a, ())}


def site_shapes(lattice: Lattice, t: int, two_qubit_gate: str = "cz",
                open_sites: Iterable[int] = ()):
    """Site shapes (site -> label -> dim, in index order) and bond
    dimensions of the network :func:`contract_time` gives a ``t``-cycle
    circuit with ``open_sites`` left open, without building it: each gate
    on a bond multiplies its dimension by ``two_qubit_gate``'s Schmidt
    rank, and an open site adds a dimension-2 output index."""
    rank = SCHMIDT_RANK[two_qubit_gate]
    shapes: dict[int, dict[str, int]] = {site: {} for site in range(lattice.n)}
    for (a, b), k in edge_activations(lattice, t).items():
        if k > 0:
            shapes[a][edge_label(a, b)] = shapes[b][edge_label(a, b)] = rank ** k
    for site in open_sites:
        shapes[site][out_label(site)] = 2
    for corner, nbr in _corner_folds(lattice):
        shapes[nbr].update(shapes.pop(corner))
        shapes[nbr].pop(edge_label(corner, nbr), None)
    shapes = {s: {l: d[l] for l in site_label_order(d)} for s, d in shapes.items()}
    return shapes, _bond_dims(lattice, shapes)


@dataclass
class Net3D:
    """Per-qubit stacks of window block tensors."""

    circuit: Circuit
    blocks: dict[int, list[Tensor]]
    windows: int
    in_bits: str
    out_bits: Optional[str]
    open_sites: tuple[int, ...]
    dtype: np.dtype


@dataclass
class Net2D:
    """One tensor per lattice site; bonds carry the merged circuit history."""

    circuit: Circuit
    tensors: dict[int, Tensor]
    bond_dim: dict[tuple[int, int], int]
    in_bits: str
    out_bits: Optional[str]
    open_sites: tuple[int, ...]

    def fix_outputs(self, bits: dict[int, int]) -> "Net2D":
        """New network with the given open outputs sliced to fixed bits.
        Outputs lead each site tensor (:func:`site_label_order`), so a
        fixed site is a view of this network's array, copied only if an
        output left open precedes a fixed one."""
        want = {out_label(q): int(bit) for q, bit in bits.items()}
        tensors = dict(self.tensors)
        for site, t in self.tensors.items():
            index = [want.pop(l, slice(None)) for l in t.labels
                     if l.startswith("out")]
            if any(isinstance(i, int) for i in index):
                view = t.array[(*index, ...)]
                tensors[site] = Tensor(
                    [l for l, i in zip(t.labels, index) if i == slice(None)]
                    + list(t.labels[len(index):]),
                    view if view.flags.c_contiguous else view.copy())
        if want:
            raise KeyError(f"site {next(iter(want))[3:]} has no open output")
        remaining = tuple(q for q in self.open_sites if q not in bits)
        return Net2D(self.circuit, tensors, self.bond_dim, self.in_bits,
                     self.out_bits, remaining)


def build_3d(circuit: Circuit, in_bits=0, out_bits=None,
             open_sites: Iterable[int] = (), dtype=np.complex64) -> Net3D:
    """Assemble per-qubit window blocks for fixed input bits.

    ``out_bits=None`` leaves every output open (an index of dimension 2 per
    qubit); otherwise outputs fold in, except for sites listed in
    ``open_sites`` which stay open regardless.
    """
    n = circuit.n
    t = circuit.depth.t
    in_s = as_bits(in_bits, n)
    if out_bits is None:
        opens = tuple(range(n))
        out_s = None
    else:
        out_s = as_bits(out_bits, n)
        opens = tuple(sorted(set(int(q) for q in open_sites)))

    nw = max(1, -(-t // WINDOW))
    # site -> cycle -> gate, for the two-qubit cycles only
    per_site: list[dict[int, object]] = [dict() for _ in range(n)]
    for g in circuit.gates:
        if 0 < g.cycle <= t:
            for q in g.qubits:
                per_site[q][g.cycle] = g

    blocks: dict[int, list[Tensor]] = {}
    for q in range(n):
        stack = []
        for w in range(nw):
            if w == 0:
                arr = _H[:, int(in_s[q])].copy()  # first H layer on |in>
                labels = []
            else:
                arr = np.eye(2, dtype=np.complex128)
                labels = [time_bond(q, w)]
            for cyc in range(WINDOW * w + 1, min(WINDOW * (w + 1), t) + 1):
                g = per_site[q].get(cyc)
                if g is None:
                    continue
                if len(g.qubits) == 1:
                    arr = arr @ _GATE_1Q[g.name].T
                else:
                    a, b = g.qubits
                    side = 0 if q == a else 1
                    factor = _GATE_2Q[g.name][side]
                    arr = np.einsum("...s,bso->...bo", arr, factor)
                    labels.append(window_bond(w, a, b))
            if w == nw - 1:
                arr = arr @ _H.T  # final H layer
                if q in opens:
                    labels.append(out_label(q))
                else:
                    arr = arr[..., int(out_s[q])]
            else:
                labels.append(time_bond(q, w + 1))
            # astype, not ascontiguousarray, which would promote a 0-d block
            stack.append(Tensor(tuple(labels), arr.astype(dtype, order="C")))
        blocks[q] = stack
    return Net3D(circuit, blocks, nw, in_s, out_s, opens, np.dtype(dtype))


def contract_time(net: Net3D) -> Net2D:
    """Collapse window blocks along time and merge per-edge window bonds.

    The sites of :data:`FOLDED_CORNERS` are folded into their only
    neighbours.

    Each site's window bonds are grouped by edge, windows in numeric order
    (the first window is the merged index's most significant digit), and
    the groups ordered by :func:`site_label_order`; one transpose to that
    flattened order and one reshape give the site tensor.
    """
    circuit = net.circuit
    lattice = circuit.lattice
    tensors: dict[int, Tensor] = {}
    for q, stack in net.blocks.items():
        cur = stack[0]
        for blk in stack[1:]:
            cur = contract(cur, blk)
        tensors[q] = cur

    for corner, nbr in _corner_folds(lattice):
        tensors[nbr] = contract(tensors.pop(corner), tensors[nbr])

    for site, t in tensors.items():
        groups: dict[str, list[tuple[int, str]]] = {}  # site label -> members
        for label in t.labels:
            if label.startswith("b"):
                w, a, b = map(int, label[1:].split("_"))
                groups.setdefault(edge_label(a, b), []).append((w, label))
            else:
                groups[label] = [(0, label)]
        order = site_label_order(groups)
        members = [[l for _, l in sorted(groups[g])] for g in order]
        flat = t.transpose_to([l for m in members for l in m])
        shape = [math.prod(map(flat.dim_of, m)) for m in members]
        tensors[site] = Tensor(order, flat.array.reshape(shape))

    bond_dim = _bond_dims(lattice, {s: dict(zip(t.labels, t.dims))
                                    for s, t in tensors.items()})
    return Net2D(circuit, tensors, bond_dim, net.in_bits, net.out_bits,
                 net.open_sites)


def contract_grid(net: Net2D, order: Optional[Sequence[int]] = None) -> Tensor:
    """Contract every site tensor in the given (default: id) order.

    Reference path for small networks; large lattices need a proper plan.
    """
    sites = list(order) if order is not None else sorted(net.tensors)
    cur = net.tensors[sites[0]]
    for s in sites[1:]:
        cur = contract(cur, net.tensors[s])
    return cur

"""Lattices, gates, random-circuit generation, and the circuit file format.

Circuits live on square-grid lattices (full rectangles or diamond-shaped
"bristlecone" subsets shipped as coordinate data files).  The generator
follows a five-rule prescription: a first layer of Hadamards, ``t`` cycles
of two-qubit gates whose layout cycles through eight fixed tilings of the
grid, deterministic T-gate placement, seeded random X^1/2 / Y^1/2 choices,
and a final layer of Hadamards.  Depth is written ``1+t+1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

ONE_QUBIT_GATES = ("h", "t", "x_1_2", "y_1_2")
TWO_QUBIT_GATES = ("cz", "iswap")
GATE_NAMES = ONE_QUBIT_GATES + TWO_QUBIT_GATES

#: Schmidt rank of the supported two-qubit gates (bond dimension of the
#: rank-revealing factored form).
SCHMIDT_RANK = {"cz": 2, "iswap": 4}

RNG_NAME = "pcg64"

BRISTLECONE_SIZES = (24, 30, 40, 48, 60, 64, 70, 72)

#: Most sites a lattice, and so qubits a circuit, may have: far above every
#: lattice shipped, and checked before any site list is built.
MAX_SITES = 1024


class CircuitFormatError(ValueError):
    """Raised on malformed circuit files; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """A set of (row, col) sites on a square grid with derived adjacency.

    Site ids are assigned in row-major order over the sites themselves
    (0..n-1, dense), scanning the bounding grid row by row.
    """

    kind: str
    sites: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("lattice has no sites")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites in lattice")
        ordered = tuple(sorted(self.sites))
        object.__setattr__(self, "sites", ordered)
        index = {rc: i for i, rc in enumerate(ordered)}
        object.__setattr__(self, "_index", index)
        neighbors: list[list[int]] = [[] for _ in ordered]
        edges = []
        for i, (r, c) in enumerate(ordered):
            for dr, dc in ((0, 1), (1, 0)):
                j = index.get((r + dr, c + dc))
                if j is not None:
                    edges.append((i, j))
                    neighbors[i].append(j)
                    neighbors[j].append(i)
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(ns)) for ns in neighbors))
        for i, ns in enumerate(self._neighbors):
            if not 1 <= len(ns) <= 4:
                raise ValueError(
                    f"site {ordered[i]} has {len(ns)} neighbors; lattice must be connected enough "
                    "that every site has 1-4 neighbors"
                )

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def bounding_shape(self) -> tuple[int, int]:
        rows = max(r for r, _ in self.sites) + 1
        cols = max(c for _, c in self.sites) + 1
        return rows, cols

    def site_id(self, rc: tuple[int, int]) -> int:
        try:
            return self._index[rc]
        except KeyError:
            raise KeyError(f"{rc} is not a site of {self.kind}") from None

    def coords(self, site: int) -> tuple[int, int]:
        return self.sites[site]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Nearest-neighbor pairs as (low id, high id), sorted."""
        return self._edges

    def neighbors(self, site: int) -> tuple[int, ...]:
        return self._neighbors[site]

    def adjacent(self, a: int, b: int) -> bool:
        return b in self._neighbors[a]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rectangle(rows: int, cols: int) -> "Lattice":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("rectangular lattice needs at least 1x2 sites")
        if rows * cols > MAX_SITES:
            raise ValueError(f"grid:{rows}x{cols} has {rows * cols} sites, "
                             f"more than the {MAX_SITES} supported")
        sites = tuple((r, c) for r in range(rows) for c in range(cols))
        return Lattice(kind=f"grid:{rows}x{cols}", sites=sites)

    @staticmethod
    def bristlecone(size: int) -> "Lattice":
        if size not in BRISTLECONE_SIZES:
            raise ValueError(
                f"unknown bristlecone size {size}; available: {BRISTLECONE_SIZES}"
            )
        coords = _load_coord_file(f"bristlecone_{size}.txt")
        return Lattice(kind=f"bristlecone-{size}", sites=tuple(coords))

    @staticmethod
    def named(name: str) -> "Lattice":
        """Build a lattice from a name like ``grid:4x4`` or ``bristlecone-70``."""
        name = name.strip().lower()
        m = re.fullmatch(r"grid:(\d+)x(\d+)", name)
        if m:
            return Lattice.rectangle(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"bristlecone-(\d+)", name)
        if m:
            return Lattice.bristlecone(int(m.group(1)))
        raise ValueError(f"unknown lattice name {name!r}")

    @staticmethod
    def from_sites(kind: str, coords: Iterable[tuple[int, int]]) -> "Lattice":
        return Lattice(kind=kind, sites=tuple(coords))


def _load_coord_file(filename: str) -> list[tuple[int, int]]:
    text = (resources.files("rqcsim") / "data" / "lattices" / filename).read_text()
    return parse_coord_lines(text)


def parse_coord_lines(text: str) -> list[tuple[int, int]]:
    """Parse lattice data: one ``(row, col)`` pair per line, '#' comments."""
    coords = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        nums = re.findall(r"-?\d+", line)
        if len(nums) != 2:
            raise CircuitFormatError(f"expected one (row, col) pair, got {raw!r}", lineno)
        coords.append((int(nums[0]), int(nums[1])))
    return coords


# ---------------------------------------------------------------------------
# Gates and circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    cycle: int
    name: str
    qubits: tuple[int, ...]

    def sort_key(self):
        return (self.cycle, self.qubits)

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        want = 2 if self.name in TWO_QUBIT_GATES else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.name} takes {want} qubit(s), got {self.qubits}")
        if self.cycle < 0:
            raise ValueError("negative cycle")


@dataclass(frozen=True)
class DepthSpec:
    """Circuit depth ``1+t+1``: t two-qubit cycles between two H layers."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("depth t must be >= 0")

    @staticmethod
    def parse(spec) -> "DepthSpec":
        if isinstance(spec, DepthSpec):
            return spec
        if isinstance(spec, int):
            return DepthSpec(spec)
        m = re.fullmatch(r"1\+(\d+)\+1", str(spec).strip())
        if not m:
            raise ValueError(f"depth must look like '1+t+1', got {spec!r}")
        return DepthSpec(int(m.group(1)))

    @property
    def cycles(self) -> int:
        """Total number of gate layers, including both H layers."""
        return self.t + 2

    def __str__(self):
        return f"1+{self.t}+1"


class Circuit:
    """An ordered gate list on a lattice, grouped by cycle."""

    def __init__(self, lattice: Lattice, depth, gates: Sequence[Gate],
                 meta: Optional[dict] = None):
        self.lattice = lattice
        self.depth = DepthSpec.parse(depth)
        self.gates = tuple(sorted(gates, key=Gate.sort_key))
        self.meta = dict(meta or {})
        self.n = lattice.n
        self.N = 1 << self.n
        self._validate()

    def _validate(self):
        seen: set[tuple[int, int]] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {g} references qubit {q} outside 0..{self.n - 1}")
                if (g.cycle, q) in seen:
                    raise ValueError(f"qubit {q} touched twice in cycle {g.cycle}")
                seen.add((g.cycle, q))
            if len(g.qubits) == 2 and not self.lattice.adjacent(*g.qubits):
                raise ValueError(
                    f"two-qubit gate on non-adjacent sites {g.qubits} "
                    f"({self.lattice.coords(g.qubits[0])}, {self.lattice.coords(g.qubits[1])})"
                )

    def cycle_gates(self, cycle: int) -> list[Gate]:
        return [g for g in self.gates if g.cycle == cycle]

    def by_cycle(self) -> list[list[Gate]]:
        out: list[list[Gate]] = [[] for _ in range(self.depth.cycles)]
        for g in self.gates:
            out[g.cycle].append(g)
        return out

    def two_qubit_gates(self) -> list[Gate]:
        return [g for g in self.gates if len(g.qubits) == 2]

    @property
    def two_qubit_gate(self) -> str:
        """The circuit's two-qubit gate ("cz" if it has none); of a mix,
        the one of highest Schmidt rank, so bonds priced by it are never
        smaller than the network's."""
        names = {g.name for g in self.two_qubit_gates()} or {"cz"}
        return max(names, key=SCHMIDT_RANK.__getitem__)

    def __eq__(self, other):
        return (isinstance(other, Circuit)
                and self.lattice.sites == other.lattice.sites
                and self.depth == other.depth
                and self.gates == other.gates)


# ---------------------------------------------------------------------------
# The eight two-qubit layer tilings.
#
# Each nearest-neighbor bond of the square grid is active in exactly one of
# eight layer patterns; cycling through the patterns, every qubit shares one
# two-qubit gate with each of its neighbors exactly once per 8-cycle window.
# Horizontal and vertical layers alternate (even patterns are horizontal,
# odd are vertical), and within each pattern the active bonds are disjoint.
# ---------------------------------------------------------------------------


def _edge_pattern(rc_a: tuple[int, int], rc_b: tuple[int, int]) -> int:
    """Pattern index (0..7) in which the bond rc_a-rc_b is active."""
    (r1, c1), (r2, c2) = sorted((rc_a, rc_b))
    if r1 == r2 and c2 == c1 + 1:  # horizontal
        return (2 * c1 + 4 * r1) % 8
    if c1 == c2 and r2 == r1 + 1:  # vertical
        return (1 + 6 * r1 + 4 * c1) % 8
    raise ValueError(f"{rc_a} and {rc_b} are not nearest neighbors")


def pattern_bonds(lattice: Lattice, pattern: int) -> list[tuple[int, int]]:
    """Site-id bonds of the lattice active in the given pattern (0..7)."""
    out = []
    for a, b in lattice.edges():
        if _edge_pattern(lattice.coords(a), lattice.coords(b)) == pattern % 8:
            out.append((a, b))
    return out


def edge_activations(lattice: Lattice, t: int) -> dict[tuple[int, int], int]:
    """How many of the t two-qubit cycles activate each bond.

    Bond e is active in cycles c with (c-1) mod 8 == pattern(e), so the
    count is a closed form of t and the pattern index; at t a multiple of
    8 every bond is active exactly t/8 times.
    """
    out = {}
    for a, b in lattice.edges():
        p = _edge_pattern(lattice.coords(a), lattice.coords(b))
        out[(a, b)] = 0 if t <= p else (t - p - 1) // 8 + 1
    return out


def generate_rqc(lattice: Lattice, depth, seed: int,
                 two_qubit_gate: str = "cz") -> Circuit:
    """Generate a random circuit on the lattice at depth ``1+t+1``.

    Layout (two-qubit gate placement and T positions) depends only on the
    lattice and depth; the seed controls nothing but the X^1/2 / Y^1/2
    choices, drawn in site-id order from a PCG64 stream.
    """
    if two_qubit_gate not in TWO_QUBIT_GATES:
        raise ValueError(f"two_qubit_gate must be one of {TWO_QUBIT_GATES}")
    depth = DepthSpec.parse(depth)
    rng = np.random.Generator(np.random.PCG64(seed))

    gates = [Gate(0, "h", (q,)) for q in range(lattice.n)]
    # last_gate[q] = (cycle, name) of the most recent gate on q
    last_gate: list[tuple[int, str]] = [(0, "h")] * lattice.n

    for cyc in range(1, depth.t + 1):
        bonds = pattern_bonds(lattice, (cyc - 1) % 8)
        busy = set()
        for a, b in bonds:
            gates.append(Gate(cyc, two_qubit_gate, (a, b)))
            busy.add(a)
            busy.add(b)
        for q in range(lattice.n):
            if q in busy:
                last_gate[q] = (cyc, two_qubit_gate)
                continue
            prev_cycle, prev_name = last_gate[q]
            if prev_cycle != cyc - 1:
                continue  # idled last cycle: keep idling until the next CZ
            if prev_name in TWO_QUBIT_GATES:
                name = "x_1_2" if rng.integers(0, 2) == 0 else "y_1_2"
                gates.append(Gate(cyc, name, (q,)))
                last_gate[q] = (cyc, name)
            elif prev_name in ("x_1_2", "y_1_2", "h"):
                gates.append(Gate(cyc, "t", (q,)))
                last_gate[q] = (cyc, "t")
            # previous gate was a T: idle
    final = depth.t + 1
    gates.extend(Gate(final, "h", (q,)) for q in range(lattice.n))

    meta = {"lattice": lattice.kind, "depth": str(depth), "seed": str(seed),
            "rng": RNG_NAME}
    return Circuit(lattice, depth, gates, meta=meta)


def cz_cut_count(circuit: Circuit, bipartition: tuple[Iterable[int], Iterable[int]]) -> int:
    """Number of two-qubit gates with endpoints on opposite sides of a bipartition."""
    part_a, part_b = (set(p) for p in bipartition)
    if part_a & part_b:
        raise ValueError("bipartition parts overlap")
    if part_a | part_b != set(range(circuit.n)):
        raise ValueError("bipartition does not cover all sites")
    return cross_gate_count(circuit, part_a, part_b)


def cross_gate_count(circuit: Circuit, part_x: Iterable[int], part_y: Iterable[int]) -> int:
    """Number of two-qubit gates with one endpoint in each of two disjoint sets."""
    sx, sy = set(part_x), set(part_y)
    if sx & sy:
        raise ValueError("parts overlap")
    count = 0
    for g in circuit.two_qubit_gates():
        a, b = g.qubits
        if (a in sx and b in sy) or (a in sy and b in sx):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Circuit file format.
#
#   <qubit count>
#   # optional comment / metadata lines:  "# key: value"
#   <cycle> <gate> <q0> [<q1>]
#
# Gates: h, t, x_1_2, y_1_2, cz, iswap.  Qubit ids are row-major site
# indexes on the bounding grid.
# ---------------------------------------------------------------------------

_META_KEYS = ("lattice", "depth", "seed", "rng")


def write_circuit(circuit: Circuit) -> str:
    lines = [str(circuit.n)]
    for key in _META_KEYS:
        if key in circuit.meta:
            lines.append(f"# {key}: {circuit.meta[key]}")
    for g in circuit.gates:
        lines.append(f"{g.cycle} {g.name} " + " ".join(str(q) for q in g.qubits))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, lattice: Optional[Lattice] = None) -> Circuit:
    """Parse a circuit file.

    If no lattice is given, it is recovered from the ``# lattice:`` header
    or, failing that, inferred as the smallest rectangle holding all qubits.
    """
    lines = text.splitlines()
    if not lines:
        raise CircuitFormatError("empty circuit file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise CircuitFormatError("first line must be the qubit count", 1) from None
    if not 2 <= n <= MAX_SITES:
        raise CircuitFormatError(
            f"qubit count must be at least 2 and at most {MAX_SITES}, got {n}", 1)

    meta: dict[str, str] = {}
    raw_gates: list[tuple[int, int, str, tuple[int, ...]]] = []
    max_cycle = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.fullmatch(r"#\s*(\w+)\s*:\s*(.+?)\s*", stripped)
            if m and m.group(1) in _META_KEYS:
                meta[m.group(1)] = m.group(2)
            continue
        parts = stripped.split()
        if len(parts) not in (3, 4):
            raise CircuitFormatError(f"expected '<cycle> <gate> <q0> [<q1>]', got {raw!r}", lineno)
        try:
            cycle = int(parts[0])
            qubits = tuple(int(p) for p in parts[2:])
        except ValueError:
            raise CircuitFormatError(f"bad integer in {raw!r}", lineno) from None
        name = parts[1].lower()
        if name not in GATE_NAMES:
            raise CircuitFormatError(f"unknown gate {parts[1]!r}", lineno)
        if cycle < 0:
            raise CircuitFormatError("negative cycle", lineno)
        if len(qubits) != (2 if name in TWO_QUBIT_GATES else 1):
            raise CircuitFormatError(f"wrong qubit count for {name}", lineno)
        for q in qubits:
            if not 0 <= q < n:
                raise CircuitFormatError(f"qubit {q} outside 0..{n - 1}", lineno)
        raw_gates.append((lineno, cycle, name, qubits))
        max_cycle = max(max_cycle, cycle)

    if lattice is None:
        if "lattice" in meta:
            lattice = _from_meta(Lattice.named, meta, "lattice")
        else:
            lattice = _infer_rectangle(n)
    if lattice.n != n:
        raise CircuitFormatError(
            f"qubit count {n} does not match lattice {lattice.kind} ({lattice.n} sites)")

    if "depth" in meta:
        depth = _from_meta(DepthSpec.parse, meta, "depth")
    else:
        depth = DepthSpec(max(0, max_cycle - 1))

    gates = []
    seen: set[tuple[int, int]] = set()
    for lineno, cycle, name, qubits in raw_gates:
        for q in qubits:
            if (cycle, q) in seen:
                raise CircuitFormatError(f"qubit {q} touched twice in cycle {cycle}", lineno)
            seen.add((cycle, q))
        if len(qubits) == 2 and not lattice.adjacent(*qubits):
            raise CircuitFormatError(
                f"two-qubit gate on non-adjacent qubits {qubits[0]} {qubits[1]}", lineno)
        gates.append(Gate(cycle, name, qubits))

    return Circuit(lattice, depth, gates, meta=meta)


def _from_meta(parse, meta: dict[str, str], key: str):
    """``parse`` of the ``# key:`` header, its errors as format errors."""
    try:
        return parse(meta[key])
    except ValueError as e:
        raise CircuitFormatError(f"bad {key} header: {e}") from None


def _infer_rectangle(n: int) -> Lattice:
    """Squarest rows x cols rectangle with rows*cols == n (rows <= cols)."""
    rows = next(d for d in range(int(n ** 0.5), 0, -1) if n % d == 0)
    return Lattice.rectangle(rows, n // rows)

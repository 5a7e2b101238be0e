"""Contraction plans: index cuts, nested loops, and tensor reuse.

A plan turns one big network contraction into a sum over *paths*.  Each
``cut`` names a bond (or group of bonds) whose index is fixed rather than
summed; a *path* is one assignment of values to all cuts, and summing the
plan's scalar output over every path reproduces the uncut contraction
exactly.  Cuts buy two things: the sliced intermediates are smaller (so
deep circuits fit in memory), and discarding a fraction of paths yields a
cheaper simulation whose output state has fidelity equal to the fraction
kept.

A plan is an ordered program of four statement kinds::

    cut <name> <a>:<b> [<a>:<b> ...] [values=v0,v1,...]
    loop <cut-name>
    contract <in> <in> ... -> <out> [reuse=global|outer]
    output <name>

``contract`` inputs are site tensors (``t12``) or earlier intermediates;
the executor folds them left to right.  ``loop`` statements open the
per-cut loops in declaration order and extend to the end of the program.
Steps placed before a cut's ``loop`` may not consume tensors sliced by
that cut.  The program runs as a loop nest: each step, and each site
tensor a cut slices, belongs to the innermost loop whose cut it depends
on, and keeps its value until that loop or an outer one ticks (paths are
visited in lexicographic order, so outer loops tick rarely).  ``reuse=``
annotations are declarative claims checked against the computed
dependency sets: ``global`` promises independence from every cut,
``outer`` promises independence from at least the innermost one.

One symbolic walk over the plan's program and site shapes validates,
prices and compiles it.  It checks the plan against the lattice and the
network's site tensors, derives each cut's loop length and each step's
dependency set, prices flops per step and over the whole path space and
a bound on the bytes the executor holds at once, and compiles the plan
(:class:`Compiled`): each fold's operand slots and its
:class:`~rqcsim.tensor_core.Route`, and each sliced site tensor's axes.
:func:`estimate_cost` runs it on the shapes a circuit's own gates give
(:func:`site_shapes`), :class:`PlanExecutor` on those of the network
built from them, so a plan accepted under a memory budget also runs
under it.  Memoized per network shape, it lets the executor run every
path on bare arrays, fixing cut values by basic indexing (views).

Every builtin plan comes from its lattice's one rule (:func:`_rule`): a
balanced split across the waist of a rectangle, and for each Bristlecone
lattice a row priced offline and listed here.  The batch region C joins
in one of two places: last, after the A x B join, or early, its core
contracted into B's before the loops.  Given the circuit, open sites and
precision, ``builtin_plan`` orders each region's core by its price on
those site shapes (:func:`_region_order`), prices both placements and
keeps the one with fewer flops (C last on a tie), cutting more of the
rule's bonds only where a memory budget needs it.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .circuits import Circuit, Lattice, generate_rqc
from .network_builder import FOLDED_CORNERS, Net2D, edge_label, site_shapes
from .tensor_core import (Tensor, contract_arrays, route, trim_scratch,
                          workspace_slots)
from .tensor_core import contract  # noqa: F401  unused here; bench/tracing.py wraps it


class PlanError(ValueError):
    """A plan is malformed or inconsistent with the lattice it targets."""


class MemoryBudgetError(RuntimeError):
    """Executing (or estimating) a plan would exceed the memory budget."""


# ---------------------------------------------------------------------------
# plan model


@dataclass(frozen=True)
class CutSpec:
    """A named group of bonds whose joint index is enumerated, not summed."""

    name: str
    bonds: tuple[tuple[int, int], ...]
    values: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        bonds = tuple(tuple(sorted(b)) for b in self.bonds)
        object.__setattr__(self, "bonds", bonds)
        if not bonds:
            raise PlanError(f"cut {self.name!r} names no bond")
        if len(set(bonds)) != len(bonds):
            raise PlanError(f"cut {self.name!r} lists a bond twice")
        if self.values is not None and len(set(self.values)) != len(self.values):
            raise PlanError(f"cut {self.name!r} lists a value twice")


@dataclass(frozen=True)
class ContractStep:
    """Fold ``inputs`` (left to right) into a tensor named ``name``."""

    inputs: tuple[str, ...]
    name: str
    reuse: Optional[str] = None

    def __post_init__(self):
        if not self.inputs:
            raise PlanError(f"step {self.name!r} has no inputs")
        if self.reuse not in (None, "global", "outer"):
            raise PlanError(f"step {self.name!r}: unknown reuse={self.reuse!r}")


@dataclass(frozen=True)
class ContractionPlan:
    """An ordered cut/loop/contract/output program for one lattice."""

    lattice_kind: str
    cuts: tuple[CutSpec, ...]
    program: tuple[tuple, ...]
    batch_sites: tuple[int, ...] = ()

    @property
    def cut_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.cuts)

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    def steps(self) -> Iterable[ContractStep]:
        for kind, payload in self.program:
            if kind == "contract":
                yield payload

    def cut_dims(self, bond_dims: dict[tuple[int, int], int]) -> tuple[int, ...]:
        """Loop lengths per cut, given per-bond dimensions."""
        dims = []
        for cut in self.cuts:
            if cut.values is not None:
                dims.append(len(cut.values))
            else:
                dims.append(math.prod(bond_dims.get(b, 1) for b in cut.bonds))
        return tuple(dims)

    def c_join_step(self) -> Optional[str]:
        """The step where the batch region first meets other sites: ``B0C``
        when C joins B's core before the loops, ``result`` when C joins
        last; None without a batch region."""
        region = set(self.batch_sites)
        holds: dict[str, set[bool]] = {}  # name -> {is a C site} over its sites
        for step in self.steps():
            holds[step.name] = set().union(*(
                {int(name[1:]) in region} if _SITE_RE.fullmatch(name)
                else holds[name] for name in step.inputs))
            if len(holds[step.name]) == 2:
                return step.name
        return None


_SITE_RE = re.compile(r"t(\d+)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# text format


def parse_plan(text: str) -> ContractionPlan:
    """Parse the plan text format (see module docstring)."""
    lattice_kind = None
    cuts: list[CutSpec] = []
    program: list[tuple] = []
    batch_sites: tuple[int, ...] = ()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        try:
            if kw == "plan":
                lattice_kind = tokens[1]
            elif kw == "batch":
                batch_sites = tuple(int(t) for t in tokens[1:])
            elif kw == "cut":
                name = tokens[1]
                bonds = []
                values = None
                for tok in tokens[2:]:
                    if tok.startswith("values="):
                        values = tuple(int(v) for v in tok[7:].split(","))
                    else:
                        a, b = tok.split(":")
                        bonds.append((int(a), int(b)))
                cuts.append(CutSpec(name, tuple(bonds), values))
            elif kw == "loop":
                program.append(("loop", tokens[1]))
            elif kw == "contract":
                arrow = tokens.index("->")
                inputs = tuple(tokens[1:arrow])
                name = tokens[arrow + 1]
                reuse = None
                for tok in tokens[arrow + 2:]:
                    if tok.startswith("reuse="):
                        reuse = tok[6:]
                    else:
                        raise PlanError(f"unexpected token {tok!r}")
                if not _NAME_RE.fullmatch(name):
                    raise PlanError(f"bad tensor name {name!r}")
                program.append(("contract", ContractStep(inputs, name, reuse)))
            elif kw == "output":
                program.append(("output", tokens[1]))
            else:
                raise PlanError(f"unknown statement {kw!r}")
        except PlanError as exc:
            raise PlanError(f"line {lineno}: {exc}") from None
        except (ValueError, IndexError) as exc:
            raise PlanError(f"line {lineno}: {exc}") from None

    if lattice_kind is None:
        raise PlanError("missing 'plan <lattice>' header line")
    return ContractionPlan(lattice_kind, tuple(cuts), tuple(program), batch_sites)


def format_plan(plan: ContractionPlan) -> str:
    """Render a plan in the text format; inverse of :func:`parse_plan`."""
    lines = [f"plan {plan.lattice_kind}"]
    if plan.batch_sites:
        lines.append("batch " + " ".join(str(s) for s in plan.batch_sites))
    for cut in plan.cuts:
        bonds = " ".join(f"{a}:{b}" for a, b in cut.bonds)
        line = f"cut {cut.name} {bonds}"
        if cut.values is not None:
            line += " values=" + ",".join(str(v) for v in cut.values)
        lines.append(line)
    for kind, payload in plan.program:
        if kind == "loop":
            lines.append(f"loop {payload}")
        elif kind == "contract":
            line = f"contract {' '.join(payload.inputs)} -> {payload.name}"
            if payload.reuse:
                line += f" reuse={payload.reuse}"
            lines.append(line)
        else:
            lines.append(f"output {payload}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# path enumeration


def enumerate_paths(cut_dims: Sequence[int], f: float = 1.0,
                    seed: int = 0, count: Optional[int] = None) -> list[tuple[int, ...]]:
    """Paths (one cut value per cut) in lexicographic order.

    With ``f=1`` the full Cartesian product is returned.  For ``f < 1`` (or
    an explicit ``count``) ceil(f * total) distinct paths are drawn without
    replacement using the given seed, then sorted; keeping that fraction of
    paths yields an output state of fidelity f.
    """
    dims = tuple(int(d) for d in cut_dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"cut dims must be positive, got {dims}")
    total = math.prod(dims)
    if count is None:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fidelity fraction must be in (0, 1], got {f}")
        count = math.ceil(f * total)
    if not 1 <= count <= total:
        raise ValueError(f"path count {count} not in [1, {total}]")

    if count == total:
        return list(itertools.product(*(range(d) for d in dims)))

    rng = np.random.Generator(np.random.PCG64(seed))
    ids = np.sort(rng.choice(total, size=count, replace=False))
    paths = []
    for pid in ids.tolist():
        path = []
        for d in reversed(dims):
            path.append(pid % d)
            pid //= d
        paths.append(tuple(reversed(path)))
    return paths


# ---------------------------------------------------------------------------
# execution


class PlanExecutor:
    """Runs a plan against a 2D network, one path at a time.

    At construction it validates, prices and compiles the plan with the
    shape walk of :func:`estimate_cost`, fed the shapes and dtype of
    ``net`` itself (the cut lengths ``cut_dims`` come from it too):
    ``peak_bytes`` is the walk's bound on the live set, a plan over
    ``memory_budget`` is refused before anything is contracted, and the
    thread's operand scratch is trimmed to the walk's price for it.
    ``run`` keeps every step's and sliced site tensor's last value and
    reruns only those at or inside the outermost loop whose cut value
    changed since the last completed path; ``flops`` grows by each rerun
    step's count.  With ``trace`` it also times every step
    (:meth:`step_trace`); without it the loop reads no clock.
    """

    def __init__(self, net: Net2D, plan: ContractionPlan, *,
                 thread_count: int = 1, memory_budget: Optional[int] = None,
                 trace: bool = False):
        self.thread_count = thread_count
        cost, self._compiled = _priced(
            plan, net.circuit.lattice,
            tuple((s, tuple(zip(t.labels, t.dims))) for s, t in net.tensors.items()),
            max(t.array.itemsize for t in net.tensors.values()),
            _kernels.get_backend())
        self.cut_dims = self._compiled.cut_dims
        if memory_budget is not None and cost.peak_bytes > memory_budget:
            raise MemoryBudgetError(
                f"plan needs ~{cost.peak_bytes} bytes, budget is {memory_budget}")
        self.peak_bytes = cost.peak_bytes
        trim_scratch(cost.scratch_bytes)
        self.flops = 0
        self._steps = cost.steps
        self._sites = [t.array for t in net.tensors.values()]
        # slot -> its value on the last path: site tensors, then steps
        self._values = self._sites + [None] * len(cost.steps)
        self._last: Optional[tuple[int, ...]] = None  # last completed path
        # per step: [evaluations, seconds, flops] over this executor's runs
        self._trace = [[0, 0.0, 0] for _ in cost.steps] if trace else None

    def run(self, path: tuple[int, ...]) -> Tensor:
        """Execute one path; returns the output tensor (scalar-ranked
        unless the network has open outputs)."""
        path = tuple(path)
        if len(path) != len(self.cut_dims):
            raise ValueError(f"path has {len(path)} values, plan has "
                             f"{len(self.cut_dims)} cuts")
        for value, dim in zip(path, self.cut_dims):
            if not 0 <= value < dim:
                raise ValueError(f"path value {value} out of range [0, {dim})")

        last, self._last = self._last, None  # nothing is current until done
        outer = -1 if last is None else next(
            (i for i, (v, w) in enumerate(zip(path, last)) if v != w), len(path))
        values, sites, threads = self._values, self._sites, self.thread_count
        trace, first_step = self._trace, len(sites)
        for dst, src, cut, folds, flops in self._compiled.reruns[outer + 1]:
            if trace is not None:
                start = time.perf_counter()
            if cut is None:
                acc = values[src]
            else:  # a sliced site tensor, as a view of the network's array
                index = list(cut[0])
                for pos, i, digits in cut[1]:
                    index[pos] = digits[path[i]]
                acc = sites[src][tuple(index)]
            for other, r in folds:
                acc = contract_arrays(acc, values[other], r, threads)
            values[dst] = acc
            self.flops += flops
            if trace is not None and dst >= first_step:
                row = trace[dst - first_step]
                row[0] += 1
                row[1] += time.perf_counter() - start
                row[2] += flops
        self._last = path
        return Tensor(self._compiled.out_labels, values[-1])

    def step_trace(self) -> list[dict]:
        """Per plan step, over this executor's runs so far (needs
        ``trace``): evaluations, seconds, the flops counted, and the
        flops the walk prices for the whole path space."""
        if self._trace is None:
            raise ValueError("executor was built without trace=True")
        return [{"step": sc.name, "evaluations": n, "seconds": seconds,
                 "flops": flops, "flops_priced": sc.flops * sc.evaluations}
                for sc, (n, seconds, flops) in zip(self._steps, self._trace)]


def execute_plan(net: Net2D, plan: ContractionPlan, path: tuple[int, ...], *,
                 memory_budget: Optional[int] = None) -> Tensor:
    """One-shot convenience wrapper; reuse :class:`PlanExecutor` across
    paths when summing more than one."""
    ex = PlanExecutor(net, plan, memory_budget=memory_budget)
    return ex.run(path)


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class StepCost:
    name: str
    flops: int        # one evaluation
    evaluations: int  # distinct dependency-value combinations


@dataclass(frozen=True)
class CostEstimate:
    """Cost of running a plan over its full path space."""

    paths: int
    total_flops: int
    peak_bytes: int
    steps: tuple[StepCost, ...] = field(repr=False, default=())
    scratch_bytes: tuple[int, int] = (0, 0)  # (left, right) operand scratch, in peak_bytes


class Compiled(NamedTuple):
    """A plan's schedule on bare arrays, from :func:`_walk`.  Values live
    in slots: the site tensors in the network's order, then the steps in
    program order.  ``reruns[k + 1]`` lists what :meth:`PlanExecutor.run`
    recomputes when loop ``k`` is the outermost that ticked (-1:
    everything): ``(dst, src, cut, folds, flops)`` starts from slot
    ``src``, or for a sliced site tensor from the view that ``cut = (index,
    axes)`` selects (each ``(axis, cut, digits)`` sets ``index[axis]`` to
    ``digits[path[cut]]``), folds in each ``(slot, route)`` by
    :func:`contract_arrays` and stores the result in slot ``dst``.
    ``cut_dims`` are the loop lengths."""

    reruns: tuple
    out_labels: tuple[str, ...]
    cut_dims: tuple[int, ...]


def _walk(plan: ContractionPlan, lattice: Lattice,
          shapes: dict[int, dict[str, int]],
          itemsize: int) -> tuple[CostEstimate, Compiled]:
    """Validate, price and compile ``plan`` in one pass over its program.

    The plan is checked against ``lattice`` and the network's site shapes
    (site -> label -> dim, in the site tensor's index order): it must
    consume every site tensor of ``shapes`` and no other, and each cut's
    loop length is its value count or its bonds' dimensions there.  Each
    step's dependency set is the cuts its inputs depend on.  The walk
    folds the shapes through :func:`route`, the way the executor folds its
    tensors, pricing every step and the live set as it goes.

    Flops follow the 8-real-ops-per-complex-multiply-add convention for
    each pairwise matrix product.  A step reruns whenever a loop at or
    outside its innermost dependency ticks.  The peak bounds, in bytes,
    the executor's live set at any moment: every step's last output (a
    recomputing step's stale value included), every sliced site tensor,
    the arrays one fold or slicing makes fresh (the accumulator this step
    built so far plus the new product or slices), and the operand
    scratch of :func:`contract_arrays`: per side and workspace slot, the
    largest operand the route copies there.  The executor slices by
    views, copied only by a route that reads a non-contiguous one in
    place (:func:`~rqcsim.tensor_core.permute_fast`); a slice is priced as
    a copy held, so the peak stays an upper bound.
    """
    if len(set(plan.cut_names)) != len(plan.cuts):
        raise PlanError("duplicate cut names")
    cut_index = {c.name: i for i, c in enumerate(plan.cuts)}
    site_cuts: dict[int, list[int]] = {}  # site -> cuts slicing it
    bond_dims: dict[tuple[int, int], int] = {}
    for i, cut in enumerate(plan.cuts):
        for a, b in cut.bonds:
            absent = [s for s in (a, b) if not 0 <= s < lattice.n]
            if absent:
                raise PlanError(f"cut {cut.name!r}: {a}:{b} is not a lattice "
                                f"bond ({lattice.kind} has no site {absent[0]})")
            if not lattice.adjacent(a, b):
                raise PlanError(f"cut {cut.name!r}: {a}:{b} is not a lattice bond")
            if (a, b) in bond_dims:
                raise PlanError(f"bond {a}:{b} appears in two cuts")
            bond_dims[a, b] = shapes.get(a, {}).get(edge_label(a, b), 1)
            site_cuts.setdefault(a, []).append(i)
            site_cuts.setdefault(b, []).append(i)
    cut_dims = plan.cut_dims(bond_dims)

    slot = {f"t{s}": i for i, s in enumerate(shapes)}
    opened: list[int] = []
    consumed: set[int] = set()
    output = None
    cached = slices = transient = 0
    scratch = ([0, 0], [0, 0])  # side (left, right) -> slot -> entries
    steps: list[StepCost] = []
    schedule: list[tuple[int, tuple]] = []  # (innermost cut, entry)
    folded: dict[str, tuple[dict[str, int], set[int]]] = {}  # shape, deps

    for kind, payload in plan.program:
        if kind == "loop":
            if payload not in cut_index:
                raise PlanError(f"loop over undeclared cut {payload!r}")
            if opened and cut_index[payload] <= opened[-1]:
                raise PlanError("loops must open cuts in declaration order")
            opened.append(cut_index[payload])
            continue
        if kind == "output":
            if payload not in folded:
                raise PlanError(f"output references undefined name {payload!r}")
            if output is not None:
                raise PlanError("plan has two output statements")
            output = payload
            continue
        if kind != "contract":  # pragma: no cover - parser never emits others
            raise PlanError(f"unknown statement kind {kind!r}")
        step = payload
        if output is not None:
            raise PlanError("contract step after output")
        if step.name in folded or _SITE_RE.fullmatch(step.name):
            raise PlanError(f"name {step.name!r} already defined")
        acc: Optional[dict[str, int]] = None
        deps: set[int] = set()
        flops = 0
        fresh = 0  # entries of the accumulator, once this step made it
        folds = []
        for name in step.inputs:
            m = _SITE_RE.fullmatch(name)
            if m:
                site = int(m.group(1))
                if not 0 <= site < lattice.n:
                    raise PlanError(f"step {step.name!r}: {lattice.kind} "
                                    f"has no site {site}")
                if site in consumed:
                    raise PlanError(f"site tensor t{site} consumed twice")
                if site not in shapes:
                    raise PlanError(f"plan references absent site tensors "
                                    f"[{site}]")
                consumed.add(site)
                deps.update(site_cuts.get(site, ()))
                operand = dict(shapes[site])
                axis = {label: p for p, label in enumerate(operand)}
                sizes = []  # entries after each fix, in slicing order
                fixes = []
                for i in site_cuts.get(site, ()):
                    cut, stride = plan.cuts[i], 1
                    for bond in reversed(cut.bonds):
                        label, dim = edge_label(*bond), bond_dims[bond]
                        if operand.pop(label, None) is not None:
                            sizes.append(math.prod(operand.values()))
                            fixes.append((axis[label], i, tuple(
                                v // stride % dim
                                for v in cut.values or range(cut_dims[i]))))
                        stride *= dim
                if sizes:
                    slices += sizes[-1]
                    transient = max(transient, fresh + sum(sizes[:2]))
                    index = (slice(None),) * len(shapes[site]) + (Ellipsis,)
                    schedule.append((fixes[-1][1], (slot[name], slot[name], (
                        index, tuple(fixes)), (), 0)))
            elif name in folded:
                operand, input_deps = folded[name]
                deps.update(input_deps)
            else:
                raise PlanError(f"step {step.name!r}: undefined input {name!r}")
            if acc is None:
                acc, first = operand, slot[name]
                continue
            r = route(tuple(acc), tuple(acc.values()),
                      tuple(operand), tuple(operand.values()))
            sides = (operand, acc) if r.swap else (acc, operand)
            l_size, r_size = (math.prod(side.values()) for side in sides)
            for held, perm, size in zip(scratch, (r.plan_l, r.plan_r),
                                        (l_size, r_size)):
                for ws_slot in range(workspace_slots(perm)):
                    held[ws_slot] = max(held[ws_slot], size)
            flops += 8 * r.rows * r_size  # 8 * m * k * n
            out = math.prod(r.dims)
            transient = max(transient, fresh + out)
            fresh = out
            folds.append((slot[name], r))
            acc = dict(zip(r.labels, r.dims))
        if not deps.issubset(opened):
            missing = [plan.cuts[i].name for i in sorted(deps - set(opened))]
            raise PlanError(f"step {step.name!r} uses cut tensors before "
                            f"loop(s) {missing} are open")
        if step.reuse == "global" and deps:
            raise PlanError(f"step {step.name!r} marked global but depends on cuts")
        if step.reuse == "outer" and len(deps) >= len(plan.cuts):
            raise PlanError(f"step {step.name!r} marked outer but depends on "
                            f"every cut")
        folded[step.name] = acc, deps
        slot[step.name] = len(shapes) + len(steps)
        cached += math.prod(acc.values())
        inner = max(deps, default=-1)
        schedule.append((inner, (slot[step.name], first, None, tuple(folds),
                                 flops)))
        steps.append(StepCost(step.name, flops, math.prod(cut_dims[:inner + 1])))

    if output is None:
        raise PlanError("plan has no output statement")
    if len(opened) != len(plan.cuts):
        unlooped = [c.name for i, c in enumerate(plan.cuts) if i not in opened]
        raise PlanError(f"cuts never looped: {unlooped}")
    # Every intermediate must feed the output: anything dangling means a
    # mis-typed plan.
    reach = {output}
    for step in reversed(tuple(plan.steps())):
        if step.name in reach:
            reach.update(step.inputs)
    dangling = set(folded) - reach
    if dangling:
        raise PlanError(f"intermediates never used by output: {sorted(dangling)}")
    for site in plan.batch_sites:
        if not 0 <= site < lattice.n:
            raise PlanError(f"batch region references missing site {site}")
    missing = set(shapes) - consumed
    if missing:
        raise PlanError(f"plan never consumes site tensors {sorted(missing)}")
    for cut in plan.cuts:
        if any(not 0 <= v < math.prod(bond_dims[b] for b in cut.bonds)
               for v in cut.values or ()):
            raise PlanError(f"cut {cut.name!r} values out of range")

    left, right = (sum(held) * itemsize for held in scratch)
    reruns = tuple(tuple(entry for inner, entry in schedule if inner >= outer)
                   for outer in range(-1, len(cut_dims) + 1))
    return CostEstimate(math.prod(cut_dims),
                        sum(sc.flops * sc.evaluations for sc in steps),
                        (cached + slices + transient) * itemsize + left + right,
                        tuple(steps), (left, right)), \
        Compiled(reruns, tuple(acc), cut_dims)


@functools.lru_cache(maxsize=32)
def _priced(plan: ContractionPlan, lattice: Lattice,
            shapes: tuple[tuple[int, tuple[tuple[str, int], ...]], ...],
            itemsize: int, backend: str) -> tuple[CostEstimate, Compiled]:
    """:func:`_walk` on a network's site shapes (site, ((label, dim),
    ...)).

    Every executor built on networks of one shape -- each batch of a
    sampling run, each amplitude of one circuit -- gets the same answer,
    so it is memoized; callers must not mutate what it returns.  The
    answer holds routes and indexes, never arrays.  The scratch price
    depends on the active kernel backend too (:func:`workspace_slots`), so
    ``backend`` names it in the memo key.
    """
    return _walk(plan, lattice, {s: dict(ls) for s, ls in shapes}, itemsize)


def _layout(lattice: Lattice, depth) -> Circuit:
    """``depth`` if it is the :class:`Circuit` that runs, else the layout
    generated at that depth spec (placement does not depend on the seed)."""
    circuit = depth if isinstance(depth, Circuit) else generate_rqc(lattice, depth, 0)
    if circuit.lattice != lattice:
        raise PlanError(f"plan lattice {lattice.kind} does not match the "
                        f"circuit's {circuit.lattice.kind}")
    return circuit


def estimate_cost(plan: ContractionPlan, lattice: Lattice, depth, *,
                  open_sites: Sequence[int] = (),
                  itemsize: int = 8) -> CostEstimate:
    """Price ``plan`` over its full path space without building a network.

    ``depth`` is the :class:`Circuit` that runs, or a depth spec for the
    generated layout.  Site shapes come from :func:`site_shapes`, the
    shapes ``contract_time`` gives its gates and ``open_sites``.  They go
    through the same shape walk a :class:`PlanExecutor` runs on its
    network, so for a network of this circuit, open sites and ``itemsize``
    the two agree exactly: ``total_flops`` is what the executor counts
    over every path, and ``peak_bytes`` is its ``peak_bytes``.
    """
    shapes = site_shapes(_layout(lattice, depth), open_sites)
    return _walk(plan, lattice, shapes, itemsize)[0]


# ---------------------------------------------------------------------------
# built-in plans


def _region_order(lattice: Lattice, sites: Sequence[int],
                  shapes: Optional[dict[int, dict[str, int]]] = None) -> list[int]:
    """Left-deep contraction order for one region's core.

    The boundary chain grows a cluster from the lowest site id, always
    absorbing the neighbouring site that keeps the cluster boundary (open
    bond count) smallest: absorbing ``s`` adds ``deg(s) - 2 |N(s) &
    cluster|`` to it, so that is its key.  Without ``shapes`` that chain
    is the order.  Given the site shapes the plan is priced on, the order
    is the chain of fewest flops (:func:`_chain_price`) among the boundary
    chain and one priced greedy run from every start site -- each step
    folds in the touching site whose product, then whose result, is
    smallest -- keeping only chains whose largest intermediate is no
    larger than the boundary chain's; the boundary chain wins a tie.
    """
    remaining = set(sites)
    touching = dict.fromkeys(remaining, 0)  # site -> neighbours in the cluster
    order = [min(remaining)]
    while True:
        remaining.discard(order[-1])
        for n in lattice.neighbors(order[-1]):
            if n in remaining:
                touching[n] += 1
        if not remaining:
            break
        candidates = [s for s in remaining if touching[s]] or remaining
        order.append(min(candidates, key=lambda s: (
            len(lattice.neighbors(s)) - 2 * touching[s], s)))
    if shapes is None:
        return order
    return [order[i] for i in _cheapest_chain(
        _label_masks([shapes[s] for s in order]))]


def _label_masks(shapes: Sequence[dict[str, int]]) -> tuple[int, ...]:
    """Each site's labels as one integer: a label of dimension ``2**k``
    owns ``k`` bits, so the log2 size of any set of labels is the
    popcount of its mask.  Bond and output dimensions are powers of two
    (powers of the gates' Schmidt ranks, and 2)."""
    bits: dict[str, int] = {}
    masks, used = [], 0
    for labels in shapes:
        masks.append(0)
        for label, dim in labels.items():
            if label not in bits:
                width = dim.bit_length() - 1
                bits[label] = ((1 << width) - 1) << used
                used += width
            masks[-1] |= bits[label]
    return tuple(masks)


def _chain_price(masks: Sequence[int]) -> tuple[int, int]:
    """(flops, log2 of the largest intermediate) of folding label masks
    (:func:`_label_masks`) left to right.  A fold prices ``8 * prod`` of
    the dims of its labels' union, as :func:`_walk` counts it, and leaves
    the labels only one side holds."""
    acc, flops, peak = masks[0], 0, 0
    for m in masks[1:]:
        flops += 8 << (acc | m).bit_count()
        acc ^= m
        peak = max(peak, acc.bit_count())
    return flops, peak


@functools.lru_cache(maxsize=256)
def _cheapest_chain(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of ``masks`` in the order :func:`_region_order` picks,
    position order being the boundary chain.  A greedy run stops once it
    prices no fewer flops than the best chain so far or holds a larger
    intermediate than the boundary chain; memoized because both
    placements of C share every core."""
    best = tuple(range(len(masks)))
    least, bound = _chain_price(masks)
    for start in best:
        acc, flops, peak, chain = masks[start], 0, 0, [start]
        rest = [i for i in best if i != start]
        while rest and flops < least and peak <= bound:
            union, size, i = min(
                ((acc | masks[i]).bit_count(), (acc ^ masks[i]).bit_count(), i)
                for i in [i for i in rest if acc & masks[i]] or rest)
            flops += 8 << union
            acc ^= masks[i]
            peak = max(peak, size)
            chain.append(i)
            rest.remove(i)
        if not rest and flops < least and peak <= bound:
            best, least = tuple(chain), flops
    return best


def two_region_plan(lattice: Lattice, region_a: set[int], region_b: set[int],
                    region_c: set[int], cut_bonds: Sequence[tuple[int, int]],
                    *, c_early: bool = False,
                    shapes: Optional[dict[int, dict[str, int]]] = None
                    ) -> ContractionPlan:
    """Assemble the standard A x B (x C) plan shape used by every builtin:
    cut-free region cores contract once and each loop folds in the sites
    the newly-opened cut slices.  Each core folds in
    :func:`_region_order`'s order: the boundary chain, or given the site
    ``shapes`` the plan will be priced on, the cheapest priced chain.

    The batch-friendly region C joins in one of two places.  By default it
    joins last, after the A x B join, inside the loops.  With ``c_early``
    its cut-free core is contracted into B's before the first loop
    (``contract B0 C -> B0C reuse=global``), its sliced sites join B's
    chain, and the A x B join is the output: B then never carries both the
    cut waist and its bonds to C, but with C's outputs open every path
    carries them.
    """
    cuts = tuple(CutSpec(f"w{i}", (tuple(sorted(b)),))
                 for i, b in enumerate(cut_bonds))
    regions = {"A": set(region_a), "B": set(region_b), "C": set(region_c)}
    # A sliced site joins its region only once every cut touching it is open.
    join_at: dict[str, dict[int, list[int]]] = {r: {} for r in regions}
    for rname, rsites in regions.items():
        for site in sorted(rsites):
            touching = [i for i, cut in enumerate(cuts) if site in cut.bonds[0]]
            if touching:
                join_at[rname].setdefault(max(touching), []).append(site)
                rsites.discard(site)
    if c_early:
        for i, sites in join_at.pop("C").items():
            join_at["B"].setdefault(i, []).extend(sites)

    program: list[tuple] = []
    current: dict[str, str] = {}
    for rname in ("A", "B", "C"):
        if regions[rname]:
            core = f"{rname}0" if join_at.get(rname) else rname
            order = _region_order(lattice, regions[rname], shapes)
            program.append(("contract", ContractStep(
                tuple(f"t{s}" for s in order), core, "global")))
            current[rname] = core
    if c_early and "C" in current:
        inputs = tuple(current[r] for r in ("B", "C") if r in current)
        current["B"] = "".join(inputs)
        del current["C"]
        if len(inputs) == 2:
            program.append(("contract",
                            ContractStep(inputs, current["B"], "global")))

    for i, cut in enumerate(cuts):
        program.append(("loop", cut.name))
        for rname, joins in join_at.items():
            add = joins.get(i)
            if not add:
                continue
            inputs = ([current[rname]] if rname in current else []) + \
                [f"t{s}" for s in add]
            new = rname if i == max(joins) else f"{rname}{i + 1}"
            reuse = "outer" if i + 1 < len(cuts) else None
            program.append(("contract", ContractStep(tuple(inputs), new, reuse)))
            current[rname] = new

    names = [current[r] for r in ("A", "B") if r in current]
    if len(names) == 1:
        ab = names[0]
    else:
        program.append(("contract", ContractStep(tuple(names), "AB", None)))
        ab = "AB"
    if "C" in current:
        program.append(("contract", ContractStep((ab, current["C"]), "result", None)))
        program.append(("output", "result"))
    else:
        program.append(("output", ab))

    return ContractionPlan(lattice.kind, cuts, tuple(program),
                           tuple(sorted(region_c)))


def _waist(row: int, cols: Sequence[int]) -> tuple:
    """The bonds between rows ``row - 1`` and ``row`` at ``cols``."""
    return tuple(((row - 1, c), (row, c)) for c in cols)


#: The Bristlecone plans, by lattice kind, on sites (row, col): who is in
#: region A, who is in the batch region C, and the cut A|B bonds.  Each row
#: is the A = {f < k} or {f > k}, f one of r, c, r +- c, and cut set
#: pricing fewest closed flops at 1+32+1 (searched offline).
_BRISTLECONE = {
    "bristlecone-24": (lambda r, c: r - c < 3, lambda r, c: r - c >= 4,
                       (((5, 2), (5, 3)),)),
    "bristlecone-48": (lambda r, c: r > 7, lambda r, c: c <= 2,
                       _waist(8, (3, 4))),
    "bristlecone-60": (lambda r, c: r < 6,
                       lambda r, c: c == 7 or (c >= 8 and 4 <= r <= 5),
                       _waist(6, (4, 5, 6))),
    "bristlecone-64": (lambda r, c: r - c > 4, lambda r, c: c <= 1,
                       (((7, 2), (7, 3)), ((7, 3), (8, 3)))),
    "bristlecone-70": (lambda r, c: r + c > 7, lambda r, c: c <= 2,
                       (((3, 4), (3, 5)), ((3, 4), (4, 4)),
                        ((4, 3), (4, 4)), ((4, 3), (5, 3)))),
    "bristlecone-72": (lambda r, c: c > 3, lambda r, c: c <= 2,
                       tuple(((r, 3), (r, 4)) for r in range(5, 9))),
}


def _rule(lattice: Lattice):
    """The lattice's plan rule ``(in_a, in_c, cuts, default)``: predicates
    on (row, col) for region A and the batch region C, the cut A|B bonds
    on (row, col) in the order a plan cuts them, and how many of them a
    plan cuts by default.

    A Bristlecone lattice has its tabled row, every bond cut by default.
    A full rectangle splits across the waist of its longer axis, keeps a
    small bottom-right block as C, and cuts the waist bonds farthest from
    C first, half of them by default.
    """
    if lattice.kind in _BRISTLECONE:
        in_a, in_c, cuts = _BRISTLECONE[lattice.kind]
        return in_a, in_c, cuts, len(cuts)
    rows, cols = lattice.bounding_shape
    if lattice.n != rows * cols:
        raise PlanError(f"no builtin plan for lattice {lattice.kind!r}")
    if cols >= rows:
        mid = (cols + 1) // 2
        in_a = lambda r, c: c < mid
        c_from = ((rows + 1) // 2, max(mid, cols - 2))
        cuts = tuple(((r, mid - 1), (r, mid)) for r in range(rows))
    else:
        mid = (rows + 1) // 2
        in_a = lambda r, c: r < mid
        c_from = (max(mid, rows - 2), (cols + 1) // 2)
        cuts = _waist(mid, range(cols))
    in_c = lambda r, c: r >= c_from[0] and c >= c_from[1]
    return in_a, in_c, cuts, len(cuts) // 2


def _regions(lattice: Lattice, n_cuts: Optional[int] = None):
    """Regions A, B, C and the first ``n_cuts`` cut bonds (default: the
    rule's count) of the lattice's rule.  C wins where both predicates
    hold, B is the rest, and sites ``contract_time`` folds are in no
    region."""
    in_a, in_c, cuts, default = _rule(lattice)
    if n_cuts is None:
        n_cuts = default
    if not 0 <= n_cuts <= len(cuts):
        raise PlanError(f"{lattice.kind} plan has {len(cuts)} cut bonds, "
                        f"cannot cut {n_cuts}")
    regions = {"A": set(), "B": set(), "C": set()}
    for rc in lattice.sites:
        if rc not in FOLDED_CORNERS.get(lattice.kind, ()):
            name = "C" if in_c(*rc) else "A" if in_a(*rc) else "B"
            regions[name].add(lattice.site_id(rc))
    cut_bonds = [tuple(lattice.site_id(rc) for rc in bond)
                 for bond in cuts[:n_cuts]]
    return regions["A"], regions["B"], regions["C"], cut_bonds


def grid_plan(lattice: Lattice, n_cuts: Optional[int] = None, *,
              c_early: bool = False) -> ContractionPlan:
    """The two-region plan of the lattice's rule, cutting its first
    ``n_cuts`` bonds (default: the rule's count; for a rectangle, half the
    waist, the bonds farthest from C).  C joins last unless ``c_early``
    (see :func:`two_region_plan`)."""
    return two_region_plan(lattice, *_regions(lattice, n_cuts),
                           c_early=c_early)


def load_plan(source) -> ContractionPlan:
    """Load a plan from a file path."""
    with open(source, "r", encoding="utf-8") as fh:
        return parse_plan(fh.read())


def builtin_plan(lattice: Lattice, depth=None,
                 memory_budget: Optional[int] = None, *,
                 open_sites: Sequence[int] = (),
                 itemsize: int = 8) -> ContractionPlan:
    """The builtin plan for this lattice, built from its rule (see
    :func:`_rule`); without ``depth``, :func:`grid_plan`'s default.

    Given ``depth`` (a circuit or depth spec, as :func:`estimate_cost`
    takes it), it derives the site shapes once, for ``open_sites`` left
    open, and tries each cut count from the rule's default up to all of
    its bonds (a Bristlecone lattice has one count) until a plan fits
    ``memory_budget`` (bytes, if given): at each count it builds C joining
    last and C joining early (see :func:`two_region_plan`), each core
    ordered by its price on those shapes, prices both as
    :func:`estimate_cost` does at ``itemsize``-byte entries, and keeps the
    one that fits at fewer total flops, C last on a tie.  A priced order
    can copy larger operands into scratch than the boundary order, so
    under a budget the boundary-ordered plans compete too, after their
    priced twins on a tie.  Where no count fits, it fails with a
    diagnostic.
    """
    if memory_budget is not None and depth is None:
        raise ValueError("memory budgets need the circuit depth")
    if depth is None:
        return grid_plan(lattice)
    cuts, default = _rule(lattice)[2:]
    circuit = _layout(lattice, depth)
    shapes = site_shapes(circuit, open_sites)
    orders = (shapes,) if memory_budget is None else (shapes, None)
    for n_cuts in range(default, len(cuts) + 1):
        regions = _regions(lattice, n_cuts)
        plans = [two_region_plan(lattice, *regions, c_early=early, shapes=order)
                 for early in (False, True) for order in orders]
        costs = [_walk(p, lattice, shapes, itemsize)[0] for p in plans]
        fits = [(cost.total_flops, i) for i, cost in enumerate(costs)
                if memory_budget is None or cost.peak_bytes <= memory_budget]
        if fits:
            return plans[min(fits)[1]]
    raise MemoryBudgetError(
        f"plan for {lattice.kind} needs ~{min(c.peak_bytes for c in costs)} "
        f"bytes at depth {circuit.depth} with all {len(cuts)} of its "
        f"cut bonds, budget is {memory_budget}")

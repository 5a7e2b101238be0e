"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces module attributes and methods with timing
wrappers, including the names modules import from each other
(``contraction_plan.contract`` is the same function as
``tensor_core.contract`` but a separate binding), and ``remove`` puts the
originals back.  Spans (name, start, end, parent, attributes) stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; because spans nest strictly in one
thread, the self times under an operation add up to that operation's
duration.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attrs)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def wrap(self, fn, name, describe=None):
        """Timing wrapper; ``describe(args)`` may return (name, attrs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, attrs = describe(args) if describe else (name, None)
            idx = tracer.open(span_name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: (owner, attribute, span name, describe or None)."""
        for owner, attr, name, describe in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, describe))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def roots_of(self, root_name: str) -> list[int]:
        """For each span, the index of its nearest ancestor-or-self named
        ``root_name`` (-1 if none).  Parents precede children."""
        root = [-1] * len(self.names)
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            root[i] = i if name == root_name else (root[p] if p >= 0 else -1)
        return root

    def dump(self) -> dict:
        return {"names": self.names, "start_ns": self.starts,
                "end_ns": self.ends, "parent": self.parents,
                "attrs": self.attrs}


def permute_describe(args):
    """Name a ``permute_fast`` span by what its plan will do."""
    array, plan = args[0], args[1]
    if plan.fallback is not None:
        return "tensor_core.permute_naive", {"bytes": 2 * array.nbytes}
    if plan.moves:
        k = len(plan.moves)
        return (f"tensor_core.permute_moves.{k}",
                {"bytes": 2 * k * array.nbytes})
    return "tensor_core.permute_identity", None


def contract_describe(args):
    a, b = args[0], args[1]
    shared = set(a.labels) & set(b.labels)
    mk = a.size
    k = math.prod(d for l, d in zip(b.labels, b.dims) if l in shared)
    n = b.size // k if k else 0
    return "tensor_core.contract", {"flops": 8 * mk * n}


def program_targets(rq) -> list[tuple]:
    """Every public call the per-layer metrics are taken from."""
    cp, nb, tc, ae = (rq.contraction_plan, rq.network_builder,
                      rq.tensor_core, rq.amplitude_engine)
    return [
        (rq.circuits, "generate_rqc", "circuits.generate_rqc", None),
        (cp, "builtin_plan", "contraction_plan.builtin_plan", None),
        (ae, "builtin_plan", "contraction_plan.builtin_plan", None),
        (nb, "build_3d", "network_builder.build_3d", None),
        (ae, "build_3d", "network_builder.build_3d", None),
        (nb, "contract_time", "network_builder.contract_time", None),
        (ae, "contract_time", "network_builder.contract_time", None),
        (nb.Net2D, "fix_outputs", "network_builder.fix_outputs", None),
        (cp.PlanExecutor, "__init__", "contraction_plan.executor_init", None),
        (cp.PlanExecutor, "run", "contraction_plan.run", None),
        (tc, "contract", None, contract_describe),
        (cp, "contract", None, contract_describe),
        (nb, "contract", None, contract_describe),
        (tc, "permute_fast", None, permute_describe),
        (tc, "planned", "tensor_core.planned", None),
        (tc.Tensor, "fix", "tensor_core.fix", None),
        (rq._kernels, "l_move", "kernels.l_move", None),
        (rq._kernels, "r_move", "kernels.r_move", None),
        (rq._kernels, "apply_1q", "kernels.apply_1q", None),
        (rq._kernels, "apply_diag", "kernels.apply_diag", None),
        (rq.oracle, "evolve", "oracle.evolve", None),
        (ae.AmplitudeEngine, "amplitude", "amplitude_engine.amplitude", None),
        (ae.AmplitudeEngine, "amplitude_batch",
         "amplitude_engine.amplitude_batch", None),
        (ae.AmplitudeEngine, "base_net", "amplitude_engine.base_net", None),
        (rq.sampler, "sample_circuit", "sampler.sample_circuit", None),
        (rq.sampler, "frugal_sample", "sampler.frugal_sample", None),
    ]


def summarize(tracer: Tracer, op_name: str = "op") -> dict:
    """Self and inclusive nanoseconds by span name, split into spans under
    an operation and spans outside any (set-up, sampler glue), plus a
    per-layer self-time table where kernel passes count with their permute."""
    own = tracer.self_times()
    root = tracer.roots_of(op_name)
    permute_of = [-1] * len(tracer.names)
    for i, (name, p) in enumerate(zip(tracer.names, tracer.parents)):
        if name.startswith("tensor_core.permute"):
            permute_of[i] = i
        elif p >= 0:
            permute_of[i] = permute_of[p]

    inside = defaultdict(lambda: [0, 0, 0])   # name -> [calls, self, incl]
    outside = defaultdict(lambda: [0, 0, 0])
    layers = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    op_ns = 0
    n_ops = 0
    negative = 0
    for i, name in enumerate(tracer.names):
        dur = tracer.ends[i] - tracer.starts[i]
        if own[i] < 0:
            negative += 1
        table = inside if root[i] >= 0 else outside
        row = table[name]
        row[0] += 1
        row[1] += own[i]
        row[2] += dur
        if root[i] >= 0:
            p = permute_of[i]     # kernel passes count with their permute
            layers[tracer.names[p] if p >= 0 else name] += own[i]
            if tracer.attrs[i]:
                for k, v in tracer.attrs[i].items():
                    attrs[name][k] += v
        if name == op_name:
            op_ns += dur
            n_ops += 1
    return {"inside": dict(inside), "outside": dict(outside),
            "layers": dict(layers), "attrs": {k: dict(v) for k, v in attrs.items()},
            "op_ns": op_ns, "n_ops": n_ops, "negative_self": negative}

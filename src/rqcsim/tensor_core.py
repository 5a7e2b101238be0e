"""Cache-aware tensor index permutation and pairwise contraction.

Transposing a large row-major tensor with numpy's strided copy touches
memory all over the place.  Here every permutation is decomposed into at
most three *moves* that keep memory traffic sequential:

* **L move** -- permutes only the leading indexes, leaving a trailing
  group of gamma indexes untouched.  Data moves as whole contiguous
  blocks of size prod(trailing dims), which should be at least 2**mu
  entries to amortize the random block placement.
* **R move** -- permutes only the trailing gamma indexes.  Data is
  reordered *within* each contiguous block, which should fit in fast
  cache: at most 2**nu entries.

Any permutation factors as L-R-L for reasonable (mu, nu); most factor
shorter.  The gather maps are exponentially smaller than the tensor
(2^(k-gamma) or 2^gamma entries instead of 2^k), so they are memoized.
On the numpy kernel backend each move is a full ``np.take`` pass, so
every plan that moves data, except a single R move, runs as one strided
``np.transpose`` copy instead (byte-identical, one pass).  Single R moves
keep the move kernel.

Pairwise contraction is transpose-transpose-GEMM, minus the copy of the
larger operand wherever its layout allows.  When the shared labels form one
contiguous block of the larger operand, that operand is read in place as a
stack of matrices (strided-batched GEMM): one (free, shared) matrix when
the block ends it, otherwise one (shared, suffix) matrix per entry of the
labels before the block.  Only the smaller operand is permuted.  A block
with labels before it and fewer than 2**mu entries after it -- the
smallest block an L move carries whole -- makes matrices too narrow to
beat one copy, so that layout, like scattered shared labels, is permuted
into a single matrix product.  The output label order follows the layout:
labels before the block, the other operand's free labels, then the rest.
Permuted operand copies land in reused scratch buffers instead of fresh
memory.  :func:`route` states the layout and :func:`workspace_slots` the
buffers a copy fills; plan pricing reads both.

The contraction itself works on bare arrays: :func:`contract_arrays`
takes the two operands and the :class:`Route` for their labels and
shapes, so a caller that stores its routes (a compiled plan) pays no label
handling per call.  An operand may be a non-contiguous view (a slice made
by basic indexing); a route that permutes it copies it straight from the
view in one strided pass.  :func:`contract` is the labelled wrapper:
it looks the route up and returns a :class:`Tensor`.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """One permutation pass over the flat tensor.

    ``group_perm`` permutes the affected index group in gather order
    (new position j holds what was at group position group_perm[j]).
    ``gamma`` counts trailing indexes: the untouched suffix for an L
    move, the reordered suffix for an R move.
    """

    kind: str
    group_perm: tuple[int, ...]
    gamma: int

    def __post_init__(self):
        if self.kind not in ("L", "R"):
            raise ValueError(f"move kind must be 'L' or 'R', got {self.kind!r}")


@dataclass(frozen=True)
class PermutePlan:
    dims: tuple[int, ...]
    perm: tuple[int, ...]
    moves: tuple[Move, ...]
    fallback: Optional[str] = None  # set when no valid move decomposition exists

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(self.dims[p] for p in self.perm)

    def move_summary(self) -> list[tuple[str, int]]:
        """[(kind, gamma), ...] -- e.g. [('L', 2), ('R', 4), ('L', 2)]."""
        return [(m.kind, m.gamma) for m in self.moves]


# log2 of the smallest contiguous run of entries worth handling as one
# unit: the block an L move carries whole, and the matrix width below which
# a batched product is slower than copying the operand once
BLOCK_MU = 5


def _is_identity(perm: Sequence[int]) -> bool:
    return all(p == i for i, p in enumerate(perm))


def plan_permutation(dims: Sequence[int], perm: Sequence[int],
                     mu: int = BLOCK_MU, nu: int = 10) -> PermutePlan:
    """Decompose a transpose into L/R moves (identity, single, L-R, or L-R-L).

    The trailing block untouched by each L move must hold at least 2**mu
    entries; the window reordered by each R move at most 2**nu.  If the
    permutation admits no such decomposition the plan degrades to a naive
    strided transpose and says so in ``fallback``.
    """
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{k - 1}")
    if mu < 0 or nu < mu:
        raise ValueError(f"need 0 <= mu <= nu, got mu={mu}, nu={nu}")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")

    min_block = 1 << mu
    max_window = 1 << nu

    def suffix_size(axes: Sequence[int], g: int) -> int:
        return math.prod(dims[a] for a in axes[len(axes) - g:]) if g else 1

    ident = tuple(range(k))
    if perm == ident:
        return PermutePlan(dims, perm, ())

    # fixed suffix -> single L move
    g_fix = 0
    while g_fix < k and perm[k - 1 - g_fix] == k - 1 - g_fix:
        g_fix += 1
    if g_fix >= 1 and suffix_size(ident, g_fix) >= min_block:
        mv = Move("L", perm[:k - g_fix], g_fix)
        return PermutePlan(dims, perm, (mv,))

    # fixed prefix -> single R move
    g_pre = 0
    while g_pre < k and perm[g_pre] == g_pre:
        g_pre += 1
    if suffix_size(ident, k - g_pre) <= max_window:
        mv = Move("R", tuple(p - g_pre for p in perm[g_pre:]), k - g_pre)
        return PermutePlan(dims, perm, (mv,))

    # prefix block maps to itself -> one L on the block, one R on the rest
    best_split = None
    running_max = -1
    for b in range(1, k):
        running_max = max(running_max, perm[b - 1])
        if running_max == b - 1:
            w = suffix_size(ident, k - b)
            if min_block <= w <= max_window:
                best_split = b  # keep the largest such b: smallest R window
    if best_split is not None:
        b = best_split
        moves = []
        if not _is_identity(perm[:b]):
            moves.append(Move("L", perm[:b], k - b))
        tail = tuple(p - b for p in perm[b:])
        if not _is_identity(tail):
            moves.append(Move("R", tail, k - b))
        return PermutePlan(dims, perm, tuple(moves))

    # general three-move template: L brings the strays next to the window,
    # R settles the final suffix, L fixes the prefix.
    plan = _plan_three_moves(dims, perm, mu, nu)
    if plan is not None:
        return plan

    return PermutePlan(dims, perm, (), fallback="naive")


def _plan_three_moves(dims, perm, mu, nu) -> Optional[PermutePlan]:
    k = len(dims)
    min_block = 1 << mu
    max_window = 1 << nu
    pos_in_perm = {axis: j for j, axis in enumerate(perm)}

    gamma_l = None
    for g in range(1, k):
        in_size = math.prod(dims[k - g:])
        out_size = math.prod(dims[p] for p in perm[k - g:])
        if in_size >= min_block and out_size >= min_block:
            gamma_l = g
            break
    if gamma_l is None:
        return None

    suffix = list(perm[k - gamma_l:])  # axes that must end up trailing, in order
    suffix_set = set(suffix)
    movers = [a for a in suffix if a < k - gamma_l]
    nonmovers = sorted((a for a in range(k - gamma_l) if a not in suffix_set),
                       key=pos_in_perm.get)
    arranged = nonmovers + movers
    layout1 = arranged + list(range(k - gamma_l, k))

    # widest window within the nu budget that still spans all of `suffix`
    gamma_r = None
    for g in range(k, gamma_l + len(movers) - 1, -1):
        if math.prod(dims[a] for a in layout1[k - g:]) <= max_window:
            gamma_r = g
            break
    if gamma_r is None or gamma_r < gamma_l + len(movers):
        return None

    moves = []
    if not _is_identity(arranged):
        moves.append(Move("L", tuple(arranged), gamma_l))

    window = layout1[k - gamma_r:]
    leftover = sorted((a for a in window if a not in suffix_set), key=pos_in_perm.get)
    new_window = leftover + suffix
    r_local = tuple(window.index(a) for a in new_window)
    if not _is_identity(r_local):
        moves.append(Move("R", r_local, gamma_r))
    layout2 = layout1[:k - gamma_r] + new_window

    first_target = list(perm[:k - gamma_l])
    cur_first = layout2[:k - gamma_l]
    l2_local = tuple(cur_first.index(a) for a in first_target)
    if not _is_identity(l2_local):
        moves.append(Move("L", l2_local, gamma_l))

    assert first_target + layout2[k - gamma_l:] == list(perm)
    return PermutePlan(dims, perm, tuple(moves))


# ---------------------------------------------------------------------------
# Move-map memoization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=512)
def _gather_map(group_dims: tuple[int, ...], group_perm: tuple[int, ...]) -> np.ndarray:
    """Flat gather map of one permuted index group.

    Maps cover only the permuted group, so they are tiny compared to the
    tensors they rearrange and get reused across every path of a
    contraction.
    """
    src = np.arange(math.prod(group_dims), dtype=np.int64).reshape(group_dims)
    return np.ascontiguousarray(np.transpose(src, group_perm)).ravel()


# plans are pure functions of (dims, perm, mu, nu); planning in python is
# too slow to redo inside per-path loops
_PLAN_CACHE: dict[tuple, PermutePlan] = {}


def planned(dims: Sequence[int], perm: Sequence[int], mu: int = BLOCK_MU,
            nu: int = 10) -> PermutePlan:
    key = (tuple(dims), tuple(perm), mu, nu)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = plan_permutation(dims, perm, mu, nu)
        if len(_PLAN_CACHE) > 8192:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
    return plan


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def permute_naive(array: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reference transpose: numpy strided copy into fresh row-major storage."""
    return np.ascontiguousarray(np.transpose(array, tuple(perm)))


class Workspace:
    """Reusable flat buffers, one per (slot, dtype), for move ping-pong.

    Each buffer grows to the largest size requested so far and only
    ``trim`` frees it, so a loop over same-shaped operands touches fresh
    memory only once.
    """

    def __init__(self):
        self._bufs: dict[tuple, np.ndarray] = {}

    def take(self, size: int, dtype, slot: int) -> np.ndarray:
        key = (slot, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            self._bufs.pop(key, None)  # free the old buffer before growing
            buf = self._bufs[key] = np.empty(size, dtype=dtype)
        return buf[:size]

    def trim(self, max_bytes: int) -> None:
        """Free buffers, largest first, until at most ``max_bytes`` stay held."""
        held = sum(buf.nbytes for buf in self._bufs.values())
        for key, buf in sorted(self._bufs.items(), key=lambda kv: -kv[1].nbytes):
            if held <= max_bytes:
                break
            del self._bufs[key]
            held -= buf.nbytes


def workspace_slots(plan: PermutePlan) -> int:
    """Operand-sized workspace buffers :func:`permute_fast` fills for
    ``plan``: none without data movement, one for a strided transpose, a
    single move or any plan on the numpy backend, two for moves that
    ping-pong on numba."""
    if not plan.moves:
        return int(plan.fallback is not None)
    return 1 if len(plan.moves) == 1 or _kernels.get_backend() == "numpy" else 2


def permute_fast(array: np.ndarray, plan: PermutePlan, thread_count: int = 1,
                 workspace: Optional[Workspace] = None) -> np.ndarray:
    """Apply a move plan; returns a row-major array with permuted indexes.

    With no data movement needed the input is returned as-is (copied
    only if it is a non-contiguous view).  A plan without a move
    decomposition, a non-contiguous input, and on the numpy backend every
    plan but a single R move, run as one strided transpose; on numba any
    number of moves ping-pongs between two buffers.  When a
    workspace is supplied the result aliases one of its buffers and is
    only valid until the next call that reuses it; otherwise it is a fresh
    array.
    """
    slots = workspace_slots(plan)
    if not slots:
        return np.ascontiguousarray(array).reshape(plan.dims)

    a = array.reshape(plan.dims)
    ws = workspace if workspace is not None else Workspace()
    if plan.fallback is not None or not a.flags.c_contiguous or (
            _kernels.get_backend() == "numpy" and
            (len(plan.moves) > 1 or plan.moves[0].kind == "L")):
        out = ws.take(a.size, a.dtype, 0).reshape(plan.out_dims)
        np.copyto(out, np.transpose(a, plan.perm))
        return out

    cur = a.reshape(-1)
    cur_dims = list(plan.dims)
    for i, mv in enumerate(plan.moves):
        k = len(cur_dims)
        dst = ws.take(cur.size, cur.dtype, i & 1)
        if mv.kind == "L":
            g = k - mv.gamma
            group_dims = tuple(cur_dims[:g])
            d_gamma = math.prod(cur_dims[g:])
            cur_dims[:g] = [group_dims[p] for p in mv.group_perm]
            row_map = _gather_map(group_dims, mv.group_perm)
            _kernels.l_move(cur, dst, row_map, d_gamma, thread_count)
        else:
            g = k - mv.gamma
            group_dims = tuple(cur_dims[g:])
            col_map = _gather_map(group_dims, mv.group_perm)
            d_gamma = math.prod(group_dims)
            _kernels.r_move(cur, dst, col_map, d_gamma, cur.size // d_gamma,
                            thread_count)
            cur_dims[g:] = [group_dims[p] for p in mv.group_perm]
        cur = dst
    out = cur.reshape(cur_dims)
    assert tuple(cur_dims) == plan.out_dims
    return out


# ---------------------------------------------------------------------------
# Labeled tensors and contraction
# ---------------------------------------------------------------------------


class Tensor:
    """A row-major ndarray with one string label per index."""

    __slots__ = ("labels", "array")

    def __init__(self, labels: Sequence[str], array: np.ndarray):
        labels = tuple(labels)
        if array.ndim != len(labels):
            raise ValueError(f"{array.ndim}-d array with {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {labels}")
        self.labels = labels
        self.array = array

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def dim_of(self, label: str) -> int:
        return self.array.shape[self.labels.index(label)]

    def fix(self, label: str, value: int) -> "Tensor":
        """Slice one index to a fixed value, dropping it."""
        axis = self.labels.index(label)
        sliced = np.take(self.array, value, axis=axis)
        if sliced.ndim:  # ascontiguousarray would promote 0-d to 1-d
            sliced = np.ascontiguousarray(sliced)
        return Tensor(self.labels[:axis] + self.labels[axis + 1:], sliced)

    def transpose_to(self, labels: Sequence[str]) -> "Tensor":
        labels = tuple(labels)
        if labels == self.labels:
            return self
        perm = tuple(self.labels.index(l) for l in labels)
        plan = planned(self.array.shape, perm)
        return Tensor(labels, permute_fast(self.array, plan))

    def scalar(self) -> complex:
        if self.labels:
            raise ValueError(f"tensor still has indexes {self.labels}")
        return complex(self.array[()])

    def __repr__(self):
        return f"Tensor({self.labels}, shape={self.array.shape}, dtype={self.array.dtype})"


# Scratch for the permuted operand copies inside ``contract``: one
# workspace per operand side, so the two operands of a call never share a
# buffer, and one pair per thread.  The copies die before ``contract``
# returns; the buffers stay, each as large as the largest copy it held,
# until ``trim_scratch`` frees them.
_SCRATCH = threading.local()


def _operand_scratch() -> tuple[Workspace, Workspace]:
    pair = getattr(_SCRATCH, "pair", None)
    if pair is None:
        pair = _SCRATCH.pair = (Workspace(), Workspace())
    return pair


def trim_scratch(max_bytes: tuple[int, int]) -> None:
    """Shrink this thread's operand scratch to at most ``max_bytes`` per
    side (left, right), so buffers a larger earlier contraction left behind
    do not outlive the plan that needed them."""
    for ws, limit in zip(_operand_scratch(), max_bytes):
        ws.trim(limit)


def contract_arrays(a: np.ndarray, b: np.ndarray, r: "Route",
                    thread_count: int = 1) -> np.ndarray:
    """Contract two bare arrays by a route :func:`route` worked out for
    their labels and shapes; the result is laid out as ``r.labels``.  Only
    permuted copies are made, into per-thread scratch buffers, one
    workspace per operand side."""
    left, right = (b, a) if r.swap else (a, b)
    ws_l, ws_r = _operand_scratch()
    arr_l = permute_fast(left, r.plan_l, thread_count, ws_l)
    arr_r = permute_fast(right, r.plan_r, thread_count, ws_r)
    ksz = arr_l.size // r.rows
    # one GEMM per prefix entry; a lone matrix skips numpy's batching
    rhs = arr_r.reshape(r.batch, ksz, -1) if r.batch > 1 else arr_r.reshape(ksz, -1)
    return (arr_l.reshape(r.rows, ksz) @ rhs).reshape(r.dims)


def contract(a: Tensor, b: Tensor, thread_count: int = 1) -> Tensor:
    """Contract two tensors over all shared labels: :func:`contract_arrays`
    by their :func:`route`."""
    r = route(a.labels, a.array.shape, b.labels, b.array.shape)
    return Tensor(r.labels, contract_arrays(a.array, b.array, r, thread_count))


class Route(NamedTuple):
    swap: bool                 # b is the left matrix
    plan_l: PermutePlan        # left operand to (free, shared)
    plan_r: PermutePlan        # right operand to (before-block, shared, free)
    rows: int                  # the left matrix's row count
    batch: int                 # stacked right matrices
    labels: tuple[str, ...]    # the output's labels
    dims: tuple[int, ...]      # and shape


@functools.lru_cache(maxsize=4096)
def route(a_labels: tuple[str, ...], a_dims: tuple[int, ...],
          b_labels: tuple[str, ...], b_dims: tuple[int, ...]) -> Route:
    """The layout :func:`contract_arrays` follows for operands of these
    labels and shapes, worked out once per pair of shapes.

    Where the shared labels sit in the larger operand decides it, and with
    it the output label order (free labels keep their operand's order):

    * a contiguous suffix: the larger operand is the left matrix
      (free, shared) as-is and the smaller one is permuted to
      (shared, free); output: the larger operand's free labels, then the
      smaller one's.
    * any other contiguous block that starts the operand or has at least
      ``2**BLOCK_MU`` entries after it: the larger operand is read in place
      as a stack of (shared, after-block) matrices, one per entry of the
      labels before the block, and the smaller one is permuted to
      (free, shared); output: before-block, the smaller operand's free
      labels, after-block.  Fewer entries after the block would make the
      matrices too narrow to beat one copy of the operand.
    * anything else: ``a`` is permuted to (free, shared) and ``b`` to
      (shared, free), the shared labels in ``a``'s order; output: a's free
      labels, then b's.
    """
    a_dim, b_dim = dict(zip(a_labels, a_dims)), dict(zip(b_labels, b_dims))
    for l, d in a_dim.items():
        if b_dim.get(l, d) != d:
            raise ValueError(f"dimension mismatch on {l!r}: {d} vs {b_dim[l]}")

    a_big = math.prod(a_dims) >= math.prod(b_dims)
    (big, big_dims), small = ((a_labels, a_dims), b_dim) if a_big else \
        ((b_labels, b_dims), a_dim)
    pos = [i for i, l in enumerate(big) if l in small]
    lo = pos[0] if pos else len(big)
    hi = lo + len(pos)
    block = pos == list(range(lo, hi))
    prefix: tuple[str, ...] = ()
    if block and hi == len(big):
        swap, shared = not a_big, big[lo:]
    elif block and (lo == 0 or math.prod(big_dims[hi:]) >= 1 << BLOCK_MU):
        swap, shared, prefix = a_big, big[lo:hi], big[:lo]
    else:
        swap, shared = False, tuple(l for l in a_labels if l in b_dim)
    (left, left_dims), (right, right_dims) = (
        ((b_labels, b_dims), (a_labels, a_dims)) if swap else
        ((a_labels, a_dims), (b_labels, b_dims)))
    left_free = tuple(l for l in left if l not in shared)
    right_free = tuple(l for l in right[len(prefix):] if l not in shared)

    perm_l = tuple(left.index(l) for l in left_free + shared)
    perm_r = tuple(right.index(l) for l in prefix + shared + right_free)
    dim = {**a_dim, **b_dim}
    return Route(swap, planned(left_dims, perm_l), planned(right_dims, perm_r),
                 math.prod(dim[l] for l in left_free),
                 math.prod(dim[l] for l in prefix),
                 prefix + left_free + right_free,
                 tuple(dim[l] for l in prefix + left_free + right_free))


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


def _time_ns(fn, repeats: int) -> tuple[float, float, float]:
    fn()  # warm caches / JIT before sampling
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    arr = np.array(samples, dtype=np.float64)
    return (float(np.median(arr)), float(np.percentile(arr, 10)),
            float(np.percentile(arr, 90)))


def _random_perm(rng, k: int, fix_prefix: int = 0, fix_suffix: int = 0) -> tuple[int, ...]:
    """Random non-identity permutation fixing the given prefix/suffix."""
    body = list(range(fix_prefix, k - fix_suffix))
    while True:
        mixed = [int(v) for v in rng.permutation(body)]
        if mixed != body:
            return tuple(range(fix_prefix)) + tuple(mixed) + tuple(range(k - fix_suffix, k))


def benchmark_permute(rank: int = 20,
                      gammas: Iterable[int] = range(5, 11),
                      thread_counts: Iterable[int] = (1,),
                      repeats: int = 7,
                      dtype=np.complex64,
                      compare_backends: bool = False,
                      seed: int = 0) -> list[dict]:
    """Time single L/R moves against a naive arbitrary-permutation reordering.

    Per gamma, three reorderings of a rank-``rank`` binary tensor are timed:
    an arbitrary L move (random permutation of the leading indexes, trailing
    gamma fixed), an arbitrary R move (random permutation of the trailing
    gamma), and a naive strided transpose of an arbitrary permutation of all
    indexes -- the baseline each move pass replaces.  Returns rows with keys
    (op, rank, gamma, threads, median_ns, p10_ns, p90_ns).  With
    ``compare_backends`` both kernel backends are timed and the op name
    carries a ``/numba`` or ``/numpy`` suffix.  Each gamma must leave at
    least two indexes on each side (2 <= gamma <= rank - 2), so both moves
    have indexes to permute.
    """
    gammas, thread_counts = tuple(gammas), tuple(thread_counts)
    if any(not 2 <= g <= rank - 2 for g in gammas):
        raise ValueError(f"gammas must lie in [2, rank - 2], got {gammas} "
                         f"for rank {rank}")
    if repeats < 1 or any(t < 1 for t in thread_counts):
        raise ValueError("repeats and thread counts must be >= 1")
    dims = (2,) * rank
    rng = np.random.Generator(np.random.PCG64(seed))
    x = (rng.standard_normal(1 << rank) + 1j * rng.standard_normal(1 << rank))
    x = x.astype(dtype).reshape(dims)

    backends = [_kernels.get_backend()]
    if compare_backends:
        backends = [b for b in ("numba", "numpy")
                    if (b == "numba" and _kernels._HAVE_NUMBA) or b == "numpy"]

    rows = []
    ws = Workspace()
    for gamma in gammas:
        perm_l = _random_perm(rng, rank, fix_suffix=gamma)
        perm_r = _random_perm(rng, rank, fix_prefix=rank - gamma)
        for name, perm in (("lmove", perm_l), ("rmove", perm_r)):
            plan = plan_permutation(dims, perm, mu=min(5, gamma), nu=max(10, gamma))
            kinds = [m.kind for m in plan.moves]
            assert kinds == (["L"] if name == "lmove" else ["R"]), (name, plan.move_summary())
            for threads in thread_counts:
                for backend in backends:
                    prev = _kernels.set_backend(backend)
                    try:
                        med, p10, p90 = _time_ns(
                            lambda: permute_fast(x, plan, threads, workspace=ws),
                            repeats)
                    finally:
                        _kernels.set_backend(prev)
                    op = f"{name}/{backend}" if compare_backends else name
                    rows.append({"op": op, "rank": rank, "gamma": gamma,
                                 "threads": threads, "median_ns": med,
                                 "p10_ns": p10, "p90_ns": p90})
        # one full arbitrary permutation per gamma: the green baseline line
        perm_full = _random_perm(rng, rank)
        med, p10, p90 = _time_ns(lambda: permute_naive(x, perm_full), repeats)
        rows.append({"op": "naive", "rank": rank, "gamma": gamma, "threads": 1,
                     "median_ns": med, "p10_ns": p10, "p90_ns": p90})
    return rows


def benchmark_csv(rows: list[dict]) -> str:
    header = ["op", "rank", "gamma", "threads", "median_ns", "p10_ns", "p90_ns"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    return "\n".join(lines) + "\n"

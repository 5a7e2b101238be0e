"""Index-permutation planning and the labeled-tensor contraction layer."""

from __future__ import annotations

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from rqcsim import _kernels, tensor_core
from rqcsim.tensor_core import (
    Tensor,
    Workspace,
    benchmark_csv,
    benchmark_permute,
    contract,
    contract_arrays,
    permute_fast,
    permute_naive,
    plan_permutation,
    planned,
    route,
)


def random_case(rng, max_rank=8, max_entries=1 << 16):
    rank = int(rng.integers(1, max_rank + 1))
    while True:
        dims = [int(rng.integers(1, 5)) for _ in range(rank)]
        if np.prod(dims) <= max_entries:
            break
    perm = list(rng.permutation(rank))
    return dims, perm


class TestPlan:
    def test_worked_example_structure(self):
        """Rank-7 equal dims, target cfeadgb, window (mu, nu) = (2, 4):
        the plan is a left move at gamma=2, a right move at gamma=4, and a
        final left move at gamma=2."""
        perm = [2, 5, 4, 0, 3, 6, 1]  # abcdefg -> cfeadgb
        plan = plan_permutation([2] * 7, perm, mu=2, nu=4)
        assert plan.move_summary() == [("L", 2), ("R", 4), ("L", 2)]
        assert plan.fallback is None

    def test_worked_example_executes_correctly(self):
        perm = [2, 5, 4, 0, 3, 6, 1]
        plan = plan_permutation([2] * 7, perm, mu=2, nu=4)
        arr = np.arange(2**7, dtype=np.complex64).reshape([2] * 7)
        out = permute_fast(arr, plan)
        assert np.array_equal(out, permute_naive(arr, perm))

    def test_identity_needs_no_moves(self):
        plan = plan_permutation([2, 2, 2], [0, 1, 2])
        assert plan.move_summary() == []

    def test_pure_left_and_right_moves(self):
        # trailing indices untouched -> single left move
        left = plan_permutation([2] * 10, [1, 0, 2, 3, 4, 5, 6, 7, 8, 9], mu=5, nu=8)
        assert [m.kind for m in left.moves] == ["L"]
        # leading indices untouched -> single right move
        right = plan_permutation([2] * 10, [0, 1, 2, 3, 4, 5, 6, 7, 9, 8], mu=5, nu=8)
        assert [m.kind for m in right.moves] == ["R"]

    def test_out_dims_follow_permutation(self):
        dims, perm = [2, 3, 4, 5], [3, 1, 0, 2]
        plan = plan_permutation(dims, perm)
        assert list(plan.out_dims) == [dims[p] for p in perm]


class TestPermuteEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_randomized_byte_exact(self, threads):
        rng = np.random.default_rng(91)
        for _ in range(40):
            dims, perm = random_case(rng)
            arr = (
                rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            ).astype(np.complex64)
            plan = plan_permutation(dims, perm)
            fast = permute_fast(arr, plan, thread_count=threads)
            naive = permute_naive(arr, perm)
            assert fast.tobytes() == naive.tobytes()

    def test_complex128_also_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dims, perm = random_case(rng)
            arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            plan = plan_permutation(dims, perm)
            assert permute_fast(arr, plan).tobytes() == permute_naive(
                arr, perm
            ).tobytes()

    def test_numpy_backend_matches(self):
        prev = _kernels.get_backend()
        try:
            rng = np.random.default_rng(23)
            dims, perm = [2] * 12, list(rng.permutation(12))
            arr = (
                rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            ).astype(np.complex64)
            plan = plan_permutation(dims, perm)
            _kernels.set_backend("numpy")
            via_numpy = permute_fast(arr, plan)
            if _kernels.set_backend(prev) == "numba":
                via_numba = permute_fast(arr, plan)
                assert via_numpy.tobytes() == via_numba.tobytes()
            assert via_numpy.tobytes() == permute_naive(arr, perm).tobytes()
        finally:
            _kernels.set_backend(prev)

    def test_fallback_copies_into_workspace(self):
        """A plan with no move decomposition still lands in the workspace,
        so contract's scratch holds every permuted operand copy."""
        perm = (0, 1, 4, 5, 2, 3)
        plan = plan_permutation([2] * 6, perm, mu=2, nu=3)
        assert plan.fallback is not None
        arr = np.random.default_rng(2).standard_normal([2] * 6)
        ws = tensor_core.Workspace()
        out = permute_fast(arr, plan, workspace=ws)
        assert out.tobytes() == permute_naive(arr, perm).tobytes()
        assert np.shares_memory(out, ws.take(arr.size, arr.dtype, 0))

    @pytest.mark.parametrize("dims,perm,mu,nu", [
        ([2] * 6, [0, 1, 2, 3, 4, 5], 2, 3),                     # identity
        ([2] * 6, [0, 1, 4, 5, 2, 3], 2, 3),                     # fallback
        ([2] * 8, [1, 0, 2, 3, 4, 5, 6, 7], 2, 4),               # one L move
        ([2] * 12, [1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10], 2, 4),  # L-R
        ([2] * 7, [2, 5, 4, 0, 3, 6, 1], 2, 4),                  # L-R-L
    ])
    def test_workspace_slots_are_the_buffers_filled(self, dims, perm, mu, nu,
                                                     kernel_backend):
        """``workspace_slots``, from which plan pricing takes contract's
        scratch, counts exactly the buffers ``permute_fast`` fills, and on
        numba a plan of three moves still ping-pongs in two."""
        plan = plan_permutation(dims, perm, mu=mu, nu=nu)
        ws = tensor_core.Workspace()
        arr = np.arange(math.prod(dims), dtype=np.complex64).reshape(dims)
        out = permute_fast(arr, plan, workspace=ws)
        assert out.tobytes() == permute_naive(arr, perm).tobytes()
        assert len(ws._bufs) == tensor_core.workspace_slots(plan)

    def test_naive_matches_numpy_transpose(self):
        rng = np.random.default_rng(5)
        dims, perm = random_case(rng)
        arr = rng.standard_normal(dims)
        assert np.array_equal(
            permute_naive(arr, perm), np.ascontiguousarray(arr.transpose(perm))
        )


class TestNumpyRoute:
    """On the numpy backend every plan that moves data, except a single R
    move, is one strided transpose."""

    @pytest.fixture()
    def numpy_backend(self):
        prev = _kernels.set_backend("numpy")
        yield
        _kernels.set_backend(prev)

    @pytest.mark.parametrize("dims,perm,mu,nu", [
        ([2] * 7, [2, 5, 4, 0, 3, 6, 1], 2, 4),       # L-R-L
        ([2] * 12, [1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10], 2, 4),  # L-R
        ([4] * 8, [0, 3, 2, 1, 7, 4, 5, 6], 5, 10),
    ])
    def test_multi_move_is_one_transpose(self, numpy_backend, monkeypatch,
                                         dims, perm, mu, nu):
        def refuse(*args, **kwargs):
            raise AssertionError("move kernel called for a multi-move plan")

        monkeypatch.setattr(_kernels, "l_move", refuse)
        monkeypatch.setattr(_kernels, "r_move", refuse)
        plan = plan_permutation(dims, perm, mu=mu, nu=nu)
        assert len(plan.moves) >= 2 and plan.fallback is None
        rng = np.random.default_rng(8)
        for dtype in (np.complex64, np.complex128):
            arr = (rng.standard_normal(dims)
                   + 1j * rng.standard_normal(dims)).astype(dtype)
            want = permute_naive(arr, perm).tobytes()
            assert permute_fast(arr, plan).tobytes() == want
            ws = tensor_core.Workspace()
            assert permute_fast(arr, plan, workspace=ws).tobytes() == want

    def test_single_moves(self, numpy_backend, monkeypatch):
        """A single L move is one strided transpose too; a single R move
        keeps the move kernel."""
        calls = []
        monkeypatch.setattr(_kernels, "l_move",
                            lambda *a, **k: calls.append("L"))
        r_move = _kernels.r_move
        monkeypatch.setattr(_kernels, "r_move", lambda *a, **k: (
            calls.append("R"), r_move(*a, **k)))
        rng = np.random.default_rng(9)
        arr = (rng.standard_normal([2] * 10)
               + 1j * rng.standard_normal([2] * 10)).astype(np.complex64)
        for perm, kind in (([3, 0, 4, 1, 2, 5, 6, 7, 8, 9], "L"),
                           ([0, 1, 2, 3, 4, 5, 9, 7, 6, 8], "R")):
            plan = plan_permutation(arr.shape, perm)
            assert plan.move_summary()[0][0] == kind and len(plan.moves) == 1
            want = permute_naive(arr, perm).tobytes()
            ws = tensor_core.Workspace()
            assert permute_fast(arr, plan, workspace=ws).tobytes() == want
        assert calls == ["R"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_permute_property(data):
    rank = data.draw(st.integers(1, 7))
    dims = data.draw(
        st.lists(st.integers(1, 4), min_size=rank, max_size=rank)
    )
    perm = data.draw(st.permutations(range(rank)))
    rng = np.random.default_rng(0)
    arr = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)).astype(
        np.complex64
    )
    plan = plan_permutation(dims, list(perm))
    assert permute_fast(arr, plan).tobytes() == permute_naive(arr, perm).tobytes()


class TestTensor:
    def test_labels_track_dims(self):
        arr = np.zeros((2, 3, 4))
        t = Tensor(("a", "b", "c"), arr)
        assert t.dims == (2, 3, 4)
        assert t.dim_of("b") == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Tensor(("a", "a"), np.zeros((2, 2)))

    def test_transpose_to(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4))
        t = Tensor(("a", "b", "c"), arr).transpose_to(("c", "a", "b"))
        assert t.labels == ("c", "a", "b")
        assert np.array_equal(t.array, arr.transpose(2, 0, 1))

    def test_fix_selects_slice(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((2, 3))
        t = Tensor(("a", "b"), arr).fix("a", 1)
        assert t.labels == ("b",)
        assert np.array_equal(t.array, arr[1])

    def test_fix_to_scalar(self):
        t = Tensor(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = t.fix("a", 0).fix("b", 1)
        assert s.labels == ()
        assert s.scalar() == 2.0


class TestContract:
    def test_matches_einsum_on_shared_labels(self):
        rng = np.random.default_rng(3)
        a = Tensor(
            ("i", "j", "k"),
            (rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
             ).astype(np.complex64),
        )
        b = Tensor(
            ("j", "k", "m"),
            (rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))
             ).astype(np.complex64),
        )
        out = contract(a, b)
        ref = np.einsum("ijk,jkm->im", a.array, b.array)
        assert set(out.labels) == {"i", "m"}
        got = out.transpose_to(("i", "m")).array
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_outer_product_when_no_shared_labels(self):
        a = Tensor(("x",), np.array([1.0, 2.0], dtype=np.complex64))
        b = Tensor(("y",), np.array([3.0, 5.0], dtype=np.complex64))
        out = contract(a, b).transpose_to(("x", "y"))
        assert np.allclose(out.array, np.array([[3, 5], [6, 10]]))

    def test_full_contraction_to_scalar(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(8).astype(np.complex64)
        w = rng.standard_normal(8).astype(np.complex64)
        a, b = Tensor(("x",), v), Tensor(("x",), w)
        assert np.isclose(contract(a, b).scalar(), np.dot(v, w), rtol=1e-5)

    # big: free p, q, r (4*3*11) and shared j, k (2*3); for each layout of
    # big, its labels and the output labels when big is read in place
    LAYOUTS = {
        "prefix": ("jkpqr", "stpqr"),
        "suffix": ("pqrjk", "pqrst"),
        "middle": ("pjkqr", "pstqr"),      # 33 entries after the block
        "middle-short": ("pqjkr", None),   # 11 entries after it: copied
    }

    @pytest.mark.parametrize("dtype,rtol", [(np.complex64, 1e-5),
                                            (np.complex128, 1e-12)])
    @pytest.mark.parametrize("end", list(LAYOUTS))
    @pytest.mark.parametrize("big_first", [True, False])
    def test_shared_at_an_end_of_larger_operand(self, monkeypatch, dtype,
                                                rtol, end, big_first):
        rng = np.random.default_rng(12)

        def rand(shape):
            return (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape)).astype(dtype)

        big_labels, in_place_labels = self.LAYOUTS[end]
        dim = {"j": 2, "k": 3, "p": 4, "q": 3, "r": 11, "s": 2, "t": 3}
        big = Tensor(tuple(big_labels), rand([dim[l] for l in big_labels]))
        # small: shared in the other order, free labels around them
        small_labels = ("s", "k", "t", "j")
        small = Tensor(small_labels, rand([dim[l] for l in small_labels]))
        seen = []
        fast = tensor_core.permute_fast

        def record(array, plan, *args, **kwargs):
            seen.append((plan.dims, plan.moves, plan.fallback))
            return fast(array, plan, *args, **kwargs)

        monkeypatch.setattr(tensor_core, "permute_fast", record)
        a, b = (big, small) if big_first else (small, big)
        out = contract(a, b)
        assert sorted(out.labels) == ["p", "q", "r", "s", "t"]
        big_calls = [c for c in seen if c[0] == big.dims]
        if in_place_labels is None:
            assert len(big_calls) == 1 and big_calls[0] != (big.dims, (), None)
        else:
            assert big_calls == [(big.dims, (), None)]  # read in place
            assert out.labels == tuple(in_place_labels)
        ref = np.einsum(
            f"{''.join(a.labels)},{''.join(b.labels)}->{''.join(out.labels)}",
            a.array, b.array)
        assert out.array.dtype == dtype
        assert np.allclose(out.array, ref, rtol=rtol, atol=rtol)

    def test_results_do_not_alias_scratch(self):
        """Contract writes permuted operands into reused buffers; nothing it
        or permute_fast or transpose_to returns may point into them."""
        rng = np.random.default_rng(6)

        def rand(shape):
            return (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape)).astype(np.complex64)

        a = Tensor(("i", "j", "k", "l"), rand((4, 3, 2, 5)))
        b = Tensor(("l", "m", "j", "n"), rand((5, 2, 3, 2)))
        perm = (2, 0, 3, 1)
        c = Tensor(("k", "l"), rand((2, 5)))
        kept = [
            contract(a, b).array,
            contract(c, a).array,  # shared labels are a's suffix
            permute_fast(a.array, planned(a.dims, perm)),
            permute_fast(a.array, plan_permutation(a.dims, perm, mu=1, nu=2)),
            a.transpose_to(("k", "i", "l", "j")).array,
        ]
        # both operands moved, each into its own buffer
        ab = contract(a, b)
        ref = np.einsum(f"ijkl,lmjn->{''.join(ab.labels)}", a.array, b.array)
        assert np.allclose(ab.array, ref, rtol=1e-5, atol=1e-5)
        copies = [x.copy() for x in kept]
        for _ in range(3):
            contract(Tensor(a.labels, rand(a.dims)),
                     Tensor(b.labels, rand(b.dims)))
            contract(Tensor(b.labels, rand(b.dims)),
                     Tensor(a.labels, rand(a.dims)))
            contract(Tensor(c.labels, rand(c.dims)),
                     Tensor(a.labels, rand(a.dims)))
        for x, saved in zip(kept, copies):
            assert x.tobytes() == saved.tobytes()

    def test_threads_keep_their_own_scratch(self):
        rng = np.random.default_rng(9)
        cases = []
        for _ in range(4):
            a = rng.standard_normal((8, 6, 4, 6)) + 0j
            b = rng.standard_normal((6, 5, 6, 4)) + 0j
            cases.append((Tensor(("i", "j", "k", "l"), a),
                          Tensor(("l", "m", "j", "n"), b),
                          np.einsum("ijkl,lmjn->ikmn", a, b)))
        bad = []

        def work(a, b, ref):
            for _ in range(200):
                out = contract(a, b).transpose_to(("i", "k", "m", "n"))
                if not np.allclose(out.array, ref, rtol=1e-12, atol=1e-12):
                    bad.append(1)

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=c) for c in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert not bad

    def test_mismatched_shared_dims_rejected(self):
        a = Tensor(("i", "j"), np.zeros((2, 3)))
        b = Tensor(("j", "k"), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            contract(a, b)


@pytest.mark.parametrize("layout", ["scattered", "prefix", "suffix", "middle",
                                    "middle-short"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contract_property(layout, data):
    """Random operands of rank <= 6 against ``np.einsum``, in both argument
    orders and precisions.  The larger operand holds its shared labels as
    ``layout`` says ("middle": at least 32 entries after the block,
    "middle-short": fewer), the smaller one anywhere; the larger operand
    must be copied exactly when that layout needs it."""
    # fewest free labels the larger operand has before and after the block
    least = {"scattered": (0, 0), "prefix": (0, 1), "suffix": (1, 0),
             "middle": (1, 3), "middle-short": (1, 1)}[layout]
    n_shared = data.draw(st.integers(layout != "scattered",
                                     min(3, 6 - sum(least))))
    lo = 0 if n_shared else 1  # every operand keeps at least one label
    n_pre = 0 if layout == "prefix" else data.draw(
        st.integers(least[0], 6 - n_shared - least[1]))
    n_post = 0 if layout == "suffix" else data.draw(
        st.integers(max(least[1], lo - n_pre), 6 - n_shared - n_pre))
    names = iter("abcdefghijklmnopqr")
    shared = [next(names) for _ in range(n_shared)]
    pre = [next(names) for _ in range(n_pre)]
    post = [next(names) for _ in range(n_post)]
    y_free = [next(names) for _ in range(
        data.draw(st.integers(lo, min(6 - n_shared, 7 - n_pre - n_post))))]
    # hypothesis leans towards the first choice: big runs after a middle block
    sizes = (4, 3, 2) if layout == "middle" else (2, 3, 4)
    dim = {l: data.draw(st.sampled_from(sizes))
           for l in shared + pre + post + y_free}
    x_labels = pre + data.draw(st.permutations(shared)) + post
    if layout == "scattered":
        x_labels = data.draw(st.permutations(x_labels))
    y_labels = data.draw(st.permutations(shared + y_free))
    dtype = data.draw(st.sampled_from((np.complex64, np.complex128)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))

    def rand(labels):
        shape = [dim[l] for l in labels]
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)).astype(dtype)

    x, y = Tensor(x_labels, rand(x_labels)), Tensor(y_labels, rand(y_labels))
    assume(x.size > y.size)
    a, b = (x, y) if data.draw(st.booleans()) else (y, x)
    pos = sorted(x_labels.index(l) for l in shared)
    after = math.prod(x.dims[pos[-1] + 1:]) if pos else 1
    in_place = not pos or (pos == list(range(pos[0], pos[-1] + 1))
                           and (pos[0] == 0 or after == 1 or after >= 32))
    event("copied" if not in_place else
          "batched" if pos and pos[0] > 0 and after > 1 else "one matrix")
    moved = []
    fast = tensor_core.permute_fast

    def record(array, plan, *args, **kwargs):
        if array is x.array:
            moved.append(bool(plan.moves) or plan.fallback is not None)
        return fast(array, plan, *args, **kwargs)

    order = tuple(l for l in a.labels + b.labels if l not in shared)
    with mock.patch.object(tensor_core, "permute_fast", record):
        got = contract(a, b).transpose_to(order).array
    assert moved == [not in_place]
    ref = np.einsum(f"{''.join(a.labels)},{''.join(b.labels)}->{''.join(order)}",
                    a.array, b.array)
    rtol = 1e-4 if dtype == np.complex64 else 1e-12
    assert got.dtype == dtype
    np.testing.assert_allclose(got, ref, rtol=rtol,
                               atol=rtol * max(1.0, float(np.abs(ref).max())))


class TestBenchmark:
    def test_row_schema_and_ops(self):
        rows = benchmark_permute(rank=12, gammas=(5, 6), repeats=3)
        assert {r["op"] for r in rows} == {"lmove", "rmove", "naive"}
        for r in rows:
            assert r["rank"] == 12
            assert r["gamma"] in (5, 6)
            assert r["median_ns"] > 0
            assert r["p10_ns"] <= r["median_ns"] <= r["p90_ns"]

    def test_csv_has_header_and_rows(self):
        rows = benchmark_permute(rank=10, gammas=(5,), repeats=2)
        text = benchmark_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("op,")
        assert len(lines) == len(rows) + 1

    def test_compare_backends_adds_suffixed_ops(self):
        rows = benchmark_permute(
            rank=10, gammas=(5,), repeats=2, compare_backends=True
        )
        ops = {r["op"] for r in rows}
        assert any(op.endswith("/numpy") for op in ops)

    def test_gammas_at_the_bounds(self):
        """gamma 2 and rank - 2 leave two indexes to permute on each side."""
        rows = benchmark_permute(rank=4, gammas=(2,), repeats=1)
        assert {r["op"] for r in rows} == {"lmove", "rmove", "naive"}

    @pytest.mark.parametrize("kwargs", [
        {"rank": 6, "gammas": (5,)}, {"rank": 20, "gammas": (1,)},
        {"rank": 0, "gammas": (5,)}, {"rank": 10, "gammas": (5,), "repeats": 0},
        {"rank": 10, "gammas": (5,), "thread_counts": (1, 0)},
    ])
    def test_out_of_range_arguments_raise(self, kwargs):
        with pytest.raises(ValueError):
            benchmark_permute(**kwargs)


class TestViewOperands:
    """``permute_fast`` and ``contract_arrays`` take non-contiguous views,
    copied straight from the view by whatever the plan does."""

    @pytest.mark.parametrize("perm", [(0, 1, 2, 3), (1, 0, 2, 3),
                                      (0, 1, 3, 2), (3, 1, 0, 2)])
    def test_view_permutes_like_its_copy(self, perm, kernel_backend):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 3, 8, 4, 8)).astype(np.complex64)
        view = base[:, 1]  # drops a middle axis: not contiguous
        assert not view.flags.c_contiguous
        plan = planned(view.shape, perm, mu=2, nu=5)
        got = permute_fast(view, plan, workspace=Workspace())
        assert got.flags.c_contiguous
        assert np.array_equal(got, permute_naive(view, perm))

    def test_contract_arrays_follows_the_route(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4, 5)).astype(np.complex128)
        b = rng.standard_normal((5, 2, 6, 4)).astype(np.complex128)[:, 1]
        assert not b.flags.c_contiguous
        r = route(("i", "j", "k"), a.shape, ("k", "m", "j"), b.shape)
        got = contract_arrays(a, b, r)
        want = contract(Tensor(("i", "j", "k"), a),
                        Tensor(("k", "m", "j"), np.ascontiguousarray(b)))
        assert got.shape == r.dims and want.labels == r.labels
        assert np.array_equal(got, want.array)

"""Cut enumeration, plan parsing, path sums, and the cost model."""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcsim import _kernels, cli, contraction_plan, oracle, tensor_core
from rqcsim.circuits import BRISTLECONE_SIZES, Lattice, generate_rqc
from rqcsim.contraction_plan import (
    ContractionPlan,
    ContractStep,
    CostEstimate,
    CutSpec,
    MemoryBudgetError,
    PlanError,
    PlanExecutor,
    builtin_plan,
    enumerate_paths,
    estimate_cost,
    execute_plan,
    format_plan,
    grid_plan,
    load_plan,
    parse_plan,
    two_region_plan,
)
from rqcsim.network_builder import (build_3d, contract_grid, contract_time,
                                    out_label, site_shapes)
from rqcsim.tensor_core import Tensor

from conftest import placement


def closed_net(circ, in_bits=0, out_bits=0):
    return contract_time(
        build_3d(circ, in_bits, out_bits, dtype=np.complex128)
    )


def path_sum(net, plan) -> complex:
    """Sum over every path, each through a fresh executor (no cache hits)."""
    dims = plan.cut_dims(net.bond_dim)
    return sum(
        execute_plan(net, plan, path).scalar()
        for path in enumerate_paths(dims)
    )


class TestEnumeratePaths:
    def test_full_enumeration_is_cartesian(self):
        paths = enumerate_paths((2, 3))
        assert len(paths) == 6
        assert paths == [(i, j) for i in range(2) for j in range(3)]

    def test_fraction_keeps_ceil_of_total(self):
        for f, total, expect in [(0.5, 16, 8), (0.3, 10, 3), (0.05, 16, 1)]:
            paths = enumerate_paths((4, total // 4) if total == 16 else (total,), f=f)
            assert len(paths) == expect == math.ceil(f * total)

    def test_fraction_subset_of_full(self):
        full = set(enumerate_paths((4, 4)))
        sub = enumerate_paths((4, 4), f=0.25, seed=7)
        assert set(sub) <= full
        assert len(sub) == 4

    def test_subset_choice_is_seeded(self):
        a = enumerate_paths((4, 4), f=0.5, seed=1)
        b = enumerate_paths((4, 4), f=0.5, seed=1)
        c = enumerate_paths((4, 4), f=0.5, seed=2)
        assert a == b
        assert a != c

    def test_count_overrides_fraction(self):
        assert len(enumerate_paths((4, 4), count=5)) == 5

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            enumerate_paths((4,), f=0.0)
        with pytest.raises(ValueError):
            enumerate_paths((4,), f=1.5)


class TestPlanText:
    def test_round_trip(self, grid_4x4):
        plan = grid_plan(grid_4x4, n_cuts=2)
        back = parse_plan(format_plan(plan))
        assert back == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(PlanError):
            parse_plan("not a plan\n")
        with pytest.raises(PlanError):
            parse_plan("plan grid:2x2\ncontract -> X\n")

    def test_duplicate_bond_in_cut(self):
        with pytest.raises(PlanError):
            CutSpec("w0", ((0, 1), (1, 0)))

    def test_cut_needs_bonds_and_distinct_values(self):
        """A repeated value would sum its paths twice, and a cut without
        bonds slices nothing."""
        with pytest.raises(PlanError, match="value twice"):
            CutSpec("w0", ((0, 1),), values=(0, 1, 0, 1))
        with pytest.raises(PlanError, match="no bond"):
            CutSpec("w0", ())
        with pytest.raises(PlanError, match="line 2"):
            parse_plan("plan grid:2x2\ncut w0 values=0,1\n")

    def test_load_plan_from_path(self, tmp_path, grid_4x4):
        plan = grid_plan(grid_4x4)
        p = tmp_path / "a.plan"
        p.write_text(format_plan(plan))
        assert load_plan(p) == plan

    def test_builtin_plans_exist_for_shipped_lattices(self):
        for kind in ("grid:4x4", "grid:4x5", "bristlecone-24"):
            plan = builtin_plan(Lattice.named(kind))
            assert plan.lattice_kind == kind
            assert plan.batch_sites


class TestPathSum:
    @pytest.mark.parametrize("n_cuts", [1, 2, 3])
    def test_cut_sums_match_uncut_value(self, n_cuts):
        lat = Lattice.rectangle(3, 4)
        circ = generate_rqc(lat, "1+12+1", seed=8)
        net = closed_net(circ)
        uncut = contract_grid(net).scalar()
        plan = grid_plan(lat, n_cuts=n_cuts)
        assert plan.num_cuts == n_cuts
        assert abs(path_sum(net, plan) - uncut) < 1e-10

    def test_matches_reference_amplitude(self, circuit_4x4_t16, state_4x4_t16):
        net = closed_net(circuit_4x4_t16, out_bits=37)
        plan = grid_plan(circuit_4x4_t16.lattice)
        assert abs(path_sum(net, plan) - state_4x4_t16[37]) < 1e-10

    def test_reuse_cache_changes_nothing(self, circuit_4x4_t16):
        """One executor over every path (cache hits) sums to what a fresh
        executor per path gives."""
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=2)
        ex = PlanExecutor(net, plan)
        with_cache = sum(ex.run(p).scalar() for p in enumerate_paths(ex.cut_dims))
        assert abs(with_cache - path_sum(net, plan)) < 1e-12

    def test_restricted_cut_values_select_paths(self, circuit_4x4_t16):
        """Pinning one cut to a subset of its values must equal the sum of
        just those paths of the unrestricted plan."""
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=1)
        full_dims = plan.cut_dims(net.bond_dim)
        keep = (0, 2)
        cut = plan.cuts[0]
        pinned = ContractionPlan(
            plan.lattice_kind,
            (CutSpec(cut.name, cut.bonds, values=keep),),
            plan.program,
            plan.batch_sites,
        )
        got = path_sum(net, pinned)
        want = sum(
            execute_plan(net, plan, (v,)).scalar() for v in keep
        )
        assert abs(got - want) < 1e-12
        assert pinned.cut_dims(net.bond_dim) == (2,)
        assert full_dims[0] > 2


    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(2, 4), cols=st.integers(2, 5), t=st.integers(4, 16),
           data=st.data(), c_early=st.booleans(), double=st.booleans())
    def test_every_placement_sums_to_uncut_value(self, rows, cols, t, data,
                                                 c_early, double):
        """Either placement of C, at any cut count, sums its paths to the
        uncut contraction and to the dense reference."""
        lat = Lattice.rectangle(rows, cols)
        n_cuts = data.draw(st.integers(0, min(rows, cols)), label="n_cuts")
        out = data.draw(st.integers(0, 2 ** lat.n - 1), label="out")
        circ = generate_rqc(lat, f"1+{t}+1", seed=t)
        dtype = np.complex128 if double else np.complex64
        net = contract_time(build_3d(circ, 0, out, dtype=dtype))
        plan = grid_plan(lat, n_cuts, c_early=c_early)
        ex = PlanExecutor(net, plan)
        got = sum(ex.run(p).scalar() for p in enumerate_paths(ex.cut_dims))
        want = oracle.exact_amplitude(circ, 0, out)
        scale = (1e-10 if double else 1e-5) * max(abs(want), 2 ** (-lat.n / 2))
        assert abs(got - contract_grid(net).scalar()) <= scale
        assert abs(got - want) <= scale

    @pytest.mark.parametrize("depth", ["1+8+1", "1+16+1"])
    def test_bristlecone_placements_sum_to_uncut_value(self, depth):
        """Either placement of C on bristlecone-24, in both precisions,
        closed and with C's outputs open, sums its paths to the uncut
        contraction and to the dense reference."""
        lat = Lattice.named("bristlecone-24")
        circ = generate_rqc(lat, depth, seed=2)
        regions = contraction_plan._regions(lat)
        c_sites = builtin_plan(lat).batch_sites
        state = oracle.evolve(circ)
        # every output outside C is 0; qubit 0 is the index's top bit
        index = [sum(bit << (lat.n - 1 - q) for q, bit in zip(c_sites, bits))
                 for bits in itertools.product((0, 1), repeat=len(c_sites))]
        reference = state[index].reshape((2,) * len(c_sites))
        del state
        for dtype, tol in ((np.complex64, 1e-5), (np.complex128, 1e-10)):
            base = contract_time(build_3d(circ, 0, None, dtype=dtype))
            for open_sites in ((), c_sites):
                net = base.fix_outputs({q: 0 for q in range(lat.n)
                                        if q not in open_sites})
                labels = [out_label(q) for q in open_sites]
                want = reference if open_sites else reference[(0,) * len(c_sites)]
                uncut = contract_grid(net).transpose_to(labels).array
                scale = tol * max(np.abs(want).max(), 2 ** (-lat.n / 2))
                for c_early in (False, True):
                    plan = two_region_plan(lat, *regions, c_early=c_early)
                    ex = PlanExecutor(net, plan)
                    got = sum(ex.run(p).transpose_to(labels).array
                              for p in enumerate_paths(ex.cut_dims))
                    assert np.abs(got - uncut).max() <= scale
                    assert np.abs(got - want).max() <= scale


class TestPlacement:
    """builtin_plan joins C where estimate_cost prices fewer flops.  A
    depth-priced plan orders its cores by price, so it is compared with a
    depth-less one by :func:`placement`."""

    @pytest.mark.parametrize("kind,depth", [("grid:4x4", "1+16+1"),
                                            ("grid:4x5", "1+24+1"),
                                            ("grid:5x5", "1+24+1")])
    def test_c_last_kept_where_c_touches_a(self, kind, depth):
        lat = Lattice.named(kind)
        default = placement(grid_plan(lat))
        for itemsize in (8, 16):
            for open_sites in ((), grid_plan(lat).batch_sites):
                plan = builtin_plan(lat, depth, open_sites=open_sites,
                                    itemsize=itemsize)
                assert placement(plan) == default

    def test_c_early_on_6x6_prices_a_tenth(self):
        lat = Lattice.named("grid:6x6")
        chosen = builtin_plan(lat, "1+16+1")
        last = grid_plan(lat)
        assert placement(chosen) == placement(grid_plan(lat, c_early=True))
        assert chosen.c_join_step() == "B0C" and last.c_join_step() == "result"
        assert chosen.batch_sites == last.batch_sites
        assert 10 * estimate_cost(chosen, lat, "1+16+1").total_flops <= \
            estimate_cost(last, lat, "1+16+1").total_flops

    def test_open_c_on_shallow_6x6_keeps_c_last(self):
        lat = Lattice.named("grid:6x6")
        region = grid_plan(lat).batch_sites
        assert placement(builtin_plan(lat, "1+8+1", open_sites=region)) == \
            placement(grid_plan(lat))
        assert builtin_plan(lat, "1+8+1").c_join_step() == "B0C"

    # kind -> cut bonds, batch sites, leading hex digits of the sha256 of
    # the plan's text
    BRISTLECONE = {
        "bristlecone-24": ([((18, 19),)], (16, 17, 20, 21, 22, 23),
                           "83dd300d4398f71a"),
        "bristlecone-48": ([((41, 45),), ((42, 46),)],
                           (9, 16, 17, 24, 25, 26, 32, 33, 34, 39, 40, 44),
                           "008522e84949164e"),
        "bristlecone-60": ([((34, 43),), ((35, 44),), ((36, 45),)],
                           (12, 19, 27, 28, 29, 37, 38, 39, 46, 52),
                           "150ff4df4948033c"),
        "bristlecone-64": ([((42, 43),), ((43, 50),)],
                           (9, 16, 17, 24, 25, 32, 33, 40, 41, 48),
                           "416792134ab4e7ff"),
        "bristlecone-70": ([((18, 19),), ((18, 28),), ((27, 28),), ((27, 38),)],
                           (8, 15, 16, 24, 25, 26, 35, 36, 37, 46, 47, 55),
                           "dff11ab82d80fdf1"),
        "bristlecone-72": ([((28, 29),), ((39, 40),), ((49, 50),), ((57, 58),)],
                           (9, 16, 17, 25, 26, 27, 36, 37, 38, 47, 48, 56),
                           "72d1a63fbe7f5161"),
    }

    @pytest.mark.parametrize("kind", sorted(BRISTLECONE))
    def test_bristlecone_plan_without_depth_is_c_last(self, kind):
        cut_bonds, batch_sites, digest = self.BRISTLECONE[kind]
        plan = builtin_plan(Lattice.named(kind))
        assert plan.c_join_step() == "result"
        assert [cut.bonds for cut in plan.cuts] == cut_bonds
        assert plan.batch_sites == batch_sites
        text = format_plan(plan).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_closed_bristlecone24_joins_c_early(self):
        lat = Lattice.named("bristlecone-24")
        plan = builtin_plan(lat, "1+32+1", itemsize=8)
        assert plan.c_join_step() == "B0C"
        cost = estimate_cost(plan, lat, "1+32+1")
        assert (cost.total_flops, cost.peak_bytes) == (74_481_664, 759_944)
        assert (plan.cuts, plan.batch_sites) == \
            (builtin_plan(lat).cuts, builtin_plan(lat).batch_sites)

    @pytest.mark.parametrize("depth", ["1+8+1", "1+16+1"])
    def test_open_c_on_bristlecone24_keeps_c_last(self, depth):
        lat = Lattice.named("bristlecone-24")
        last = builtin_plan(lat)
        for itemsize in (8, 16):
            assert placement(builtin_plan(lat, depth,
                                          open_sites=last.batch_sites,
                                          itemsize=itemsize)) == placement(last)

    def test_budget_keeps_a_boundary_plan_that_fits(self):
        """A priced order can copy larger operands into scratch than the
        boundary order: with C open at 1+13+1, bristlecone-24's priced
        plan holds 30,864 bytes and its boundary-ordered C-last plan
        26,768, so that budget keeps the latter rather than refusing."""
        lat = Lattice.named("bristlecone-24")
        sites = builtin_plan(lat).batch_sites
        free = builtin_plan(lat, "1+13+1", open_sites=sites)
        capped = builtin_plan(lat, "1+13+1", 26_768, open_sites=sites)
        assert capped == grid_plan(lat) and free != capped
        assert [estimate_cost(p, lat, "1+13+1", open_sites=sites).peak_bytes
                for p in (free, capped)] == [30_864, 26_768]

    def test_tie_keeps_c_last(self, grid_4x4, monkeypatch):
        monkeypatch.setattr(contraction_plan, "_walk",
                            lambda *a, **k: (CostEstimate(1, 1, 1), None))
        assert placement(builtin_plan(grid_4x4, "1+16+1")) == \
            placement(grid_plan(grid_4x4))

    def test_early_plan_joins_c_core_into_b_core_before_loops(self, grid_4x4):
        plan = grid_plan(grid_4x4, n_cuts=4, c_early=True)
        first_loop = plan.program.index(("loop", "w0"))
        assert ("contract", ContractStep(("B0", "C"), "B0C", "global")) in \
            plan.program[:first_loop]
        assert plan.program[-1] == ("output", "AB")
        assert parse_plan(format_plan(plan)) == plan


def _recounted_region_order(lattice, sites):
    """The greedy region order by recounting the whole cluster boundary,
    over every lattice edge, for each candidate."""
    def boundary(cluster):
        return sum((a in cluster) != (b in cluster) for a, b in lattice.edges())

    remaining = set(sites)
    order = [min(remaining)]
    while remaining := remaining - {order[-1]}:
        frontier = [s for s in remaining
                    if set(lattice.neighbors(s)) & set(order)] or remaining
        order.append(min(frontier,
                         key=lambda s: (boundary(set(order) | {s}), s)))
    return order


class TestRegionOrder:
    """Without shapes, ranking candidates by the boundary change gives the
    order a full recount gives, on every depth-less builtin plan's regions
    in both placements."""

    @pytest.mark.parametrize("kind", [f"grid:{r}x{c}" for r in range(2, 9)
                                      for c in range(2, 9)]
                             + sorted(contraction_plan._BRISTLECONE))
    def test_builtin_plans_match_a_boundary_recount(self, kind, monkeypatch):
        lat = Lattice.named(kind)
        fast = [format_plan(grid_plan(lat, c_early=e)) for e in (False, True)]
        monkeypatch.setattr(contraction_plan, "_region_order",
                            lambda lat, sites, shapes=None:
                            _recounted_region_order(lat, sites))
        assert fast == [format_plan(grid_plan(lat, c_early=e))
                        for e in (False, True)]

    @settings(max_examples=40, deadline=None)
    @given(lat=st.one_of(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
            lambda rc: rc[0] * rc[1] >= 2).map(lambda rc: "grid:%dx%d" % rc),
        st.just("bristlecone-24")).map(Lattice.named),
        t=st.integers(0, 16), open_c=st.booleans(), c_early=st.booleans(),
        gate=st.sampled_from(["cz", "iswap"]), data=st.data())
    def test_priced_order_is_no_worse_than_the_boundary_chain(
            self, lat, t, open_c, c_early, gate, data):
        """Each core of a priced plan folds its region's sites in a chain
        of no more flops and no larger intermediate than the boundary
        chain, priced exactly as the walk prices that step; on small grids
        the plan's amplitudes match the dense state in both precisions."""
        n_cuts = data.draw(st.integers(0, len(contraction_plan._rule(lat)[2])))
        regions = contraction_plan._regions(lat, n_cuts)
        open_sites = tuple(sorted(regions[2])) if open_c else ()
        circ = generate_rqc(lat, f"1+{t}+1", seed=t, two_qubit_gate=gate)
        shapes = site_shapes(circ, open_sites)
        plan = two_region_plan(lat, *regions, c_early=c_early, shapes=shapes)
        boundary = two_region_plan(lat, *regions, c_early=c_early)
        walked = {sc.name: sc.flops for sc in contraction_plan._walk(
            plan, lat, shapes, 8)[0].steps}
        first_loop = next((i for i, (kind, _) in enumerate(plan.program)
                           if kind == "loop"), len(plan.program))
        cores = [(priced, chain) for (kind, priced), (_, chain) in zip(
            plan.program[:first_loop], boundary.program[:first_loop])
            if kind == "contract"
            and all(re.fullmatch(r"t\d+", n) for n in chain.inputs)]
        for priced, chain in cores:
            assert sorted(priced.inputs) == sorted(chain.inputs)
            masks = dict(zip(chain.inputs, contraction_plan._label_masks(
                [shapes[int(n[1:])] for n in chain.inputs])))
            price = contraction_plan._chain_price(
                [masks[n] for n in priced.inputs])
            least = contraction_plan._chain_price(
                [masks[n] for n in chain.inputs])
            assert price[0] <= least[0] and price[1] <= least[1]
            assert price[0] == walked[priced.name]
        if not lat.kind.startswith("grid:") or lat.n > 12:
            return
        out = data.draw(st.integers(0, 2 ** lat.n - 1), label="out")
        bit = {q: out >> (lat.n - 1 - q) & 1 for q in range(lat.n)}
        state = oracle.evolve(circ)
        index = [sum(b << (lat.n - 1 - q) for q, b in
                     {**bit, **dict(zip(open_sites, bits))}.items())
                 for bits in itertools.product((0, 1), repeat=len(open_sites))]
        want = state[index].reshape((2,) * len(open_sites))
        labels = [out_label(q) for q in open_sites]
        for dtype, tol in ((np.complex64, 1e-5), (np.complex128, 1e-10)):
            net = contract_time(build_3d(circ, 0, None, dtype=dtype)).fix_outputs(
                {q: b for q, b in bit.items() if q not in open_sites})
            ex = PlanExecutor(net, plan)
            got = sum(ex.run(p).transpose_to(labels).array
                      for p in enumerate_paths(ex.cut_dims))
            scale = tol * max(np.abs(want).max(), 2 ** (-lat.n / 2))
            assert np.abs(got - want).max() <= scale

    def test_bristlecone24_c_core_is_the_left_deep_optimum(self):
        """At 1+32+1 the C core of the closed bristlecone-24 plan prices
        the fewest flops of any left-deep order, found by a search over
        every subset of C."""
        lat = Lattice.named("bristlecone-24")
        plan = builtin_plan(lat, "1+32+1")
        flops = {sc.name: sc.flops
                 for sc in estimate_cost(plan, lat, "1+32+1").steps}
        shapes = site_shapes(generate_rqc(lat, "1+32+1", seed=0))
        masks = contraction_plan._label_masks(
            [shapes[s] for s in plan.batch_sites])
        best = {1 << i: (0, m) for i, m in enumerate(masks)}  # subset -> (flops, labels)
        for subset in range(1, 1 << len(masks)):
            if subset not in best:
                best[subset] = min(
                    (best[subset ^ 1 << i][0] + 8 * 2 ** (
                        best[subset ^ 1 << i][1] | m).bit_count(),
                     best[subset ^ 1 << i][1] ^ m)
                    for i, m in enumerate(masks) if subset >> i & 1)
        assert flops["C"] == best[(1 << len(masks)) - 1][0] == 10_485_760


# (lattice, depth, memory budget): budgets that keep the default cut count,
# cut one, two or three more waist bonds, or fit nothing
GOLDEN_BUDGETS = [("grid:6x6", "1+16+1", 500_000_000),
                  ("grid:6x6", "1+16+1", 100_000_000),
                  ("grid:6x6", "1+16+1", 2_300_000),
                  ("grid:6x6", "1+16+1", 500_000),
                  ("grid:4x4", "1+16+1", 40_000),
                  ("grid:3x8", "1+24+1", 7_000_000),
                  ("bristlecone-24", "1+32+1", 759_944),
                  ("bristlecone-24", "1+32+1", 759_943)]


GOLDEN_KINDS = [f"grid:{r}x{c}" for r in range(1, 9) for c in range(1, 9)
                if r * c >= 2] + [f"bristlecone-{n}" for n in BRISTLECONE_SIZES]


def _priced_cases(lat):
    """(case, builtin_plan keywords) for each depth-priced plan of the
    sweep on ``lat``: three depths, both precisions, C closed and open."""
    try:
        c_sites = builtin_plan(lat).batch_sites
    except PlanError:
        c_sites = ()
    for depth in ("1+8+1", "1+16+1", "1+24+1"):
        for itemsize in (8, 16):
            for sites in ((), c_sites):
                yield (lat.kind, depth, itemsize, sites), dict(
                    depth=depth, open_sites=sites, itemsize=itemsize)


def _outcome(build):
    try:
        return format_plan(build())
    except (PlanError, MemoryBudgetError) as exc:
        return type(exc).__name__


def _golden_sweep():
    """(case, plan text or the error's class name) for builtin_plan on
    every rectangle from 1x2 to 8x8 and every Bristlecone kind, without a
    depth and at three depths, both precisions, C closed and open;
    grid_plan for cut counts 0-8 in both placements on the rectangles; and
    :data:`GOLDEN_BUDGETS`."""
    for kind in GOLDEN_KINDS:
        lat = Lattice.named(kind)
        yield kind, _outcome(lambda: builtin_plan(lat))
        for case, kw in _priced_cases(lat):
            yield case, _outcome(lambda: builtin_plan(lat, **kw))
        if kind.startswith("grid:"):
            for n_cuts in range(9):
                for c_early in (False, True):
                    yield (kind, n_cuts, c_early), _outcome(
                        lambda: grid_plan(lat, n_cuts, c_early=c_early))
    for kind, depth, budget in GOLDEN_BUDGETS:
        yield (kind, depth, budget), _outcome(
            lambda: builtin_plan(Lattice.named(kind), depth, budget))


class TestGoldenPlans:
    """Every builtin plan's text, pinned by one digest over the sweep.  A
    change to any lattice's rule, to the placement or budget choice, or to
    the plan assembly moves it; such a change re-pins it on purpose."""

    DIGEST = "c3cf1ba9a42e9acf08c0464ccb2489d7d4f08df565b1482cc51dfbb8fed8ea49"

    def test_sweep_digest(self):
        digest = hashlib.sha256()
        outcomes = []
        for case, text in _golden_sweep():
            digest.update(f"{case}\n{text}\n".encode())
            outcomes.append(text)
        assert len(outcomes) == 2065
        assert sum(text.startswith("plan ") for text in outcomes) == 1435
        assert digest.hexdigest() == self.DIGEST

    def test_priced_orders_cost_no_more_than_the_boundary_order(
            self, monkeypatch):
        """Every depth-priced plan of the sweep, budgets included, prices
        no more flops than builtin_plan gives with every core in its
        boundary order, and fits wherever that does."""
        cases = [(Lattice.named(kind), kw) for kind in GOLDEN_KINDS
                 for _, kw in _priced_cases(Lattice.named(kind))] + [
            (Lattice.named(kind), dict(depth=depth, memory_budget=budget))
            for kind, depth, budget in GOLDEN_BUDGETS]

        def flops():
            for lat, kw in cases:
                try:
                    plan = builtin_plan(lat, **kw)
                except (PlanError, MemoryBudgetError):
                    yield None
                    continue
                yield estimate_cost(plan, lat, kw["depth"],
                                    open_sites=kw.get("open_sites", ()),
                                    itemsize=kw.get("itemsize", 8)).total_flops

        priced = list(flops())
        monkeypatch.setattr(contraction_plan, "_cheapest_chain",
                            lambda masks: tuple(range(len(masks))))
        boundary = list(flops())
        assert all(b is None or (p is not None and p <= b)
                   for p, b in zip(priced, boundary))
        # cases, plans priced with and without the search, and strictly
        # cheaper ones: only the 759,944-byte bristlecone-24 budget fits
        # the priced plan alone
        assert (len(cases), sum(p is not None for p in priced),
                sum(b is not None for b in boundary),
                sum(b is not None and p < b
                    for p, b in zip(priced, boundary))) == (860, 834, 833, 596)


class TestBristleconeTable:
    """Each Bristlecone row prices no more than the hand-tuned row it
    replaced, closed and with C open, under builtin_plan's placement."""

    # (kind, depth, C open) -> (flops, peak bytes) of builtin_plan on the
    # hand-tuned rows, CZ, complex64
    HAND_TUNED = {
        ("bristlecone-24", "1+16+1", False): (1_057_792, 135_464),
        ("bristlecone-24", "1+16+1", True): (2_447_360, 207_008),
        ("bristlecone-24", "1+32+1", False): (41_133_604_864, 537_530_504),
        ("bristlecone-24", "1+32+1", True): (52_241_235_968, 543_361_664),
        ("bristlecone-48", "1+16+1", False): (982_767_616, 30_131_752),
        ("bristlecone-48", "1+16+1", True): (5_370_877_952, 542_320_160),
        ("bristlecone-48", "1+32+1", False):
            (12_414_880_415_481_856, 27_524_717_445_256),
        ("bristlecone-48", "1+32+1", True):
            (12_814_746_249_592_832, 28_658_312_020_096),
        ("bristlecone-60", "1+16+1", False): (267_205_335_040, 6_543_446_088),
        ("bristlecone-60", "1+16+1", True): (269_616_377_856, 6_610_528_320),
        ("bristlecone-60", "1+32+1", False):
            (935_753_745_958_761_398_272, 1_729_698_920_823_128_328),
        ("bristlecone-60", "1+32+1", True):
            (935_754_312_708_554_489_856, 1_729_699_195_566_301_440),
        ("bristlecone-64", "1+16+1", False):
            (1_239_055_620_096, 25_791_235_336),
        ("bristlecone-64", "1+16+1", True):
            (1_240_106_866_688, 25_858_188_544),
        ("bristlecone-64", "1+32+1", False):
            (19_362_250_067_914_136_223_744, 27_670_134_808_972_955_656),
        ("bristlecone-64", "1+32+1", True):
            (19_362_250_127_934_106_370_048, 27_670_135_081_569_169_408),
        ("bristlecone-70", "1+16+1", False):
            (5_023_071_326_208, 103_168_805_960),
        ("bristlecone-70", "1+16+1", True):
            (5_059_624_112_128, 103_437_110_336),
        ("bristlecone-70", "1+32+1", False):
            (311_854_141_727_058_435_244_032, 442_722_158_011_134_181_640),
        ("bristlecone-70", "1+32+1", True):
            (311_854_177_857_240_388_599_808, 442_722_159_108_364_140_800),
        ("bristlecone-72", "1+16+1", False):
            (5_023_071_326_208, 103_168_805_960),
        ("bristlecone-72", "1+16+1", True):
            (5_059_624_112_128, 103_437_110_336),
        ("bristlecone-72", "1+32+1", False):
            (311_854_141_727_058_435_244_032, 442_722_158_011_134_181_640),
        ("bristlecone-72", "1+32+1", True):
            (311_854_177_857_240_388_599_808, 442_722_159_108_364_140_800),
    }

    @pytest.mark.parametrize("kind,depth,c_open", sorted(HAND_TUNED))
    def test_no_worse_than_the_hand_tuned_row(self, kind, depth, c_open):
        lat = Lattice.named(kind)
        open_sites = builtin_plan(lat).batch_sites if c_open else ()
        plan = builtin_plan(lat, depth, open_sites=open_sites)
        cost = estimate_cost(plan, lat, depth, open_sites=open_sites)
        flops, peak = self.HAND_TUNED[kind, depth, c_open]
        assert cost.total_flops <= flops and cost.peak_bytes <= peak


class TestCostModel:
    def test_estimate_counts_executed_flops(self, grid_4x4):
        """The estimator's per-step multiply-add count (8 real ops per
        complex pair) must equal what a matmul of the planned shapes does."""
        est = estimate_cost(grid_plan(grid_4x4, n_cuts=2), grid_4x4, "1+16+1")
        assert est.paths == 16
        assert est.total_flops > 0
        assert est.peak_bytes > 0
        # flops are exact multiples of 8 by construction
        assert all(s.flops % 8 == 0 for s in est.steps)

    def test_reuse_lowers_flops(self, circuit_4x4_t16):
        """The estimate counts the flops of one executor over every path,
        fewer than a fresh executor per path spends."""
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=2)
        est = estimate_cost(plan, circuit_4x4_t16.lattice, "1+16+1")
        ex = PlanExecutor(net, plan)
        paths = enumerate_paths(ex.cut_dims)
        fresh = 0
        for p in paths:
            ex.run(p)
            one = PlanExecutor(net, plan)
            one.run(p)
            fresh += one.flops
        assert ex.flops == est.total_flops < fresh

    def test_itemsize_scales_peak_bytes(self, grid_4x4):
        plan = grid_plan(grid_4x4, n_cuts=2)
        single = estimate_cost(plan, grid_4x4, "1+16+1", itemsize=8)
        double = estimate_cost(plan, grid_4x4, "1+16+1", itemsize=16)
        assert double.peak_bytes == 2 * single.peak_bytes

    def test_iswap_bonds_priced_at_their_rank(self, grid_4x4):
        """iSWAP bonds have Schmidt rank 4, so the estimate for an iSWAP
        circuit is what its executor counts and holds."""
        circ = generate_rqc(grid_4x4, "1+16+1", seed=0, two_qubit_gate="iswap")
        assert {g.name for g in circ.two_qubit_gates()} == {"iswap"}
        plan = builtin_plan(grid_4x4)
        net = contract_time(build_3d(circ, 0, 0, dtype=np.complex64))
        ex = fresh_run(net, plan)
        est = estimate_cost(plan, grid_4x4, circ)
        assert est.paths == math.prod(ex.cut_dims) == 256
        assert (est.total_flops, est.peak_bytes) == (ex.flops, ex.peak_bytes)

    def test_bristlecone72_prices_the_folded_network(self):
        """bristlecone-72 is priced on the 70-site network ``contract_time``
        folds its corners into, so the estimate is what the executor counts
        and holds, and C joins early, the cheaper placement on that network."""
        lat = Lattice.named("bristlecone-72")
        plan = builtin_plan(lat, "1+8+1")
        assert plan.c_join_step() == "B0C"
        net = contract_time(build_3d(generate_rqc(lat, "1+8+1", seed=0), 0, 0))
        ex = fresh_run(net, plan)
        est = estimate_cost(plan, lat, "1+8+1")
        assert (ex.flops, ex.peak_bytes) == (est.total_flops, est.peak_bytes) \
            == (1_488_768, 83_720)

    def test_deeper_circuits_cost_more(self, grid_4x4):
        plan = grid_plan(grid_4x4, n_cuts=2)
        shallow = estimate_cost(plan, grid_4x4, "1+16+1")
        deep = estimate_cost(plan, grid_4x4, "1+24+1")
        assert deep.total_flops > shallow.total_flops


class TestMemoryBudget:
    def test_tiny_budget_refused(self, circuit_4x4_t16):
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=1)
        with pytest.raises(MemoryBudgetError):
            execute_plan(net, plan, (0,), memory_budget=64)

    def test_ample_budget_passes(self, circuit_4x4_t16):
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=1)
        execute_plan(net, plan, (0,), memory_budget=1 << 30)

    def test_builtin_plan_respects_budget(self, grid_4x4):
        with pytest.raises(MemoryBudgetError):
            builtin_plan(grid_4x4, "1+32+1", memory_budget=256)


BOUND_CASES = [
    *[(kind, depth, None) for kind in ("grid:4x4", "grid:4x5", "grid:5x5")
      for depth in ("1+8+1", "1+16+1", "1+24+1")],
    ("grid:5x5", "1+24+1", 3),
    ("bristlecone-24", "1+8+1", None),
]


def fresh_run(net, plan) -> PlanExecutor:
    ex = PlanExecutor(net, plan)
    for p in enumerate_paths(ex.cut_dims):
        ex.run(p)
    return ex


def counted_run(net, plan, monkeypatch) -> tuple[PlanExecutor, int]:
    """A fresh run, which also warms the permutation caches, and the
    8 * m * k * n of every product it made, from the operands and product
    alone: the shared size k has k**2 = a.size * b.size / out.size."""
    done = 0
    contract_arrays = contraction_plan.contract_arrays

    def counted(a, b, *args):
        nonlocal done
        out = contract_arrays(a, b, *args)
        k = math.isqrt(a.size * b.size // out.size)
        assert k * k * out.size == a.size * b.size
        done += 8 * out.size * k
        return out

    monkeypatch.setattr(contraction_plan, "contract_arrays", counted)
    ex = fresh_run(net, plan)
    monkeypatch.setattr(contraction_plan, "contract_arrays", contract_arrays)
    return ex, done


def traced_peak(net, plan, monkeypatch) -> int:
    """tracemalloc peak of every path through a fresh executor; operand
    scratch starts empty so that it is counted."""
    monkeypatch.setattr(tensor_core, "_SCRATCH", threading.local())
    tracemalloc.start()
    try:
        fresh_run(net, plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def array_peak(net, plan, monkeypatch) -> int:
    """Largest numpy-allocated total right after any contraction of a
    fresh run returns, while the old accumulator is still alive: the peak
    without the few tens of KB of Python objects that outweigh the arrays
    of a tiny network.  Slices are views, so they allocate nothing."""
    monkeypatch.setattr(tensor_core, "_SCRATCH", threading.local())
    peak = 0

    def observe(result):
        nonlocal peak
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        peak = max(peak, sum(t.size for t in snap.traces))
        return result

    contract_arrays = contraction_plan.contract_arrays
    monkeypatch.setattr(contraction_plan, "contract_arrays",
                        lambda *a: observe(contract_arrays(*a)))
    tracemalloc.start()
    try:
        fresh_run(net, plan)
    finally:
        tracemalloc.stop()
    return peak


class TestHonestBound:
    """One shape walk prices the plan for both the estimate and the
    executor, and its peak bounds what the executor really allocates."""

    @pytest.mark.parametrize("kind,depth,n_cuts", BOUND_CASES)
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("batch", [False, True], ids=["closed", "batch"])
    def test_estimate_bounds_measured_peak(self, kind, depth, n_cuts, dtype,
                                           batch, monkeypatch):
        lat = Lattice.named(kind)
        plan = builtin_plan(lat) if n_cuts is None else grid_plan(lat, n_cuts)
        open_sites = plan.batch_sites if batch else ()
        net = contract_time(build_3d(generate_rqc(lat, depth, seed=1), 0, None,
                                     dtype=dtype))
        net = net.fix_outputs({q: 0 for q in range(lat.n) if q not in open_sites})
        est = estimate_cost(plan, lat, depth, open_sites=open_sites,
                            itemsize=np.dtype(dtype).itemsize)
        ex, done = counted_run(net, plan, monkeypatch)
        assert ex.flops == est.total_flops == done
        assert ex.peak_bytes == est.peak_bytes

        if est.peak_bytes < 1 << 20:  # Python objects would dominate
            assert array_peak(net, plan, monkeypatch) <= est.peak_bytes
        else:
            traced = traced_peak(net, plan, monkeypatch)
            assert traced <= est.peak_bytes
            if traced >= 4 << 20:
                assert est.peak_bytes <= 1.5 * traced

    @pytest.mark.parametrize("kind", ["grid:4x6", "grid:5x6"])
    @pytest.mark.parametrize("depth", ["1+8+1", "1+16+1"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("batch", [False, True], ids=["closed", "batch"])
    def test_early_c_estimate_bounds_measured_peak(self, kind, depth, dtype,
                                                   batch, monkeypatch):
        """With C joined early the walk still prices what the executor
        counts and holds, and bounds what it allocates.  Unlike the C-last
        cases above, the bound is not within 1.5x of the traced peak
        everywhere: the walk counts the B0 core, built once before the
        loops, both as its fold's product and as a cached output (1.6x on
        grid:5x6 1+16+1)."""
        lat = Lattice.named(kind)
        plan = grid_plan(lat, c_early=True)
        open_sites = plan.batch_sites if batch else ()
        net = contract_time(build_3d(generate_rqc(lat, depth, seed=1), 0, None,
                                     dtype=dtype))
        net = net.fix_outputs({q: 0 for q in range(lat.n) if q not in open_sites})
        est = estimate_cost(plan, lat, depth, open_sites=open_sites,
                            itemsize=np.dtype(dtype).itemsize)
        ex, done = counted_run(net, plan, monkeypatch)
        assert ex.flops == est.total_flops == done
        assert ex.peak_bytes == est.peak_bytes
        if est.peak_bytes < 1 << 20:  # Python objects would dominate
            assert array_peak(net, plan, monkeypatch) <= est.peak_bytes
        else:
            assert traced_peak(net, plan, monkeypatch) <= est.peak_bytes

    @pytest.mark.parametrize("kind,depth,n_cuts", [
        ("grid:6x6", "1+16+1", 5),      # both sides read in place at the peak
        ("bristlecone-24", "1+8+1", None),
    ])
    def test_priced_scratch_is_held(self, kind, depth, n_cuts, monkeypatch,
                                    kernel_backend):
        """The walk prices each side's operand scratch from the copies
        ``contract`` makes, so a full run from empty scratch leaves the
        workspaces holding exactly what was priced, no more for an operand
        read in place, on either backend."""
        monkeypatch.setattr(tensor_core, "_SCRATCH", threading.local())
        lat = Lattice.named(kind)
        plan = builtin_plan(lat) if n_cuts is None else grid_plan(lat, n_cuts)
        fresh_run(closed_net(generate_rqc(lat, depth, seed=1)), plan)
        held = tuple(sum(buf.nbytes for buf in ws._bufs.values())
                     for ws in tensor_core._operand_scratch())
        assert held == estimate_cost(plan, lat, depth, itemsize=16).scratch_bytes

    def test_price_is_keyed_by_backend(self, monkeypatch):
        """Executors of one network shape share a memoized price, but not
        across backends: on numba a multi-move copy ping-pongs through a
        second buffer, so grid:5x5's plan prices more scratch there."""
        lat = Lattice.named("grid:5x5")
        plan = builtin_plan(lat)
        net = closed_net(generate_rqc(lat, "1+16+1", seed=1))
        peaks = {}
        for backend in ("numpy", "numba"):
            monkeypatch.setattr(_kernels, "get_backend", lambda b=backend: b)
            peaks[backend] = PlanExecutor(net, plan).peak_bytes
            assert peaks[backend] == estimate_cost(plan, lat, "1+16+1",
                                                   itemsize=16).peak_bytes
        assert peaks["numba"] > peaks["numpy"]

    def test_over_budget_refused_before_contracting(self, circuit_4x4_t16,
                                                    monkeypatch):
        calls = []
        contract_arrays = contraction_plan.contract_arrays
        monkeypatch.setattr(contraction_plan, "contract_arrays",
                            lambda *a: calls.append(1) or contract_arrays(*a))
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=1)
        need = PlanExecutor(net, plan).peak_bytes
        with pytest.raises(MemoryBudgetError):
            PlanExecutor(net, plan, memory_budget=need - 1)
        assert not calls
        PlanExecutor(net, plan, memory_budget=need).run((0,))
        assert calls

    def test_smaller_plan_trims_operand_scratch(self, circuit_4x4_t16,
                                                monkeypatch):
        """Scratch a large plan left behind is freed once a smaller plan's
        executor is built; another executor of the same shape frees none."""
        monkeypatch.setattr(tensor_core, "_SCRATCH", threading.local())

        def held():
            return [buf for ws in tensor_core._operand_scratch()
                    for buf in ws._bufs.values()]

        lat = Lattice.named("grid:5x5")
        net, plan = closed_net(generate_rqc(lat, "1+24+1", seed=1)), builtin_plan(lat)
        fresh_run(net, plan)
        kept = held()
        PlanExecutor(net, plan)
        now = held()
        assert len(now) == len(kept) and all(x is y for x, y in zip(now, kept))

        small_lat = circuit_4x4_t16.lattice
        PlanExecutor(closed_net(circuit_4x4_t16), builtin_plan(small_lat))
        priced = estimate_cost(builtin_plan(small_lat), small_lat, "1+16+1",
                               itemsize=16).scratch_bytes
        assert sum(buf.nbytes for buf in kept) > sum(priced)
        assert sum(buf.nbytes for buf in held()) <= sum(priced)


class TestSchedule:
    """One executor reruns, per path, the steps and slices inside the
    outermost loop whose value changed since the last completed path."""

    @staticmethod
    def net_and_plan():
        lat = Lattice.named("grid:4x5")
        net = contract_time(build_3d(generate_rqc(lat, "1+16+1", seed=3), 0,
                                     None, dtype=np.complex64))
        plan = grid_plan(lat, 3)
        net = net.fix_outputs({q: 1 for q in range(lat.n)
                               if q not in plan.batch_sites})
        return net, plan

    def test_any_path_order_matches_a_fresh_executor(self):
        net, plan = self.net_and_plan()
        ex = PlanExecutor(net, plan)
        subset = enumerate_paths(ex.cut_dims, f=0.3, seed=5)
        shuffled = [subset[i] for i in
                    np.random.default_rng(1).permutation(len(subset))]
        for path in subset + shuffled:
            want = execute_plan(net, plan, path)
            got = ex.run(path)
            assert got.labels == want.labels
            assert np.array_equal(got.array, want.array)
            flops = ex.flops
            assert np.array_equal(ex.run(path).array, want.array)
            assert ex.flops == flops  # a repeated path evaluates nothing

    def test_failed_run_leaves_no_stale_value(self, monkeypatch):
        """A contraction that raises midway through a path leaves some
        values updated for that path; none of them is taken as current."""
        net, plan = self.net_and_plan()
        ex = PlanExecutor(net, plan)
        ex.run((0, 0, 0))
        contract_arrays, calls = contraction_plan.contract_arrays, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("injected")
            return contract_arrays(*args)

        monkeypatch.setattr(contraction_plan, "contract_arrays", failing)
        with pytest.raises(MemoryError):
            ex.run((1, 0, 0))
        monkeypatch.setattr(contraction_plan, "contract_arrays", contract_arrays)
        for path in ((0, 1, 0), (1, 0, 0), (0, 0, 0)):
            assert np.array_equal(ex.run(path).array,
                                  execute_plan(net, plan, path).array)

    def test_a_step_inside_a_loop_it_skips_reruns_as_priced(self, grid_2x2):
        """``Y`` depends only on cut ``b``, pinned to one value, yet sits
        inside loop ``a``: it reruns whenever ``a`` ticks, as the walk
        prices it."""
        plan = parse_plan("""plan grid:2x2
            cut a 0:1
            cut b 2:3 values=0
            loop a
            contract t0 t1 -> X
            loop b
            contract t2 t3 -> Y
            contract X Y -> out
            output out
        """)
        circ = generate_rqc(grid_2x2, "1+8+1", seed=0)
        net = contract_time(build_3d(circ, 0, 0))
        ex = fresh_run(net, plan)
        assert ex.cut_dims == (2, 1)
        assert ex.flops == estimate_cost(plan, grid_2x2, "1+8+1").total_flops \
            == 192


class TestPlanValidation:
    def test_plan_must_cover_all_sites(self, circuit_4x4_t16):
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(Lattice.rectangle(3, 4))  # wrong lattice
        with pytest.raises(PlanError):
            execute_plan(net, plan, (0,))

    def test_out_of_range_path_value(self, circuit_4x4_t16):
        net = closed_net(circuit_4x4_t16)
        plan = grid_plan(circuit_4x4_t16.lattice, n_cuts=1)
        (dim,) = plan.cut_dims(net.bond_dim)
        with pytest.raises((PlanError, IndexError, ValueError)):
            execute_plan(net, plan, (dim,)).scalar()

    def test_unconsumed_site_refused_by_estimate_and_executor(self):
        """Both the estimate and the executor refuse a plan that drops a
        site tensor: grid:3x3's builtin plan without ``contract t8 -> C``
        priced at 1,536 flops when only the executor checked coverage."""
        lat = Lattice.named("grid:3x3")
        text = format_plan(builtin_plan(lat))
        plan = parse_plan(text.replace("contract t8 -> C reuse=global\n", "")
                          .replace("contract AB C -> result",
                                   "contract AB -> result"))
        with pytest.raises(PlanError, match=r"never consumes site tensors \[8\]"):
            estimate_cost(plan, lat, "1+8+1")
        net = closed_net(generate_rqc(lat, "1+8+1", seed=0))
        with pytest.raises(PlanError, match=r"never consumes site tensors \[8\]"):
            PlanExecutor(net, plan)


# One malformed plan per PlanError the walk raises, each an edit of
# grid:3x3's two-cut plan: (id, replacements applied in order, message).
_GRID_3X3 = Lattice.named("grid:3x3")
_TWO_CUTS = format_plan(grid_plan(_GRID_3X3, n_cuts=2))
_MALFORMED = [
    ("duplicate-cut", [("cut w1 4:5", "cut w0 4:5")], "duplicate cut names"),
    ("bond-off-lattice", [("cut w1 4:5", "cut w1 4:9")],
     "4:9 is not a lattice bond (grid:3x3 has no site 9)"),
    ("bond-not-adjacent", [("cut w1 4:5", "cut w1 4:8")],
     "4:8 is not a lattice bond"),
    ("bond-in-two-cuts", [("cut w1 4:5", "cut w1 1:2")],
     "bond 1:2 appears in two cuts"),
    ("undeclared-loop", [("loop w1", "loop w9")],
     "loop over undeclared cut 'w9'"),
    ("loops-out-of-order", [("cut w0 1:2\ncut w1 4:5", "cut w1 4:5\ncut w0 1:2")],
     "loops must open cuts in declaration order"),
    ("step-after-output", [("output result", "output result\n"
                                              "contract result -> extra")],
     "contract step after output"),
    ("redefined-name", [("-> B1", "-> A0")], "name 'A0' already defined"),
    ("site-off-lattice", [("contract t0 ", "contract t99 t0 ")],
     "grid:3x3 has no site 99"),
    ("site-twice", [("contract t2 ", "contract t2 t1 ")],
     "site tensor t1 consumed twice"),
    ("undefined-input", [("contract A B ", "contract A X ")],
     "undefined input 'X'"),
    ("before-loop", [("contract t0 t3 t6 t7 ", "contract t0 t3 t6 t7 t4 "),
                     ("contract A1 t4 ", "contract A1 ")],
     "step 'A0' uses cut tensors before loop(s) ['w1'] are open"),
    ("false-global", [("A1 reuse=outer", "A1 reuse=global")],
     "step 'A1' marked global but depends on cuts"),
    ("false-outer", [("-> A\n", "-> A reuse=outer\n")],
     "step 'A' marked outer but depends on every cut"),
    ("no-output", [("output result\n", "")], "plan has no output statement"),
    ("two-outputs", [("output result", "output result\noutput result")],
     "plan has two output statements"),
    ("unlooped-cut", [("cut w1 4:5", "cut w1 4:5\ncut w2 5:8"),
                      ("contract t8 -> C reuse=global\n", ""),
                      ("contract B1 t5 ", "contract B1 "),
                      ("contract AB C ", "contract AB ")],
     "cuts never looped: ['w2']"),
    ("dangling", [("contract AB C ", "contract AB ")],
     "intermediates never used by output: ['C']"),
    ("batch-off-lattice", [("batch 8", "batch 9")],
     "batch region references missing site 9"),
    ("missing-site", [("contract t8 -> C reuse=global\n", ""),
                      ("contract AB C ", "contract AB ")],
     "plan never consumes site tensors [8]"),
    ("values-out-of-range", [("cut w0 1:2", "cut w0 1:2 values=0,99")],
     "cut 'w0' values out of range"),
]


class TestMalformedPlans:
    """The estimate, the executor and the CLI refuse each malformed plan
    with the same message, from the one walk all three run."""

    @pytest.mark.parametrize("edits,message", [
        pytest.param(edits, message, id=name)
        for name, edits, message in _MALFORMED])
    def test_every_entry_point_raises_the_message(self, tmp_path, capsys,
                                                  edits, message):
        text = _TWO_CUTS
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        plan = parse_plan(text)
        with pytest.raises(PlanError, match=re.escape(message)):
            estimate_cost(plan, _GRID_3X3, "1+8+1")
        net = closed_net(generate_rqc(_GRID_3X3, "1+8+1", seed=0))
        with pytest.raises(PlanError, match=re.escape(message)):
            PlanExecutor(net, plan)
        path = tmp_path / "bad.plan"
        path.write_text(text)
        code = cli.main(["amplitude", "--lattice", "grid:3x3", "--depth",
                         "1+8+1", "--plan", str(path), "--out", "0" * 9])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and message in err

    def test_the_edited_plan_is_valid(self):
        assert estimate_cost(parse_plan(_TWO_CUTS), _GRID_3X3, "1+8+1").paths > 1

    def test_folded_site_is_absent(self):
        """Bristlecone-72's folded corners have no site tensor to consume."""
        lat = Lattice.named("bristlecone-72")
        corner = lat.site_id((0, 5))
        text = format_plan(builtin_plan(lat))
        first = text.index("contract ") + len("contract ")
        plan = parse_plan(text[:first] + f"t{corner} " + text[first:])
        with pytest.raises(PlanError,
                           match=re.escape(f"absent site tensors [{corner}]")):
            estimate_cost(plan, lat, "1+8+1")


def _grid_case(rows, cols, n_cuts, c_early, c_open, dtype, seed):
    lat = Lattice.rectangle(rows, cols)
    plan = grid_plan(lat, n_cuts, c_early=c_early)
    open_sites = plan.batch_sites if c_open else ()
    net = contract_time(build_3d(generate_rqc(lat, "1+8+1", seed=seed), 0, None,
                                 dtype=dtype))
    net = net.fix_outputs({q: (q * 5 + seed) % 2 for q in range(lat.n)
                           if q not in open_sites})
    return lat, plan, open_sites, net


class TestBareArrayExecutor:
    """The compiled schedule runs on bare arrays and views and gives what
    the labelled reference contraction gives."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_path_sum_matches_contract_grid(self, data):
        rows = data.draw(st.integers(2, 3))
        cols = data.draw(st.integers(3, 4))
        waist = min(rows, cols)
        n_cuts = data.draw(st.integers(0, waist))
        c_early = data.draw(st.booleans())
        c_open = data.draw(st.booleans())
        dtype = data.draw(st.sampled_from([np.complex64, np.complex128]))
        seed = data.draw(st.integers(0, 3))
        lat, plan, open_sites, net = _grid_case(rows, cols, n_cuts, c_early,
                                                c_open, dtype, seed)
        ex = PlanExecutor(net, plan)
        total = None
        for path in enumerate_paths(ex.cut_dims):
            out = ex.run(path)
            total = out.array.copy() if total is None else total + out.array
        labels = tuple(out_label(q) for q in open_sites)
        got = Tensor(out.labels, total).transpose_to(labels).array
        want = contract_grid(net).transpose_to(labels).array
        tol = 1e-4 if dtype == np.complex64 else 1e-11
        assert np.max(np.abs(got - want)) <= tol * max(np.max(np.abs(want)), 1e-30)
        est = estimate_cost(plan, lat, "1+8+1", open_sites=open_sites,
                            itemsize=np.dtype(dtype).itemsize)
        assert ex.flops == est.total_flops
        assert ex.peak_bytes == est.peak_bytes

    def test_cut_slices_are_views(self, kernel_backend, monkeypatch):
        """Every sliced site tensor the executor holds is a view of the
        network's array, non-contiguous ones included, and each path gives
        bit for bit what folding contiguous copies of both operands
        gives."""
        lat, plan, _, net = _grid_case(3, 4, 2, True, False, np.complex128, 1)
        ex = PlanExecutor(net, plan)
        base = [t.array for t in net.tensors.values()]
        got = [ex.run(path).scalar() for path in enumerate_paths(ex.cut_dims)]
        sliced = [entry[0] for entry in ex._compiled.reruns[0] if entry[2]]
        assert sliced
        assert any(not ex._values[s].flags.c_contiguous for s in sliced)
        for s in sliced:
            assert np.shares_memory(ex._values[s], base[s])
        contract_arrays = contraction_plan.contract_arrays
        monkeypatch.setattr(contraction_plan, "contract_arrays",
                            lambda a, b, *rest: contract_arrays(
                                np.ascontiguousarray(a),
                                np.ascontiguousarray(b), *rest))
        copied = PlanExecutor(net, plan)
        assert got == [copied.run(path).scalar()
                       for path in enumerate_paths(ex.cut_dims)]

    def test_untraced_run_reads_no_clock(self, monkeypatch):
        lat, plan, _, net = _grid_case(3, 4, 2, True, False, np.complex64, 0)
        ticks = []
        clock = contraction_plan.time.perf_counter
        monkeypatch.setattr(contraction_plan.time, "perf_counter",
                            lambda: ticks.append(1) or clock())
        ex = fresh_run(net, plan)
        assert not ticks
        traced = PlanExecutor(net, plan, trace=True)
        for path in enumerate_paths(traced.cut_dims):
            traced.run(path)
        assert ticks
        rows = traced.step_trace()
        assert [row["step"] for row in rows] == [s.name for s in plan.steps()]
        assert sum(row["flops"] for row in rows) == traced.flops == ex.flops
        assert all(row["flops"] == row["flops_priced"] for row in rows)
        with pytest.raises(ValueError):
            ex.step_trace()

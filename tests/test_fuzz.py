"""Fuzzed parsers, plan rules and CLI arguments: every input parses or
ends in the module's own error, and the CLI exits 0 or 1 without a
traceback."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rqcsim import cli, contraction_plan
from rqcsim.circuits import CircuitFormatError, Lattice, parse_circuit
from rqcsim.contraction_plan import (MemoryBudgetError, PlanError,
                                     builtin_plan, estimate_cost, format_plan,
                                     grid_plan, parse_plan)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

GRID = Lattice.named("grid:3x3")
PLAN_LINES = format_plan(grid_plan(GRID)).splitlines()

site = st.integers(-3, 40)
token = st.one_of(
    st.sampled_from(["plan", "batch", "cut", "loop", "contract", "output",
                     "->", "reuse=global", "reuse=outer", "values=0,1", "w0",
                     "A", "B0", "grid:3x3", "bristlecone-24", "#"]),
    site.map(lambda s: f"t{s}"),
    st.tuples(site, site).map(lambda ab: f"{ab[0]}:{ab[1]}"),
    st.text(max_size=6))
free_line = st.lists(token, max_size=6).map(" ".join)


@st.composite
def plan_texts(draw):
    """The grid:3x3 builtin plan with lines dropped, swapped for noise, or
    given a cut bond or site tensor anywhere in (or outside) the lattice."""
    lines = list(PLAN_LINES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "noise", "cut", "site"]))
        if kind == "drop" and i < len(lines):
            del lines[i]
        elif kind == "noise":
            lines.insert(i, draw(free_line))
        elif kind == "cut":
            a, b = draw(site), draw(site)
            lines.insert(min(i, len(lines)), f"cut x{i} {a}:{b}")
            lines.append(f"loop x{i}")
        else:
            contracts = [j for j, ln in enumerate(lines)
                         if ln.startswith("contract")]
            if contracts:
                j = contracts[i % len(contracts)]
                lines[j] = lines[j].replace("contract ",
                                            f"contract t{draw(site)} ", 1)
    return "\n".join(lines)


class TestParsePlan:
    @FUZZ
    @given(text=plan_texts())
    def test_mutated_plans_parse_or_raise_plan_error(self, text):
        try:
            plan = parse_plan(text)
            estimate_cost(plan, GRID, "1+8+1")
        except PlanError:
            pass

    @FUZZ
    @given(text=st.lists(free_line, max_size=8).map("\n".join))
    def test_free_text_parses_or_raises_plan_error(self, text):
        try:
            plan = parse_plan(text)
            estimate_cost(plan, GRID, "1+8+1")
        except PlanError:
            pass

    @pytest.mark.parametrize("edit", [("cut w0 1:2", "cut w0 18:19"),
                                      ("contract t0 ", "contract t99 t0 ")])
    def test_site_outside_the_lattice_exits_1(self, tmp_path, capsys, edit):
        path = tmp_path / "p.plan"
        text = "\n".join(PLAN_LINES)
        assert edit[0] in text
        path.write_text(text.replace(*edit))
        code = cli.main(["amplitude", "--lattice", "grid:3x3", "--depth",
                         "1+8+1", "--plan", str(path), "--out", "0" * 9])
        err = capsys.readouterr().err
        assert code == 1
        assert "grid:3x3 has no site" in err and "Traceback" not in err


ruled = st.one_of(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
        lambda rc: rc[0] * rc[1] >= 2).map(lambda rc: "grid:%dx%d" % rc),
    st.sampled_from(sorted(contraction_plan._BRISTLECONE))).map(Lattice.named)
shallow = st.integers(0, 16).map(lambda t: f"1+{t}+1")


class TestPlanRule:
    """Every lattice's rule gives a plan the cost walk accepts for each cut
    count it has, and a budget is met or refused, never overrun."""

    @FUZZ
    @given(lat=ruled, depth=shallow, c_early=st.booleans(), data=st.data())
    def test_grid_plan_accepts_exactly_the_rules_cut_counts(
            self, lat, depth, c_early, data):
        n_bonds = len(contraction_plan._rule(lat)[2])
        n_cuts = data.draw(st.integers(-1, n_bonds + 1))
        try:
            plan = grid_plan(lat, n_cuts, c_early=c_early)
        except PlanError:
            assert not 0 <= n_cuts <= n_bonds
            return
        assert 0 <= n_cuts <= n_bonds and plan.num_cuts == n_cuts
        assert estimate_cost(plan, lat, depth).paths >= 1

    @FUZZ
    @given(lat=ruled, depth=shallow, open_c=st.booleans(),
           itemsize=st.sampled_from([8, 16]),
           budget=st.floats(2, 10).map(lambda e: int(10 ** e)))
    def test_builtin_plan_fits_its_budget_or_refuses(
            self, lat, depth, open_c, itemsize, budget):
        sites = builtin_plan(lat).batch_sites if open_c else ()
        try:
            plan = builtin_plan(lat, depth, budget, open_sites=sites,
                                itemsize=itemsize)
        except MemoryBudgetError as exc:
            assert f"plan for {lat.kind} needs ~" in str(exc)
            assert f"budget is {budget}" in str(exc)
            every = len(contraction_plan._rule(lat)[2])
            assert all(estimate_cost(grid_plan(lat, every, c_early=early), lat,
                                     depth, open_sites=sites,
                                     itemsize=itemsize).peak_bytes > budget
                       for early in (False, True))
            return
        cost = estimate_cost(plan, lat, depth, open_sites=sites,
                             itemsize=itemsize)
        assert cost.peak_bytes <= budget


gate_line = st.tuples(st.integers(-1, 12), st.sampled_from(
    ["h", "t", "cz", "x_1_2", "y_1_2", "iswap", "bogus", "CZ"]),
    st.lists(st.integers(-1, 5), min_size=0, max_size=3)).map(
        lambda g: " ".join([str(g[0]), g[1], *map(str, g[2])]))
header = st.sampled_from(["# lattice: grid:2x2", "# lattice: grid:9x9",
                          "# lattice: nope", "# depth: 1+4+1",
                          "# depth: x", "# two_qubit_gate: iswap",
                          "# two_qubit_gate: cnot", "# note"])


class TestParseCircuit:
    @FUZZ
    @given(count=st.sampled_from(["4", "2", "0", "x", "100000", ""]),
           body=st.lists(st.one_of(gate_line, header, st.text(max_size=8)),
                         max_size=10))
    def test_parses_or_raises_circuit_format_error(self, count, body):
        try:
            parse_circuit("\n".join([count, *body]))
        except CircuitFormatError:
            pass


bits = st.one_of(st.text("01", max_size=12), st.text(max_size=10),
                 st.integers(-5, 5000).map(str))
sites = st.one_of(st.lists(st.integers(-2, 12), max_size=5).map(
    lambda xs: ",".join(map(str, xs))), st.text(max_size=8))
count = st.one_of(st.integers(-3, 600).map(str), st.text(max_size=4))


class TestCliArguments:
    @FUZZ
    @given(flag=st.sampled_from(["--in", "--out"]), value=bits)
    def test_amplitude_bits(self, capsys, flag, value):
        argv = ["amplitude", "--lattice", "grid:3x3", "--depth", "1+4+1",
                "--precision", "double", flag, value]
        if flag == "--in":
            argv += ["--out", "0" * 9]
        assert cli.main(argv) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    @FUZZ
    @given(s_ab=bits, c_sites=sites, n_c=count)
    def test_amplitude_batch_arguments(self, capsys, s_ab, c_sites, n_c):
        argv = ["amplitude", "--lattice", "grid:3x3", "--depth", "1+4+1",
                "--s-ab", s_ab, "--c-sites", c_sites, "--n-c", n_c]
        assert cli.main(argv) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    @settings(FUZZ, max_examples=30)
    @given(target=count, m=count, n_c=count, c_sites=sites)
    def test_sample_counts(self, capsys, target, m, n_c, c_sites):
        argv = ["sample", "--lattice", "grid:3x3", "--depth", "1+4+1",
                "--target", target, "--m", m, "--n-c", n_c,
                "--c-sites", c_sites, "--max-batches", "3"]
        assert cli.main(argv) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err


GRID_2X3 = ["--lattice", "grid:2x3", "--depth", "1+8+1"]
below = st.integers(-10 ** 6, 0)
bad_tol = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda x: not 0 <= x < math.inf).map(str)
out_of_range = st.one_of(
    below.map(lambda v: ["verify", "--samples", str(v)]),
    bad_tol.map(lambda v: ["verify", "--tol", v]),
    below.map(lambda v: ["sample", "--target", "5", "--max-batches", str(v)]),
    st.integers(-10 ** 6, 1).map(
        lambda v: ["analyze", "pearson", "--batches", str(v)]))


def _is_bits(line: str, n: int) -> bool:
    return len(line.strip()) == n and not set(line.strip()) - {"0", "1"}


# a sample line that is not a 6-qubit bit-string (nor blank, which is skipped)
bad_sample = st.one_of(st.text("01", min_size=1, max_size=12),
                       st.text("01 2a\t", min_size=1, max_size=8)).filter(
    lambda s: s.strip() and not _is_bits(s, 6))


@pytest.fixture(scope="module")
def amplitude_file(tmp_path_factory):
    """1200 six-qubit amplitude records: enough for ``analyze pt``."""
    path = tmp_path_factory.mktemp("pt") / "amps.jsonl"
    path.write_text("".join(
        json.dumps({"in": "0" * 6, "out": format(i % 64, "06b"),
                    "re": 0.125 * ((i % 7) + 1) / 4, "im": 0.0}) + "\n"
        for i in range(1200)))
    return path


class TestOutOfRangeArguments:
    """Counts, tolerances and sample lines no run can honour exit 1 with
    an ``error:`` line and nothing on stdout: never 0, never 2, never a
    traceback."""

    @staticmethod
    def exits_1(capsys, argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and not out, (argv, code, err)
        assert err.startswith("error:") and "Traceback" not in err

    @FUZZ
    @given(argv=out_of_range)
    def test_counts_and_tolerance(self, capsys, argv):
        self.exits_1(capsys, argv + GRID_2X3)

    @FUZZ
    @given(bins=below)
    def test_pt_bins(self, capsys, amplitude_file, bins):
        self.exits_1(capsys, ["analyze", "pt", "--amplitudes",
                              str(amplitude_file), "--bins", str(bins)])

    @FUZZ
    @given(line=bad_sample)
    def test_xeb_sample_lines(self, capsys, tmp_path, line):
        path = tmp_path / "s.txt"
        path.write_text(f"000000\n{line}\n")
        self.exits_1(capsys, ["analyze", "xeb", "--samples", str(path)]
                     + GRID_2X3)

"""Command-line behavior: formats, determinism, and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rqcsim import _kernels, cli, contraction_plan, oracle
from rqcsim.amplitude_engine import AmplitudeEngine
from rqcsim.circuits import (Circuit, Gate, Lattice, generate_rqc,
                             parse_circuit, write_circuit)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def circuit_file(tmp_path, capsys):
    path = tmp_path / "c.txt"
    code = cli.main(
        ["gen", "--lattice", "grid:3x4", "--depth", "1+16+1", "--seed", "11",
         "-o", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


class TestGen:
    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            assert cli.main(
                ["gen", "--lattice", "grid:4x4", "--depth", "1+16+1",
                 "--seed", "3", "-o", str(p)]
            ) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["gen", "--lattice", "grid:4x4", "--depth", "1+8+1",
                  "--seed", "0", "-o", str(a)])
        cli.main(["gen", "--lattice", "grid:4x4", "--depth", "1+8+1",
                  "--seed", "1", "-o", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_stdout_by_default(self, capsys):
        code, out, _ = run(capsys, "gen", "--lattice", "grid:2x2",
                           "--depth", "1+4+1")
        assert code == 0
        assert out.splitlines()[0].strip() == "4"


class TestAmplitude:
    def test_single_amplitude_record(self, circuit_file, capsys):
        code, out, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "000000000000", "--precision", "double",
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        head, rec = lines[0], lines[1]
        assert "config" in head
        assert rec["in"] == "0" * 12
        assert isinstance(rec["re"], float) and isinstance(rec["im"], float)
        assert rec["seconds"] > 0

    def test_config_echoes_backend_and_effective_threads(self, circuit_file,
                                                          capsys):
        code, out, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "0" * 12, "--threads", "8",
        )
        assert code == 0
        cfg = json.loads(out.splitlines()[0])["config"]
        assert cfg["threads"] == 8
        assert cfg["backend"] == _kernels.get_backend()
        assert cfg["effective_threads"] == _kernels.effective_threads(8)
        if cfg["backend"] == "numpy":
            assert cfg["effective_threads"] == 1

    def test_batch_mode_emits_n_c_records(self, circuit_file, capsys):
        code, out, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file),
            "--s-ab", "0" * 12, "--c-sites", "4,5,6,7,8,9,10,11",
            "--n-c", "16", "--precision", "double",
        )
        assert code == 0
        recs = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(recs) == 1 + 16  # config header + entries
        # every entry carries the wall time of the whole batch
        assert len({rec["seconds"] for rec in recs[1:]}) == 1
        assert recs[1]["seconds"] > 0

    @pytest.mark.parametrize("mode", [("--out", "0" * 12), ("--n-c", "4")])
    def test_trace_writes_one_line_per_step(self, circuit_file, tmp_path,
                                            capsys, mode):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "amplitude", "--circuit", str(circuit_file),
                           *mode, "--trace", str(trace))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        lat = Lattice.named("grid:3x4")
        open_sites = () if mode[0] == "--out" else \
            contraction_plan.builtin_plan(lat).batch_sites
        plan = contraction_plan.builtin_plan(lat, "1+16+1", open_sites=open_sites)
        steps = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines[0]["config"]["trace"] == str(trace)
        assert [row["step"] for row in steps] == [s.name for s in plan.steps()]
        assert sum(row["flops"] for row in steps) == lines[1]["flops"]
        assert all(row["flops"] == row["flops_priced"] and row["evaluations"] >= 1
                   and row["seconds"] >= 0 for row in steps)
        code, _, err = run(capsys, "amplitude", "--circuit", str(circuit_file),
                           "--out", "0" * 12, "--oracle", "--trace", str(trace))
        assert code == 1 and "--trace" in err

    def test_oracle_mode_matches_engine(self, circuit_file, capsys):
        _, eng_out, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "000011110000", "--precision", "double",
        )
        _, orc_out, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "000011110000", "--oracle",
        )
        rec_e = json.loads(eng_out.splitlines()[-1])
        rec_o = json.loads(orc_out.splitlines()[-1])
        assert rec_o["oracle"] is True
        assert rec_e["re"] == pytest.approx(rec_o["re"], abs=1e-10)
        assert rec_e["im"] == pytest.approx(rec_o["im"], abs=1e-10)


class TestSample:
    def test_file_layout_and_reproducibility(self, circuit_file, tmp_path, capsys):
        outs = []
        for name in ("s1.txt", "s2.txt"):
            p = tmp_path / name
            code = cli.main(
                ["sample", "--circuit", str(circuit_file), "--target", "20",
                 "--c-sites", "4,5,6,7,8,9,10,11", "--n-c", "16",
                 "--seed", "5", "--precision", "double", "-o", str(p)]
            )
            capsys.readouterr()
            assert code == 0
            outs.append(p.read_text().splitlines())
        # everything but the footer's wall-time rate is reproducible
        footers = [json.loads(lines.pop()) for lines in outs]
        assert all(f.pop("batches_per_s") > 0 for f in footers)
        assert outs[0] == outs[1] and footers[0] == footers[1]
        lines = outs[0]
        assert lines[0].startswith("# config:")
        bitstrings = [l for l in lines if not l.startswith(("#", "{"))]
        assert len(bitstrings) == 20
        assert all(len(b) == 12 for b in bitstrings)
        assert footers[0]["N_C"] == 16


class TestVerify:
    def test_passes_on_consistent_engine(self, circuit_file, capsys):
        code, out, _ = run(
            capsys, "verify", "--circuit", str(circuit_file), "--samples", "5",
            "--precision", "double", "--tol", "1e-8",
        )
        assert code == 0
        rep = json.loads(out.splitlines()[-1])
        assert rep["pass"] is True
        assert rep["max_abs_diff"] <= 1e-8

    def test_reports_reference_and_engine_seconds(self, circuit_file, capsys):
        code, out, _ = run(
            capsys, "verify", "--circuit", str(circuit_file), "--samples", "3",
            "--precision", "double",
        )
        assert code == 0
        rep = json.loads(out.splitlines()[-1])
        assert rep["reference_s"] > 0
        assert rep["engine_s"] > 0

    @pytest.mark.parametrize("text", [
        "4\n" + "".join(f"0 h {q}\n3 h {q}\n" for q in range(4))
        + "1 cz 0 1\n2 cz 0 1\n",                      # one edge, one window
        "4\n1 cz 0 1\n2 x_1_2 0\n3 cz 2 3\n",       # no H layers
    ], ids=["two-gates-one-window", "no-h-layers"])
    def test_files_the_generator_would_not_write(self, tmp_path, capsys, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--circuit", str(path),
                             "--precision", "double", "--tol", "1e-12")
        assert code == 0, err
        assert json.loads(out.splitlines()[-1])["max_abs_diff"] <= 1e-12

    def test_fails_with_impossible_tolerance(self, circuit_file, capsys):
        code, _, err = run(
            capsys, "verify", "--circuit", str(circuit_file), "--samples", "5",
            "--tol", "1e-30",
        )
        assert code == 2
        assert err


class TestComplexity:
    def test_pinned_value_prints_65(self, capsys):
        code, out, _ = run(
            capsys, "complexity", "--lattice", "grid:8x8",
            "--depth", "1+32+1", "--scheme", "bi",
        )
        assert code == 0
        value_lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert value_lines == ["65"]

    def test_table_mode(self, capsys):
        code, out, _ = run(
            capsys, "complexity", "--lattice", "grid:4x4",
            "--depth", "1+16+1", "--table",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "scheme,params,cost_log2"
        assert len(rows) > 3


class TestAnalyze:
    def test_pt_csv(self, circuit_file, tmp_path, capsys):
        amp_file = tmp_path / "amps.jsonl"
        cli.main(
            ["amplitude", "--circuit", str(circuit_file), "--s-ab", "0" * 12,
             "--c-sites", "4,5,6,7,8,9,10,11", "--n-c", "256",
             "--precision", "double", "-o", str(amp_file)]
        )
        capsys.readouterr()
        # pre-check needs >= 1000 probabilities: run 4 more batches
        with amp_file.open("a") as fh:
            for v in range(1, 4):
                tmp = tmp_path / f"a{v}.jsonl"
                cli.main(
                    ["amplitude", "--circuit", str(circuit_file),
                     "--s-ab", format(v, "04b") + "0" * 8,
                     "--c-sites", "4,5,6,7,8,9,10,11", "--n-c", "256",
                     "--precision", "double", "-o", str(tmp)]
                )
                capsys.readouterr()
                fh.write(tmp.read_text())
        code, out, _ = run(
            capsys, "analyze", "pt", "--amplitudes", str(amp_file),
            "--bins", "30",
        )
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("# ks_stat:") for l in lines)
        csv_rows = [l for l in lines if not l.startswith("#")]
        assert csv_rows[0] == "x,empirical_density,reference_density"
        assert len(csv_rows) == 31

    def test_pearson_csv(self, circuit_file, capsys):
        code, out, _ = run(
            capsys, "analyze", "pearson", "--circuit", str(circuit_file),
            "--batches", "50", "--n-c", "4", "--precision", "double",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "hamming,mean_r,std_r"

    def test_xeb_report(self, circuit_file, tmp_path, capsys):
        sample_file = tmp_path / "s.txt"
        cli.main(
            ["sample", "--circuit", str(circuit_file), "--target", "200",
             "--c-sites", "4,5,6,7,8,9,10,11", "--n-c", "32", "--seed", "2",
             "--precision", "double", "-o", str(sample_file)]
        )
        capsys.readouterr()
        code, out, _ = run(
            capsys, "analyze", "xeb", "--samples", str(sample_file),
            "--circuit", str(circuit_file),
        )
        assert code == 0
        rep = json.loads(out.splitlines()[-1])
        assert "xeb_fidelity" in rep
        assert rep["samples"] == 200
        # exact amplitudes, f=1 sampling: estimator should sit near 1
        assert abs(rep["xeb_fidelity"] - 1.0) < 0.5


class TestBench:
    def test_permute_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "permute", "--rank", "10", "--gammas", "5",
            "--repeats", "2",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0].startswith("op,")
        assert any(r.startswith("lmove") for r in rows)

    @pytest.mark.parametrize("argv,flag", [
        (["--rank", "6", "--gammas", "5"], "--gammas"),
        (["--gammas", "1"], "--gammas"),
        (["--rank", "0"], "--gammas"),
        (["--repeats", "0"], "--repeats"),
        (["--threads", "0"], "--threads"),
        (["--threads", "1,-2"], "--threads"),
        (["--rank", "12", "--gammas", "7:5", "--repeats", "1"], "--gammas"),
    ])
    def test_permute_out_of_range_is_1(self, capsys, monkeypatch, argv, flag):
        """Refused before any timing: a body of fewer than two indexes
        left the random permutation drawing forever."""
        def unreachable(**kwargs):
            raise AssertionError("benchmark ran")

        monkeypatch.setattr(cli, "benchmark_permute", unreachable)
        code, out, err = run(capsys, "bench", "permute", *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and flag in err


class TestMemoryBudget:
    """The budget prices the run that happens: its precision and the
    sites a batch leaves open."""

    def test_precision_is_priced(self, capsys):
        amps = []
        for extra in (["--memory-budget", "11M"],
                      ["--precision", "double", "--memory-budget", "22M"]):
            code, out, err = run(
                capsys, "amplitude", "--lattice", "grid:5x5", "--depth",
                "1+24+1", "--out", "0" * 25, *extra,
            )
            assert code == 0, err
            rec = json.loads(out.splitlines()[1])
            assert rec["paths"] == 8 ** 3  # one cut more than the default two
            amps.append(complex(rec["re"], rec["im"]))
        assert abs(amps[0] - amps[1]) <= 1e-4 * abs(amps[1])

    def test_open_sites_are_priced(self, capsys):
        code, out, err = run(
            capsys, "amplitude", "--lattice", "grid:4x4", "--depth", "1+24+1",
            "--s-ab", "0" * 16, "--n-c", "4", "--memory-budget", "2M",
        )
        assert code == 0, err
        assert json.loads(out.splitlines()[1])["paths"] == 8 ** 3

    def test_budget_keeps_the_cheaper_placement_that_fits(self, capsys):
        """grid:3x4 1+16+1 prices C early at fewer flops but a larger peak
        (32,264 against 31,112 bytes), so a budget between the two keeps C
        last and the amplitude is unchanged."""
        argv = ("amplitude", "--lattice", "grid:3x4", "--depth", "1+16+1",
                "--out", "0" * 12)
        runs = {}
        for budget in ((), ("--memory-budget", "32000")):
            code, out, err = run(capsys, *argv, *budget)
            assert code == 0, err
            cfg, rec = (json.loads(line) for line in out.splitlines())
            runs[budget] = cfg["config"], complex(rec["re"], rec["im"])
        (free, amp_free), (capped, amp_capped) = runs.values()
        assert (free["c_joins"], capped["c_joins"]) == ("B0C", "result")
        assert free["plan_flops"] < capped["plan_flops"]
        assert capped["plan_peak_bytes"] <= 32000 < free["plan_peak_bytes"]
        assert abs(amp_free - amp_capped) <= 1e-4 * abs(amp_free)

    def test_bristlecone_over_budget_in_both_placements_is_2(self, capsys):
        code, out, err = run(
            capsys, "amplitude", "--lattice", "bristlecone-24", "--depth",
            "1+16+1", "--out", "0" * 24, "--memory-budget", "5K",
        )
        assert code == 2 and not out
        assert "plan for bristlecone-24 needs ~6056 bytes" in err


@st.composite
def edited_circuits(draw):
    """A generated circuit on a grid of at most 3x4 sites, with two-qubit
    gates deleted, added or swapped between CZ and iSWAP."""
    rows, cols = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]))
    lat = Lattice.rectangle(rows, cols)
    t = draw(st.integers(1, 16))
    circ = generate_rqc(lat, f"1+{t}+1", seed=draw(st.integers(0, 9)),
                        two_qubit_gate=draw(st.sampled_from(["cz", "iswap"])))
    gates = list(circ.gates)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["delete", "add", "swap"]))
        pairs = [i for i, g in enumerate(gates) if len(g.qubits) == 2]
        if kind == "add":
            cycle = draw(st.integers(1, t))
            a, b = draw(st.sampled_from(lat.edges()))
            busy = {q for g in gates if g.cycle == cycle for q in g.qubits}
            if not busy & {a, b}:
                gates.append(Gate(cycle, draw(st.sampled_from(["cz", "iswap"])),
                                  (a, b)))
        elif pairs:
            i = draw(st.sampled_from(pairs))
            g = gates.pop(i)
            if kind == "swap":
                gates.insert(i, Gate(g.cycle, {"cz": "iswap", "iswap": "cz"}[g.name],
                                     g.qubits))
    return Circuit(lat, circ.depth, gates, meta=circ.meta)


class TestPlanChoice:
    """The automatic plan is priced for the run that happens, and the
    config echo and records report what ran."""

    def test_closed_amplitude_joins_c_early(self, capsys):
        code, out, err = run(
            capsys, "amplitude", "--lattice", "grid:6x6", "--depth", "1+16+1",
            "--out", "0" * 36,
        )
        assert code == 0, err
        cfg, rec = (json.loads(line) for line in out.splitlines())
        cfg = cfg["config"]
        assert cfg["c_joins"] == "B0C"
        assert (rec["flops"], rec["peak_bytes"]) == \
            (cfg["plan_flops"], cfg["plan_peak_bytes"])
        assert rec["flops"] < 10 ** 9

    def test_open_c_on_shallow_grid_keeps_c_last(self, capsys):
        code, out, err = run(
            capsys, "amplitude", "--lattice", "grid:6x6", "--depth", "1+8+1",
            "--s-ab", "0" * 36, "--n-c", "4",
        )
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        cfg = lines[0]["config"]
        assert cfg["c_joins"] == "result"
        assert all((rec["flops"], rec["peak_bytes"]) ==
                   (cfg["plan_flops"], cfg["plan_peak_bytes"])
                   for rec in lines[1:])

    def test_iswap_budget_is_priced_before_contracting(self, tmp_path, capsys,
                                                        monkeypatch):
        """An iSWAP circuit's bonds are priced at rank 4, so a budget its
        default plan cannot meet is refused up front, not mid-run."""
        path = tmp_path / "iswap.txt"
        assert cli.main(["gen", "--lattice", "grid:4x4", "--depth", "1+16+1",
                         "--two-qubit-gate", "iswap", "-o", str(path)]) == 0
        capsys.readouterr()
        calls = []
        contract_arrays = contraction_plan.contract_arrays
        monkeypatch.setattr(contraction_plan, "contract_arrays",
                            lambda *a: calls.append(1) or contract_arrays(*a))
        code, _, err = run(capsys, "amplitude", "--circuit", str(path),
                           "--out", "0" * 16, "--memory-budget", "1M")
        assert code == 2
        assert "plan for grid:4x4 needs ~" in err and "budget is 1048576" in err
        assert not calls

    def test_file_with_gates_removed_is_priced_on_its_own_gates(
            self, tmp_path, capsys):
        """A grid:3x4 1+16+1 file with its first six CZ lines removed: the
        generated layout's plan priced on the file's gates is what its
        executor counts and holds, and the plan chosen for the file
        echoes what its record reports."""
        lines = write_circuit(generate_rqc(Lattice.named("grid:3x4"),
                                           "1+16+1", seed=0)).splitlines()
        cz = [i for i, line in enumerate(lines) if " cz " in line][:6]
        text = "\n".join(l for i, l in enumerate(lines) if i not in cz) + "\n"
        circ = parse_circuit(text)
        lat = circ.lattice
        layout_plan = contraction_plan.builtin_plan(lat, "1+16+1")
        est = contraction_plan.estimate_cost(layout_plan, lat, circ)
        assert (est.total_flops, est.peak_bytes) == (51_456, 17_544)
        _, stats = AmplitudeEngine(circ, layout_plan).amplitude(0, 0)
        assert (stats.flops, stats.peak_bytes) == (51_456, 17_544)

        path = tmp_path / "c.txt"
        path.write_text(text)
        code, out, err = run(capsys, "amplitude", "--circuit", str(path),
                             "--out", "0" * 12)
        assert code == 0, err
        cfg, rec = (json.loads(line) for line in out.splitlines())
        assert (cfg["config"]["plan_flops"], cfg["config"]["plan_peak_bytes"]) \
            == (rec["flops"], rec["peak_bytes"]) == (45_824, 17_416)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), batch=st.booleans(), double=st.booleans())
    def test_edited_files_are_priced_on_their_own_gates(
            self, tmp_path, capsys, data, batch, double):
        """Generated circuits on grids up to 3x4 with two-qubit gates
        deleted, added (on any free edge, any cycle) or swapped between CZ
        and iSWAP: the estimate is what the executor counts and holds, the
        config echo is what the records report, and the amplitudes are the
        dense state's."""
        circ = data.draw(edited_circuits())
        c_sites = contraction_plan.builtin_plan(circ.lattice).batch_sites
        batch = batch and bool(c_sites)
        open_sites = c_sites if batch else ()
        dtype = np.complex128 if double else np.complex64
        plan = contraction_plan.builtin_plan(
            circ.lattice, circ, open_sites=open_sites,
            itemsize=np.dtype(dtype).itemsize)
        est = contraction_plan.estimate_cost(
            plan, circ.lattice, circ, open_sites=open_sites,
            itemsize=np.dtype(dtype).itemsize)
        engine = AmplitudeEngine(circ, plan, dtype=dtype)
        if batch:
            stats = engine.amplitude_batch(0, 0, c_sites, 1).stats
        else:
            stats = engine.amplitude(0, 0)[1]
        assert (est.total_flops, est.peak_bytes) == \
            (stats.flops, stats.peak_bytes)

        path = tmp_path / "c.txt"
        path.write_text(write_circuit(circ))
        out_arg = ("--s-ab", "0" * circ.n) if batch else ("--out", "0" * circ.n)
        code, out, err = run(capsys, "amplitude", "--circuit", str(path),
                             "--precision", "double" if double else "single",
                             *out_arg)
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        cfg = lines[0]["config"]
        state = oracle.evolve(circ)
        for rec in lines[1:]:
            assert (rec["flops"], rec["peak_bytes"]) == \
                (cfg["plan_flops"], cfg["plan_peak_bytes"])
            amp = complex(rec["re"], rec["im"])
            assert abs(amp - state[int(rec["out"], 2)]) <= \
                (1e-12 if double else 1e-5)

    def test_named_plan_is_priced_like_auto(self, capsys):
        """``--plan bristlecone-24`` is that lattice's builtin plan priced
        for the run, so it echoes what ``--plan auto`` echoes."""
        echoes = []
        for plan in ("auto", "bristlecone-24"):
            code, out, err = run(
                capsys, "amplitude", "--lattice", "bristlecone-24", "--depth",
                "1+32+1", "--out", "0" * 24, "--plan", plan)
            assert code == 0, err
            cfg = json.loads(out.splitlines()[0])["config"]
            echoes.append((cfg["plan_flops"], cfg["plan_peak_bytes"],
                           cfg["c_joins"]))
        assert echoes[0] == echoes[1] == (74_481_664, 759_944, "B0C")


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "gen", "--lattice", "pentagon:9")[0] == 1
        assert run(capsys, "frobnicate")[0] == 1

    def test_conflicting_sources_is_1(self, circuit_file, capsys):
        code, _, _ = run(
            capsys, "amplitude", "--circuit", str(circuit_file),
            "--lattice", "grid:2x2", "--depth", "1+4+1", "--out", "0000",
        )
        assert code == 1

    def test_gates_past_the_depth_header_is_1(self, tmp_path, capsys):
        """A file whose depth header is shorter than its gates is refused,
        not run without the gates past it."""
        path = tmp_path / "c.txt"
        path.write_text("4\n# depth: 1+1+1\n0 h 0\n1 cz 0 1\n2 h 0\n3 cz 2 3\n")
        for command, *extra in (("amplitude", "--out", "0000"), ("verify",)):
            code, _, err = run(capsys, command, "--circuit", str(path), *extra)
            assert code == 1
            assert "line 6: cz at cycle 3 outside cycles 1..1" in err

    def test_memory_budget_error_is_2(self, circuit_file, capsys):
        code, _, err = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "0" * 12, "--memory-budget", "1K",
        )
        assert code == 2

    def test_plan_lattice_mismatch_is_1(self, capsys):
        code, _, err = run(
            capsys, "amplitude", "--lattice", "grid:3x3", "--depth", "1+8+1",
            "--plan", "bristlecone-24", "--out", "0" * 9,
        )
        assert code == 1
        assert "plan lattice bristlecone-24 does not match" in err

    def test_plan_missing_a_site_is_1(self, tmp_path, capsys):
        """grid:3x3's builtin plan without its C site: refused with a plan
        error, not priced and run."""
        plan = contraction_plan.builtin_plan(Lattice.named("grid:3x3"))
        text = contraction_plan.format_plan(plan)
        path = tmp_path / "short.plan"
        path.write_text(text.replace("contract t8 -> C reuse=global\n", "")
                        .replace("contract AB C -> result", "contract AB -> result"))
        code, out, err = run(capsys, "amplitude", "--lattice", "grid:3x3",
                             "--depth", "1+8+1", "--plan", str(path),
                             "--out", "0" * 9)
        assert code == 1 and not out
        assert "never consumes site tensors [8]" in err

    def test_repeated_cut_value_is_1(self, tmp_path, capsys):
        """A value listed twice would count its path twice: on grid:3x3's
        one-cut plan, values=0,1,0,1 doubled the 1+8+1 amplitude."""
        plan = contraction_plan.grid_plan(Lattice.named("grid:3x3"))
        text = contraction_plan.format_plan(plan)
        path = tmp_path / "twice.plan"
        path.write_text(text.replace("cut w0 1:2", "cut w0 1:2 values=0,1,0,1"))
        assert path.read_text() != text
        code, out, err = run(capsys, "amplitude", "--lattice", "grid:3x3",
                             "--depth", "1+8+1", "--plan", str(path),
                             "--out", "0" * 9)
        assert code == 1 and not out
        assert "value twice" in err

    def test_out_of_memory_is_2(self, circuit_file, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(contraction_plan, "contract_arrays", no_memory)
        code, _, err = run(
            capsys, "amplitude", "--circuit", str(circuit_file), "--out",
            "0" * 12,
        )
        assert code == 2
        assert err.startswith("resource error: Unable to allocate")

    @pytest.mark.parametrize("header", ["0", "-4", "1"])
    def test_qubit_count_below_two_is_1(self, tmp_path, capsys, header):
        path = tmp_path / "c.txt"
        path.write_text(header + "\n")
        code, _, err = run(capsys, "amplitude", "--circuit", str(path),
                           "--out", "0")
        assert code == 1
        assert err.startswith("error:") and "at least 2" in err

    @pytest.mark.parametrize("argv", [
        ("--n-c", "1000"),          # more completions than 2^|C|
        ("--n-c", "0"),             # not replaced by the default
        ("--c-sites", "1,1"),
        ("--c-sites", "8,9"),       # 9 is past the last of 9 sites
        ("--c-sites", "99"),
        ("--threads", "0"),
    ], ids=["n-c-over", "n-c-zero", "c-sites-twice", "c-sites-past-n",
            "c-sites-far-out", "threads-zero"])
    def test_bad_batch_arguments_are_1(self, capsys, argv):
        code, out, err = run(capsys, "amplitude", "--lattice", "grid:3x3",
                             "--depth", "1+8+1", *argv)
        assert code == 1, err
        assert err.startswith("error:") and not out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_threads_env_is_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RQCSIM_THREADS", value)
        code, out, err = run(capsys, "amplitude", "--lattice", "grid:3x3",
                             "--depth", "1+8+1", "--out", "0" * 9)
        assert code == 1, err
        assert err.startswith("error:") and "RQCSIM_THREADS" in err and not out

    @pytest.mark.parametrize("argv", [("--batches", "0"), ("--n-c", "1000")],
                             ids=["batches-zero", "n-c-over"])
    def test_bad_pearson_counts_are_1(self, capsys, argv):
        """pearson reads --n-c as amplitude and sample do: a count above
        the 2^|C| completions is refused, not clamped."""
        code, _, err = run(capsys, "analyze", "pearson", "--lattice",
                           "grid:3x3", "--depth", "1+8+1", *argv)
        assert code == 1
        assert err.startswith("error:")

    def test_oversized_lattice_is_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--lattice", "grid:100000x100000",
                           "--depth", "1+8+1")
        assert code == 1 and err.startswith("error:")
        path = tmp_path / "huge.txt"
        path.write_text("1000000007\n0 h 0\n")
        code, _, err = run(capsys, "amplitude", "--circuit", str(path),
                           "--out", "0")
        assert code == 1 and "at most" in err

    def test_help_is_0(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_oracle_size_cap_is_2(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        cli.main(["gen", "--lattice", "grid:6x5", "--depth", "1+4+1",
                  "-o", str(big)])
        capsys.readouterr()
        code, _, err = run(
            capsys, "verify", "--circuit", str(big), "--samples", "1",
        )
        # 30 qubits exceeds the reference-simulator cap
        assert code == 2


def _amplitude_lines(n_bits: int, odd_record=None) -> str:
    """1200 amplitude records on ``n_bits`` qubits, enough for ``analyze
    pt``; with ``odd_record`` the last record is that one."""
    rng = np.random.default_rng(0)
    outs = [format(i % 2 ** n_bits, f"0{n_bits}b") for i in range(1200)]
    amps = rng.normal(size=(1200, 2)) * 2 ** (-n_bits / 2)
    records = [{"in": "0" * n_bits, "out": out, "re": re, "im": im}
               for out, (re, im) in zip(outs, amps)]
    if odd_record is not None:
        records[-1] = odd_record
    return "".join(json.dumps(record) + "\n" for record in records)


GRID_2X3 = ("--lattice", "grid:2x3", "--depth", "1+8+1")


class TestOutOfRangeArguments:
    """Arguments no run can honour are usage errors (exit 1, an ``error:``
    line, nothing on stdout), not a vacuous success, a numerical error or
    a traceback."""

    @pytest.mark.parametrize("argv", [
        ("verify", *GRID_2X3, "--samples", "0"),
        ("verify", *GRID_2X3, "--samples", "-3"),
        ("verify", *GRID_2X3, "--tol", "-1"),
        ("verify", *GRID_2X3, "--tol", "nan"),
        ("sample", *GRID_2X3, "--target", "5", "--max-batches", "0"),
        ("sample", *GRID_2X3, "--target", "5", "--max-batches", "-2"),
        ("analyze", "pearson", *GRID_2X3, "--batches", "1"),
    ], ids=["samples-0", "samples-neg", "tol-neg", "tol-nan", "max-batches-0",
            "max-batches-neg", "pearson-one-batch"])
    def test_count_or_tolerance_out_of_range_is_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error:")

    @pytest.mark.parametrize("bins,odd_record", [
        ("0", None), ("-5", None),
        ("20", {"out": "00000", "re": 0.1, "im": 0.0}),
        ("20", {"re": 0.1, "im": 0.0}),
        ("20", {"out": "000201", "re": 0.1, "im": 0.0}),
        ("20", {"out": "000000", "re": "x", "im": 0.0}),
        ("20", {"out": "000000", "re": 0.1}),
        ("20", {"out": "000000", "re": float("nan"), "im": 0.0}),
    ], ids=["bins-0", "bins-neg", "mixed-lengths", "no-out", "non-binary-out",
            "re-not-a-number", "no-im", "re-nan"])
    def test_pt_bins_or_mixed_outputs_is_1(self, tmp_path, capsys, bins,
                                           odd_record):
        path = tmp_path / "amps.jsonl"
        path.write_text(_amplitude_lines(6, odd_record))
        code, out, err = run(capsys, "analyze", "pt", "--amplitudes",
                             str(path), "--bins", bins)
        assert code == 1 and not out
        assert err.startswith("error:")

    def test_pt_accepts_the_same_file_with_valid_bins(self, tmp_path, capsys):
        path = tmp_path / "amps.jsonl"
        path.write_text(_amplitude_lines(6))
        code, out, _ = run(capsys, "analyze", "pt", "--amplitudes", str(path),
                           "--bins", "20")
        assert code == 0 and "# count: 1200" in out

    @pytest.mark.parametrize("line", ["0101", "1111111", "01012"],
                             ids=["short", "long", "non-binary"])
    def test_xeb_malformed_sample_is_1(self, tmp_path, capsys, line):
        path = tmp_path / "s.txt"
        path.write_text(f"000000\n{line}\n")
        code, out, err = run(capsys, "analyze", "xeb", "--samples", str(path),
                             *GRID_2X3)
        assert code == 1 and not out
        assert err.startswith("error:")

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dirdense.bench import (
    CSV_HEADER,
    RunConfig,
    compare_reports,
    gen_pref_attach,
    parse_report_csv,
    parse_snap_edgelist,
    read_report_csv,
    report_csv_text,
    run_experiment,
    write_report_csv,
)
from dirdense.cli import main as cli_main


class TestParseSnapEdgelist:
    def test_comment_and_edge(self):
        g, labels = parse_snap_edgelist("# c\n0 1\n")
        assert g.n == 2 and g.m == 1
        assert labels == [0, 1]

    def test_self_loop_remaps_to_single_vertex(self):
        g, labels = parse_snap_edgelist("5 5\n")
        assert g.n == 1 and g.m == 1
        assert labels == [5]
        assert g.edges() == [(0, 0)]

    def test_parallel_edges_preserved(self):
        g, _ = parse_snap_edgelist("0 1\n0 1\n")
        assert g.m == 2

    def test_remap_is_first_appearance_order(self):
        g, labels = parse_snap_edgelist("70 30\n30 10\n")
        assert labels == [70, 30, 10]
        assert g.edges() == [(0, 1), (1, 2)]

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_snap_edgelist("0 1\n\n0 1 2\n")

    def test_non_integer_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_snap_edgelist("0 1\na b\n")

    def test_blank_lines_and_whitespace(self):
        g, _ = parse_snap_edgelist("  0\t1 \n\n#x\n1 2\n")
        assert g.m == 2


class TestGenPrefAttach:
    def test_two_vertices_all_edges_to_seed(self):
        g = gen_pref_attach(2, 3, seed=0)
        assert g.edges() == [(1, 0), (1, 0), (1, 0)]

    def test_edge_count_is_exact(self):
        g = gen_pref_attach(57, 4, seed=1)
        assert g.m == 4 * 56

    def test_seed_determinism(self):
        a = gen_pref_attach(40, 3, seed=9)
        b = gen_pref_attach(40, 3, seed=9)
        assert a.edges() == b.edges()
        c = gen_pref_attach(40, 3, seed=10)
        assert a.edges() != c.edges()

    def test_no_self_loops_and_targets_precede_sources(self):
        g = gen_pref_attach(30, 2, seed=2)
        assert np.all(g.dst < g.src)

    def test_in_degree_tail_is_heavy(self):
        g = gen_pref_attach(10_000, 10, seed=3)
        degrees = np.sort(g.in_degrees())[::-1]
        top_share = degrees[: g.n // 100].sum() / g.m
        assert top_share >= 5 * 0.01

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_pref_attach(1, 3, seed=0)
        with pytest.raises(ValueError):
            gen_pref_attach(5, 0, seed=0)


class TestRunExperiment:
    def test_single_edge_baseline_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        cfg = RunConfig(algo="baseline", input_path=str(path), out=str(out))
        report = run_experiment(cfg)
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        assert text.endswith("\n")
        assert report.max_density() == 1.0

    def test_rerun_identical_except_wall(self, tmp_path):
        cfg = dict(algo="single-pass", gen="pref:n=60,k=3", seed=5, epsilon=0.2)
        a = report_csv_text(run_experiment(RunConfig(**cfg)))
        b = report_csv_text(run_experiment(RunConfig(**cfg)))
        strip = lambda text: re.sub(r",[0-9.]+,(\d+),$", r",WALL,\1,", text, flags=re.M)
        assert strip(a) == strip(b)

    def test_csv_round_trip_is_stable(self):
        report = run_experiment(RunConfig(algo="baseline", gen="pref:n=40,k=2", seed=3))
        text = report_csv_text(report)
        again = report_csv_text(parse_report_csv(text))
        assert again == text

    def test_csv_file_with_comma_in_path_is_read(self, tmp_path):
        report = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2", seed=1))
        out = tmp_path / "a,b.csv"
        write_report_csv(report, str(out))
        assert report_csv_text(read_report_csv(str(out))) == report_csv_text(report)

    def test_error_rows_round_trip(self, tmp_path, monkeypatch):
        import dirdense.csweep as sweep_mod

        real = sweep_mod.baseline_peel
        calls = {"count": 0}

        def flaky(g, params):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("boom, with a comma")
            if calls["count"] == 3:
                raise RuntimeError()
            return real(g, params)

        monkeypatch.setattr(sweep_mod, "baseline_peel", flaky)
        out = tmp_path / "r.csv"
        report = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2", out=str(out)))
        errors = [r.error for r in report.rows]
        assert errors[1:3] == ["boom, with a comma", "RuntimeError"]
        assert errors.count(None) == len(errors) - 2
        again = read_report_csv(str(out))
        assert [r.error for r in again.rows] == errors
        assert again.rows[1].density is None
        assert report_csv_text(again) == out.read_text()

    def test_single_c_override(self):
        report = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2",
                                          c=Fraction(1, 2)))
        assert len(report.rows) == 1
        assert report.rows[0].c == Fraction(1, 2)

    def test_exact_algo_single_row(self):
        report = run_experiment(RunConfig(algo="exact", gen="pref:n=12,k=2"))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.algo == "exact"
        assert row.density > 0

    def test_io_error_carries_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(OSError):
            run_experiment(RunConfig(algo="baseline", input_path=str(missing)))

    def test_parse_error_carries_path_context(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nx\n")
        with pytest.raises(ValueError, match="bad.txt.*line 2"):
            run_experiment(RunConfig(algo="baseline", input_path=str(bad)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(algo="baseline")  # no source
        with pytest.raises(ValueError):
            RunConfig(algo="baseline", gen="pref:n=9,k=1", input_path="x")
        with pytest.raises(ValueError):
            RunConfig(algo="baseline", gen="pref:n=9,k=1", epsilon=1.5)
        with pytest.raises(ValueError):
            RunConfig(algo="baseline", gen="pref:n=9,k=1", delta=1.0)

    @pytest.mark.parametrize("knobs", [{"c": Fraction(0)}, {"c": Fraction(-1)},
                                       {"workers": 0}, {"workers": -3}])
    def test_config_rejects_nonpositive_c_and_workers(self, knobs):
        with pytest.raises(ValueError):
            RunConfig(algo="single-pass", gen="pref:n=9,k=1", **knobs)


class TestCompareReports:
    def test_identical_reports_all_ones(self):
        r = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2"))
        summary = compare_reports(r, r)
        assert summary.max_density_ratio == 1.0
        assert all(row.ratio == 1.0 for row in summary.rows)

    def test_doubled_densities(self):
        r = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2"))
        import copy

        doubled = copy.deepcopy(r)
        for row in doubled.rows:
            row.density *= 2
        summary = compare_reports(r, doubled)
        assert summary.max_density_ratio == pytest.approx(2.0)

    def test_grid_mismatch_rejected(self):
        a = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2"))
        b = run_experiment(RunConfig(algo="baseline", gen="pref:n=60,k=2"))
        with pytest.raises(ValueError):
            compare_reports(a, b)


class TestCli:
    def test_generated_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = cli_main(["--gen", "pref:n=40,k=2", "--algo", "baseline",
                         "--out", str(out), "--seed", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "best:" in captured.out
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_stdout_csv_when_no_out(self, capsys):
        code = cli_main(["--gen", "pref:n=20,k=2", "--algo", "baseline", "--c", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out

    def test_input_file_run(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("# tiny\n0 1\n1 2\n")
        code = cli_main(["--input", str(path), "--algo", "exact"])
        assert code == 0

    @pytest.mark.parametrize("spec", ["pref:n=10,k=2,zz=5", "pref:n=10,k=2,n=50",
                                      "pref:n=10,k=2,k=3", "pref:n=10,k=2,=4"])
    def test_bad_gen_spec_is_rejected(self, spec, capsys):
        code = cli_main(["--gen", spec, "--algo", "baseline"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_input_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        code = cli_main(["--input", str(path), "--algo", "baseline"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--algo", "single-pass", "--c", "-1"],
        ["--algo", "single-pass", "--c", "0"],
        ["--algo", "multi-pass", "--c", "-0.5"],
        ["--algo", "mpc-super", "--c", "-1"],
        ["--algo", "mpc-near", "--c", "-2"],
        ["--algo", "baseline", "--c", "-1"],
        ["--algo", "baseline", "--workers", "0"],
        ["--algo", "single-pass", "--workers", "-3"],
        ["--algo", "mpc-near", "--mpc-budget", "0"],
        ["--algo", "mpc-near", "--mpc-budget", "-5"],
    ])
    def test_bad_knob_is_rejected(self, args, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(["--gen", "pref:n=200,k=3", "--out", str(out), *args])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_mpc_algo_smoke(self, capsys):
        code = cli_main(["--gen", "pref:n=30,k=2", "--algo", "mpc-super",
                         "--mpc-mu", "0.4", "--c", "1"])
        assert code == 0

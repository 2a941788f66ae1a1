import hashlib
import io
import math
import re
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirdense.bench import (
    ALGOS,
    CSV_HEADER,
    RunConfig,
    gen_pref_attach,
    parse_report_csv,
    parse_snap_edgelist,
    report_csv_text,
    run_experiment,
    write_report_csv,
)
from dirdense.cli import build_parser
from dirdense.csweep import RUNNERS, SweepResult, SweepRow, sweep
from dirdense.cli import main as cli_main
from dirdense.graph import DirectedGraph
from dirdense.mpc import SUPERLINEAR_MU, MpcConfig
from tests.support import (edge_list, in_degrees, load_perfbench_module, reference_parse_edgelist,
                           reference_pref_attach)

# well-formed edge-list lines, and adversarial pieces spliced into them: ids
# the bulk reader and int() may disagree on, every whitespace and line break
# str.splitlines knows, comments at line start and after data, blank lines
_GOOD_LINES = ("0 1\n", "12 -3\n", "5 5\n", "\t7  12 \n", "+4 007\n", "-0 9\n", "# c\n", "  # x\n", "\n")
_ODD_PIECES = (
    *"0123456789", "+", "-", "007", "1_0", "99999999999999999999", "\u0663",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
    "#", "\n#", " # note", "\n\n",
)


@st.composite
def _edge_list_texts(draw):
    """Well-formed lines with up to three adversarial pieces spliced in anywhere."""
    text = "".join(draw(st.lists(st.sampled_from(_GOOD_LINES), max_size=12)))
    for piece in draw(st.lists(st.sampled_from(_ODD_PIECES), max_size=3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    return text


def _parse_outcome(parse, text):
    """Graph and labels as plain lists, or the error message."""
    try:
        g, labels = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.n, g.src.tolist(), g.dst.tolist(), labels, [type(x) for x in labels]


class TestParseSnapEdgelist:
    def test_comment_and_edge(self):
        g, labels = parse_snap_edgelist("# c\n0 1\n")
        assert g.n == 2 and g.m == 1
        assert labels == [0, 1]

    def test_self_loop_remaps_to_single_vertex(self):
        g, labels = parse_snap_edgelist("5 5\n")
        assert g.n == 1 and g.m == 1
        assert labels == [5]
        assert edge_list(g) == [(0, 0)]

    def test_parallel_edges_preserved(self):
        g, _ = parse_snap_edgelist("0 1\n0 1\n")
        assert g.m == 2

    def test_remap_is_first_appearance_order(self):
        g, labels = parse_snap_edgelist("70 30\n30 10\n")
        assert labels == [70, 30, 10]
        assert edge_list(g) == [(0, 1), (1, 2)]

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_snap_edgelist("0 1\n\n0 1 2\n")

    def test_non_integer_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_snap_edgelist("0 1\na b\n")

    def test_blank_lines_and_whitespace(self):
        g, _ = parse_snap_edgelist("  0\t1 \n\n#x\n1 2\n")
        assert g.m == 2

    @pytest.mark.parametrize("bad", ["0 x", "0 1 2"])
    def test_late_malformed_line_reports_its_number(self, bad):
        with pytest.raises(ValueError, match=r"^line 200001: "):
            parse_snap_edgelist("0 1\n" * 200_000 + bad + "\n1 2\n")

    def test_comment_after_data_is_rejected(self):
        with pytest.raises(ValueError, match=r"^line 1: expected two vertex ids, got '1 2 # note'$"):
            parse_snap_edgelist("1 2 # note\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n# a\n\t# b"])
    def test_no_edges_is_an_empty_graph(self, text):
        # recorded rather than raised: the parser catches warnings it turned
        # into errors itself, so only a record shows one that escaped
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g, labels = parse_snap_edgelist(text)
        assert caught == []
        assert (g.n, g.m, labels) == (0, 0, [])

    @pytest.mark.parametrize("text", ["70 30\n30 10\n", "1_0 2\n", "99999999999999999999 1\n"])
    def test_labels_are_python_ints(self, text):
        _, labels = parse_snap_edgelist(text)
        assert labels and all(type(x) is int for x in labels)

    def test_well_formed_text_is_read_in_bulk(self, monkeypatch):
        import dirdense.bench as bench_mod

        def no_line_loop(lines):
            raise AssertionError("line-by-line parser used")

        monkeypatch.setattr(bench_mod, "_parse_lines", no_line_loop)
        g, labels = parse_snap_edgelist("# c\n0 1\n  2\t3 \n\n  # x\n-4 +5\n3 007\n")
        assert labels == [0, 1, 2, 3, -4, 5, 7]
        assert edge_list(g) == [(0, 1), (2, 3), (4, 5), (3, 6)]

    def test_load_graph_hands_the_parser_an_unread_file(self, tmp_path, monkeypatch):
        # perfbench times set-up as the parser's span, so the read belongs in it
        import dirdense.bench as bench_mod

        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        seen = []
        real = bench_mod.parse_snap_edgelist

        def spy(fh):
            seen.append((isinstance(fh, io.TextIOBase), fh.tell()))
            return real(fh)

        monkeypatch.setattr(bench_mod, "parse_snap_edgelist", spy)
        g, _ = bench_mod._load_graph(RunConfig(algo="baseline", input_path=str(path)))
        assert seen == [(True, 0)]
        assert g.m == 2

    @given(_edge_list_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_by_line_reference(self, text):
        assert _parse_outcome(parse_snap_edgelist, text) == _parse_outcome(reference_parse_edgelist, text)
        for newline in (None, ""):
            ours = _parse_outcome(parse_snap_edgelist, io.StringIO(text, newline=newline))
            assert ours == _parse_outcome(reference_parse_edgelist, io.StringIO(text, newline=newline))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_edge_list_round_trips_in_bulk(self, seed, tmp_path, monkeypatch):
        import dirdense.bench as bench_mod

        g = gen_pref_attach(2000, 50, seed)
        path = tmp_path / "graph.txt"
        load_perfbench_module("run").write_edge_list(g, path)
        tabbed = "\n".join(map("{}\t{}".format, g.src.tolist(), g.dst.tolist()))
        monkeypatch.setattr(bench_mod, "_parse_lines", _no_line_parser)
        for text in (path.read_text(encoding="utf-8"), tabbed):
            outcome = _parse_outcome(parse_snap_edgelist, text)
            assert outcome == _parse_outcome(reference_parse_edgelist, text)
            _, src, dst, labels, _ = outcome
            labels = np.array(labels)
            assert np.array_equal(labels[src], g.src) and np.array_equal(labels[dst], g.dst)

    @pytest.mark.parametrize("text", [
        # malformed ids
        "1-2 3\n", "+-1 2\n", "3+ 4\n", "0 1\n+\n", "0 1\n-\n", "1 -\n", "- 1\n", "1 2-\n",
        # ids at and past the int64 limits
        "9223372036854775807 1\n", "-9223372036854775807 1\n", "-9223372036854775808 1\n",
        "9223372036854775808 1\n", "1 -9223372036854775809\n", "0 1\n99999999999999999999 1\n",
        "9223372036854775806 -9223372036854775807\n",
        # lines with 1, 3, 256 and 258 ids
        "0 1\n7\n2 3\n", "0 1\n1 2 3\n", "0 1\n" + " 5" * 256 + "\n", "0 1\n" + "\t5" * 258 + "\n",
        # a pair split across lines
        "1\n2\n",
        # comment bodies that hold line breaks of str.splitlines or a non-ASCII byte
        "# a\x0bb\n1 2\n", "# a\x1cb\n1 2\n", "# a\x85b\n1 2\n", "# a\rb\n1 2\n", "# a\r\n1 2\n",
    ])
    def test_bulk_guards_match_the_line_by_line_reference(self, text):
        for newline in (None, ""):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ours = [_parse_outcome(parse_snap_edgelist, text),
                        _parse_outcome(parse_snap_edgelist, io.StringIO(text, newline=newline))]
            assert caught == []
            assert ours == [_parse_outcome(reference_parse_edgelist, text),
                            _parse_outcome(reference_parse_edgelist, io.StringIO(text, newline=newline))]

    @pytest.mark.parametrize("step, sorts", [(1, False), (10**12, True)])
    def test_both_remaps_give_first_appearance_int_labels(self, step, sorts, monkeypatch):
        # ids 10**12 apart span far more than twice the id count, so only
        # they take the rank from np.unique's sort
        import dirdense.bench as bench_mod

        order = np.random.default_rng(7).permutation(300)
        ids = ((order - 150) * step).reshape(-1, 2)
        text = "".join(f"{u} {v}\n" for u, v in ids.tolist()) * 2
        unique_calls = []
        real_unique = np.unique

        def unique(*args, **kwargs):
            unique_calls.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "_parse_lines", _no_line_parser)
        monkeypatch.setattr(np, "unique", unique)
        g, labels = parse_snap_edgelist(text)
        assert bool(unique_calls) == sorts
        assert labels == ids.ravel().tolist() and all(type(x) is int for x in labels)
        assert _parse_outcome(parse_snap_edgelist, text) == _parse_outcome(reference_parse_edgelist, text)
        assert g.n == 300 and edge_list(g) == [(2 * i, 2 * i + 1) for i in range(150)] * 2


def _no_line_parser(lines):
    raise AssertionError("line-by-line parser used")


class TestGenPrefAttach:
    def test_two_vertices_all_edges_to_seed(self):
        g = gen_pref_attach(2, 3, seed=0)
        assert edge_list(g) == [(1, 0), (1, 0), (1, 0)]

    def test_edge_count_is_exact(self):
        g = gen_pref_attach(57, 4, seed=1)
        assert g.m == 4 * 56

    def test_seed_determinism(self):
        a = gen_pref_attach(40, 3, seed=9)
        b = gen_pref_attach(40, 3, seed=9)
        assert edge_list(a) == edge_list(b)
        c = gen_pref_attach(40, 3, seed=10)
        assert edge_list(a) != edge_list(c)

    def test_no_self_loops_and_targets_precede_sources(self):
        g = gen_pref_attach(30, 2, seed=2)
        assert np.all(g.dst < g.src)

    def test_in_degree_tail_is_heavy(self):
        g = gen_pref_attach(10_000, 10, seed=3)
        degrees = np.sort(in_degrees(g))[::-1]
        top_share = degrees[: g.n // 100].sum() / g.m
        assert top_share >= 5 * 0.01

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_pref_attach(1, 3, seed=0)
        with pytest.raises(ValueError):
            gen_pref_attach(5, 0, seed=0)

    # sha256 of src.tobytes() + dst.tobytes() of the acceptance fixtures; the
    # acceptance constants were calibrated on these graphs
    @pytest.mark.parametrize("n, k, seed, digest", [
        (10**3, 10, 101, "7507a3bf41be00f07c98a5ef3854a0d16b946c49246542954fd23fd8590f3ad2"),
        (10**4, 10, 8, "e90ddfd16577ba3857bd94e01e477230744b83fdd5991c0be1c23c95ef3c2147"),
        (2000, 500, 42, "9be2531bb9567cdc40ab1c3d0dc76e531f3d1779264881bc1905bb8ad917d930"),
        (10**5, 10, 101, "5c991b9711fc89c4cc5191aadb9121c0bcf4b6171b0c9bdb9bc964a3a9b06cd3"),
    ])
    def test_acceptance_fixture_fingerprints(self, n, k, seed, digest):
        g = gen_pref_attach(n, k, seed)
        assert hashlib.sha256(g.src.tobytes() + g.dst.tobytes()).hexdigest() == digest

    @given(st.integers(2, 3000), st.integers(1, 60), st.integers(0, 2**32))
    @example(2, 200, 0)
    @example(3, 257, 1)
    @example(300, 200, 5)
    @example(1000, 500, 9)
    @example(64, 1000, 3)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_vertex_reference(self, n, k, seed):
        g, ref = gen_pref_attach(n, k, seed), reference_pref_attach(n, k, seed)
        assert np.array_equal(g.src, ref.src) and np.array_equal(g.dst, ref.dst)


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
        assert report.best_density == 1.0

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
        again = parse_report_csv(out.read_text(encoding="utf-8"))
        assert report_csv_text(again) == report_csv_text(report)

    def test_error_rows_round_trip(self, tmp_path, monkeypatch):
        import dirdense.csweep as sweep_mod

        real = sweep_mod.baseline_peel
        calls = {"count": 0}

        def flaky(g, c, epsilon, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("boom, with a comma")
            if calls["count"] == 3:
                raise RuntimeError()
            return real(g, c, epsilon, **kwargs)

        monkeypatch.setattr(sweep_mod, "baseline_peel", flaky)
        out = tmp_path / "r.csv"
        report = run_experiment(RunConfig(algo="baseline", gen="pref:n=30,k=2", out=str(out)))
        errors = [r.error for r in report.rows]
        assert errors[1:3] == ["boom, with a comma", "RuntimeError"]
        assert errors.count(None) == len(errors) - 2
        again = parse_report_csv(out.read_text(encoding="utf-8"))
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
        assert report.algo == "exact"
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

    @pytest.mark.parametrize("knobs", [{"delta": math.inf}, {"delta": math.nan},
                                       {"f": math.inf}, {"f": math.nan}])
    def test_config_rejects_non_finite_delta_and_f(self, knobs):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(algo="single-pass", gen="pref:n=9,k=1", **knobs)

    @pytest.mark.parametrize("knobs", [{"c": Fraction(0)}, {"c": Fraction(-1)}, {"c": "x"},
                                       {"c": math.nan}, {"c": math.inf}, {"c": "1/0"}, {"c": True},
                                       {"workers": 0}, {"workers": -3}])
    def test_config_rejects_bad_c_and_workers(self, knobs):
        with pytest.raises(ValueError):
            RunConfig(algo="single-pass", gen="pref:n=9,k=1", **knobs)

    def test_config_reads_c_as_a_fraction(self):
        cfg = RunConfig(algo="single-pass", gen="pref:n=9,k=1", c="1/2")
        assert cfg.c == Fraction(1, 2) and type(cfg.c) is Fraction
        assert RunConfig(algo="single-pass", gen="pref:n=9,k=1", c=0.25).c == Fraction(1, 4)

    @pytest.mark.parametrize("algo", ["baseline", "single-pass", "mpc-near"])
    def test_config_rejects_unknown_stream_order(self, algo):
        with pytest.raises(ValueError, match="stream order 'bogus'"):
            RunConfig(algo=algo, gen="pref:n=9,k=1", stream_order="bogus")

    @pytest.mark.parametrize("knobs, message", [
        ({"algo": "bogus"}, "unknown algo 'bogus'"),
        ({"algo": "mpc-super", "mpc_mu": 2.0}, "mu in \\(0, 1\\)"),
        ({"algo": "mpc-near", "mpc_budget": -1.0}, "polylog_budget must be positive"),
    ])
    def test_config_rejects_unknown_algo_and_bad_mpc_settings(self, knobs, message, tmp_path):
        # the input file does not exist, so only a check before any load passes this test
        with pytest.raises(ValueError, match=message):
            RunConfig(input_path=str(tmp_path / "missing.txt"), **knobs)

    @pytest.mark.parametrize("algo, knob, value, owner", [
        (algo, knob, value, owner)
        for knob, value, owner in (("mpc_mu", 0.4, "mpc-super"), ("mpc_mu", 2.0, "mpc-super"),
                                   ("mpc_budget", 20.0, "mpc-near"), ("mpc_budget", -1.0, "mpc-near"))
        for algo in ALGOS if algo != owner
    ])
    def test_config_rejects_an_mpc_setting_its_algo_does_not_use(self, algo, knob, value, owner,
                                                                  tmp_path):
        # the input file does not exist, so only a check before any load passes this test
        with pytest.raises(ValueError, match=f"{knob} applies only to algo '{owner}', not '{algo}'"):
            RunConfig(algo=algo, input_path=str(tmp_path / "missing.txt"), **{knob: value})

    @pytest.mark.parametrize("c", [Fraction(1, 2), 10, "x"])
    def test_config_rejects_a_pinned_c_for_the_exact_oracle(self, c, tmp_path):
        # the oracle sweeps no c, so a pinned one would be silently ignored
        with pytest.raises(ValueError, match="c applies only to a sweep algo, not 'exact'"):
            RunConfig(algo="exact", input_path=str(tmp_path / "missing.txt"), c=c)

    def test_config_holds_the_mpc_config_its_algo_runs_with(self):
        cfg = RunConfig(algo="mpc-super", gen="pref:n=9,k=1", mpc_mu=0.4)
        assert cfg.mpc_config == MpcConfig("superlinear", mu=0.4)
        assert cfg.mpc_config is cfg.mpc_config
        default = RunConfig(algo="mpc-super", gen="pref:n=9,k=1")
        assert default.mpc_mu is None
        assert default.mpc_config == MpcConfig("superlinear", mu=SUPERLINEAR_MU)
        assert RunConfig(algo="mpc-near", gen="pref:n=9,k=1").mpc_config == MpcConfig("nearlinear")
        assert RunConfig(algo="baseline", gen="pref:n=9,k=1").mpc_config is None

    def test_benchmark_mpc_workloads_pass_only_their_own_setting(self):
        configs = {}
        for w in load_perfbench_module("workloads").WORKLOADS.values():
            argv = w.argv(0, Path("graph.txt"), Path("report.csv"))
            configs[w.algo] = RunConfig(**vars(build_parser().parse_args(argv))).mpc_config
        assert configs["mpc-super"] == MpcConfig("superlinear", mu=0.1)
        assert configs["mpc-near"] == MpcConfig("nearlinear", polylog_budget=20.0)
        assert configs["single-pass"] is None

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**63, 2**64])
    def test_config_rejects_seed_outside_the_seed_range(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**63), got {seed}")):
            RunConfig(algo="single-pass", gen="pref:n=9,k=1", seed=seed)
        RunConfig(algo="single-pass", gen="pref:n=9,k=1", seed=seed % 2**63)


def _row(c, density, error=None):
    """A report row without a pair: a success when density is set, else an error row."""
    if error is not None:
        return SweepRow(Fraction(c), None, None, None, None, None, None, 0.0, error)
    return SweepRow(Fraction(c), None, density, 1, 1, 10, 1, 1.0)


class TestParseReportCsv:
    _GOOD = "d,baseline,1/2,1.5,2,3,10,4,0.5,7,"

    def test_round_trips_dataset_algo_and_seed(self):
        report = parse_report_csv(f"{CSV_HEADER}\n{self._GOOD}\n")
        assert (report.dataset, report.algo, report.seed) == ("d", "baseline", 7)
        assert report.rows == [SweepRow(Fraction(1, 2), None, 1.5, 2, 3, 10, 4, 0.5)]

    @pytest.mark.parametrize("text, where", [
        ("", "line 1"),
        ("dataset,algo\n", "line 1"),
        (CSV_HEADER + "\n", "line 2"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1,2.0,0.1,7\n", "line 3: expected 11 fields, got 6"),
        (f"{CSV_HEADER}\nd,baseline,1/2,,,,,,0.0,0,\n", "line 2: .*exactly one of density and error"),
        (f"{CSV_HEADER}\nd,baseline,1/2,1.5,2,3,10,4,0.5,7,boom\n", "line 2: .*exactly one"),
        (f"{CSV_HEADER}\n{_GOOD}\ne,baseline,1,1.5,2,3,10,4,0.5,7,\n", "line 3: dataset, algo or seed"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,mpc-near,1,1.5,2,3,10,4,0.5,7,\n", "line 3: dataset, algo or seed"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1,1.5,2,3,10,4,0.5,8,\n", "line 3: dataset, algo or seed"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1/0,1.5,2,3,10,4,0.5,7,\n", "line 3"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1,x,2,3,10,4,0.5,7,\n", "line 3"),
        (f"{CSV_HEADER}\nd,baseline,1,1.5,2,3,10,4,0.5,seven,\n", "line 2"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1,1.5,2,3,10,4,0.5,-1,\n",
         re.escape("line 3: seed must lie in [0, 2**63), got -1")),
        (f"{CSV_HEADER}\nd,baseline,1,1.5,2,3,10,4,0.5,9223372036854775808,\n",
         re.escape("line 2: seed must lie in [0, 2**63), got 9223372036854775808")),
        (f"{CSV_HEADER}\nd,baseline,1,1.5,2,3,10,4,inf,7,\n", "line 2: wall_ms must be finite"),
        (f"{CSV_HEADER}\n{_GOOD}\nd,baseline,1,,,,,,nan,7,boom\n",
         "line 3: wall_ms must be finite"),
        (f"{CSV_HEADER}\nd,bogus-algo,1,1.5,2,3,10,4,0.5,7,\n", "line 2: unknown algo 'bogus-algo'"),
    ])
    def test_malformed_csv_is_rejected_naming_its_line(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_report_csv(text)

    @pytest.mark.parametrize("row, needs", [
        pytest.param("d,baseline,1/2,1.5,,,,,0.5,7,",
                     r"\|S\|, \|T\|, peak_edges and passes_or_rounds", id="blank-counts"),
        pytest.param("d,baseline,1/2,1.5,2,3,,4,0.5,7,", "peak_edges and passes_or_rounds",
                     id="blank-peak"),
        pytest.param("d,baseline,1/2,1.5,2,3,10,,0.5,7,", "peak_edges and passes_or_rounds",
                     id="blank-rounds"),
        pytest.param("d,baseline,-1/2,1.5,-3,0,,,-0.5,7,", "c > 0", id="negative-c-and-sizes"),
        pytest.param("d,baseline,0,1.5,2,3,10,4,0.5,7,", "c > 0", id="zero-c"),
        pytest.param("d,baseline,1/2,1.5,0,3,10,4,0.5,7,", r"\|S\| and \|T\| of at least 1",
                     id="empty-s"),
        pytest.param("d,baseline,1/2,1.5,2,-3,10,4,0.5,7,", r"\|S\| and \|T\| of at least 1",
                     id="negative-t"),
        pytest.param("d,baseline,1/2,nan,2,3,10,4,0.5,7,", "a finite density", id="nan-density"),
        pytest.param("d,baseline,1/2,inf,2,3,10,4,0.5,7,", "a finite density", id="inf-density"),
        pytest.param("d,baseline,1/2,-1.5,2,3,10,4,0.5,7,", "a finite density of at least 0",
                     id="negative-density"),
        pytest.param("d,baseline,1/2,1.5,2,3,-10,4,0.5,7,", "wall_ms of at least 0",
                     id="negative-peak"),
        pytest.param("d,baseline,1/2,1.5,2,3,10,-4,0.5,7,", "wall_ms of at least 0",
                     id="negative-rounds"),
        pytest.param("d,baseline,1/2,1.5,2,3,10,4,-0.5,7,", "wall_ms of at least 0",
                     id="negative-wall-ms"),
    ])
    def test_success_row_no_run_writes_is_rejected(self, row, needs):
        # a good row first, so a nan row cannot win best_row over it either
        text = f"{CSV_HEADER}\nd,baseline,1/4,2.0,2,3,10,4,0.5,7,\n{row}\n"
        with pytest.raises(ValueError, match=f"line 3: a success row needs .*{needs}"):
            parse_report_csv(text)

    def test_error_rows_keep_their_blank_counts(self):
        # a sweep over c = 0 writes an error row with that c and no counts
        report = sweep("baseline", DirectedGraph(2, [(0, 1)]), [Fraction(0)], epsilon=0.2)
        assert report.rows[0].error is not None
        again = parse_report_csv(report_csv_text(report))
        assert [(r.c, r.s_size, r.error) for r in again.rows] == [(0, None, report.rows[0].error)]


class TestBestRow:
    """``SweepResult.best_row`` is the one best-row rule: the densest row
    without an error, the earlier row on ties."""

    def test_tie_and_error_row(self):
        report = SweepResult("baseline", 0, [_row("1/4", 2.0), _row("1/2", None, "boom"),
                                             _row(1, 3.0), _row(2, 3.0), _row(4, 1.0)])
        assert report.best_row is report.rows[2]
        assert (report.best_row.c, report.best_pair, report.best_density) == (1, None, 3.0)
        again = parse_report_csv(report_csv_text(report))
        assert again.best_row.c == report.best_row.c

    def test_close_densities_keep_the_best_row_through_the_csv(self):
        # printed to 6 digits both read 1105.61, and the tie would go to c = 1
        report = SweepResult("baseline", 0, [_row(1, 1105.6081), _row(2, 1105.6083)])
        again = parse_report_csv(report_csv_text(report))
        assert report.best_row.c == again.best_row.c == 2
        assert [r.density for r in again.rows] == [1105.6081, 1105.6083]

    def test_no_successful_row(self):
        report = SweepResult("baseline", 0, [_row(1, None, "boom"), _row(2, None, "bang")])
        assert report.best_row is None
        assert (report.best_pair, report.best_density) == (None, 0.0)

    @pytest.mark.parametrize("algo", RUNNERS)
    def test_csv_and_cli_name_the_best_row(self, algo, capsys):
        argv = ["--gen", "pref:n=80,k=4", "--algo", algo, "--seed", "2", "--f", "0.05"]
        report = run_experiment(RunConfig(**vars(build_parser().parse_args(argv))))
        assert report.best_row is not None
        assert parse_report_csv(report_csv_text(report)).best_row.c == report.best_row.c
        assert cli_main(argv) == 0
        best = report.best_row
        assert capsys.readouterr().out.splitlines()[0] == (
            f"best: density={best.density:.6g} at c={best.c} "
            f"(|S|={best.s_size}, |T|={best.t_size})")


class TestCli:
    def test_generated_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = cli_main(["--gen", "pref:n=40,k=2", "--algo", "baseline",
                         "--out", str(out), "--seed", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "best:" in captured.out
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_generated_run_rejects_a_negative_seed(self, capsys):
        code = cli_main(["--gen", "pref:n=20,k=2", "--algo", "baseline", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must lie in [0, 2**63), got -1\n"

    def test_a_sweep_without_a_successful_row_exits_1(self, monkeypatch, capsys):
        import dirdense.csweep as sweep_mod

        def failing(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweep_mod, "baseline_peel", failing)
        code = cli_main(["--gen", "pref:n=20,k=2", "--algo", "baseline"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("boom\nno successful rows\n")

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
                                      "pref:n=10,k=2,k=3", "pref:n=10,k=2,=4", "er:n=10,p=0.1",
                                      "pref:n=10", "pref:k=2"])
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
        ["--algo", "single-pass", "--delta", "inf"],
        ["--algo", "single-pass", "--delta", "nan"],
        ["--algo", "single-pass", "--f", "inf"],
        ["--algo", "single-pass", "--f", "1e308"],
        ["--algo", "single-pass", "--f", "nan"],
        ["--algo", "mpc-super", "--f", "1e308"],
        ["--algo", "baseline", "--epsilon", "1e-300"],
        ["--algo", "multi-pass", "--epsilon", "1e-300"],
        ["--algo", "mpc-near", "--mpc-budget", "inf"],
    ])
    def test_bad_knob_is_rejected(self, args, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(["--gen", "pref:n=200,k=3", "--out", str(out), *args])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["1/0", "x"])
    def test_bad_ratio_guess_is_a_usage_error(self, c, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--gen", "pref:n=30,k=2", "--algo", "baseline", "--c", c])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --c: invalid Fraction value: {c!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["--algo", "mpc-super", "--mpc-budget", "-1"],
        ["--algo", "mpc-near", "--mpc-mu", "0.4"],
        ["--algo", "single-pass", "--mpc-mu", "0.4"],
        ["--algo", "baseline", "--mpc-budget", "20"],
    ])
    def test_an_mpc_flag_for_another_algo_is_rejected(self, args, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(["--gen", "pref:n=200,k=3", "--out", str(out), *args])
        assert code == 2
        assert "applies only to algo" in capsys.readouterr().err
        assert not out.exists()

    def test_a_pinned_c_for_the_exact_oracle_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(["--gen", "pref:n=12,k=2", "--algo", "exact", "--c", "1/2",
                         "--out", str(out)])
        assert code == 2
        assert "error: c applies only to a sweep algo, not 'exact'" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_states_no_defaults_and_only_config_fields(self):
        parser = build_parser()
        args = parser.parse_args(["--gen", "pref:n=30,k=2", "--algo", "baseline"])
        assert vars(args) == {"gen": "pref:n=30,k=2", "algo": "baseline"}
        config_fields = {f.name for f in fields(RunConfig)}
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests == config_fields

    def test_mpc_algo_smoke(self, capsys):
        code = cli_main(["--gen", "pref:n=30,k=2", "--algo", "mpc-super",
                         "--mpc-mu", "0.4", "--c", "1"])
        assert code == 0

"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, RegimeError, check_regime, check_traced_regime  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert len(e2e) <= 16 and len(layers) <= 128
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert e2e == run.END_TO_END
    assert layers == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert e2e["setup_s"] == "s"
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """A small near-linear MPC sweep through the command line, fully traced."""
    from dirdense import cli

    out = tmp_path_factory.mktemp("run") / "report.csv"
    argv = ["--gen", "pref:n=300,k=8", "--algo", "mpc-near", "--f", "0.01",
            "--mpc-budget", "2", "--seed", "3", "--out", str(out)]
    tracer = Tracer()
    with tracer.installed(full=True), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer


def test_probes_are_removed_after_the_run(traced_run):
    from dirdense import csweep, streaming

    assert csweep.make_stream is streaming.make_stream
    assert not hasattr(streaming.SeenSet.add, "__wrapped__")


def test_self_times_under_the_sweep_add_up(traced_run):
    spans = traced_run.spans
    (sweep,) = [s for s in spans if s.name == "bench.sweep"]
    under = {sweep.id}
    for s in spans:  # a parent's span id is always lower than its children's
        if s.parent in under:
            under.add(s.id)
    assert len(under) > 100
    selfs = traced_run.self_times()
    assert all(selfs[i] >= 0 for i in under)
    assert sum(selfs[i] for i in under) == pytest.approx(sweep.duration, rel=1e-9, abs=1e-9)


def test_traced_run_reports_every_layer_metric(traced_run):
    layers = traced_run.layer_metrics()
    assert set(layers) | {"trace.overhead_s"} == set(LAYER_UNITS)
    assert layers["mpc.flip_peels"] > 0 and layers["mpc.draw_calls"] > 0
    assert layers["streaming.make_stream_calls"] == 0
    check_traced_regime(WORKLOADS["mpcnear-dense2k"], layers)
    with pytest.raises(RegimeError):
        check_traced_regime(WORKLOADS["sampled-dense2k"], layers)


@pytest.mark.parametrize("name, n, m", [
    ("exact-pref100k", 100_000, 10**8),
    ("sampled-dense2k", 2_000, 10**5),
    ("mpcsuper-pref100k", 100_000, 300_000),
    ("mpcnear-dense2k", 2_000, 40_000),
])
def test_regime_guard_trips_on_a_mis_sized_graph(name, n, m):
    w = WORKLOADS[name]
    check_regime(w, w.graph[0], w.graph[1] * (w.graph[0] - 1))
    with pytest.raises(RegimeError):
        check_regime(w, n, m)


@pytest.fixture(scope="module")
def exact_sweep():
    from dirdense.bench import gen_pref_attach
    from dirdense.csweep import build_grid, sweep

    g = gen_pref_attach(400, 6, 5)
    result = sweep("single-pass", g, build_grid(g.n, 2.0), epsilon=0.2, f=1 / 30, seed=5)
    return g, result


def test_gate_accepts_a_correct_sweep(exact_sweep):
    g, result = exact_sweep
    best, pairs = gate.reference(g)
    cells = {row.c: (0, g.m, g.m) for row in result.rows}
    failed, messages, _ = gate.check_run(WORKLOADS["exact-pref100k"], g, result, cells, best, pairs)
    assert (failed, messages) == (0, [])


def test_gate_rejects_a_pair_with_a_vertex_dropped(exact_sweep):
    g, result = exact_sweep
    _, pairs = gate.reference(g)
    row = result.rows[-1]
    dropped = replace(row, pair=replace(row.pair, S=frozenset(sorted(row.pair.S)[1:])))
    why = gate.check_cell(WORKLOADS["exact-pref100k"], g, dropped, (0, g.m, g.m), pairs[row.c])
    assert why is not None and "baseline_peel" in why


def test_gate_rejects_a_density_off_by_one(exact_sweep):
    g, result = exact_sweep
    row = result.rows[-1]
    assert gate.check_cell(WORKLOADS["mpcnear-dense2k"], g, row, None, None) is None
    off = replace(row, density=row.density + 1)
    assert "recount" in gate.check_cell(WORKLOADS["mpcnear-dense2k"], g, off, None, None)


def test_gate_rejects_stream_misuse_and_error_rows(exact_sweep):
    g, result = exact_sweep
    w = WORKLOADS["sampled-dense2k"]
    row = result.rows[0]
    assert "reset" in gate.check_cell(w, g, row, (1, g.m, g.m), None)
    assert "read" in gate.check_cell(w, g, row, (0, g.m + 1, g.m), None)
    assert "error" in gate.check_cell(w, g, replace(row, error="boom"), (0, 0, g.m), None)


def test_gate_rejects_a_best_pair_below_the_sweep_bound(exact_sweep):
    g, result = exact_sweep
    best, _ = gate.reference(g)
    cells = {row.c: (0, g.m, g.m) for row in result.rows}
    failed, messages, _ = gate.check_run(WORKLOADS["sampled-dense2k"], g, result, cells,
                                         best * 10, None)
    assert failed == 1 and "exact-peel best" in messages[-1]


def test_reference_round_trips(exact_sweep, tmp_path):
    g, _ = exact_sweep
    best, pairs = gate.reference(g)
    gate.save_reference(tmp_path / "ref.npz", best, pairs)
    best2, pairs2 = gate.load_reference(tmp_path / "ref.npz")
    assert best2 == best and list(pairs2) == list(pairs)
    assert all((pairs2[c][0] == pairs[c][0]).all() and (pairs2[c][1] == pairs[c][1]).all()
               for c in pairs)

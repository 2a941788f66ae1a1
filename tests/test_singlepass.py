import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirdense.bench import gen_pref_attach
from dirdense.graph import DirectedGraph, density
from dirdense.mpc import MpcConfig, mpc_superlinear_run
from dirdense.peeling import SharedPeel, baseline_peel
from dirdense.streaming import (EdgeStream, SinglePassEngine, make_stream, sample_params,
                               single_pass_run)
from tests.support import gnp_directed, multigraphs_with_ratio, star_with_fragment


class TestSinglePassRun:
    @pytest.mark.parametrize("c", [0, -1, Fraction(-2), float("inf"), "x", True])
    def test_rejects_nonpositive_c(self, c):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        params = sample_params(g.n, 0.2)
        with pytest.raises(ValueError, match="ratio guess"):
            single_pass_run(make_stream(g, "given"), g.n, c, params)
        with pytest.raises(ValueError, match="ratio guess"):
            SinglePassEngine(g.n, c, params, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_vertex_count_other_than_the_stream(self, n):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="vertex count"):
            single_pass_run(make_stream(g, "given"), n, 1, sample_params(g.n, 0.2))

    def test_small_graph_collapses_to_baseline(self):
        # |E| << n*xi: the first batch is the whole stream, so the run is an
        # exact peel of everything and must reproduce the baseline output pair
        for seed in range(10):
            g = gnp_directed(20, 0.25, seed)
            c = Fraction(1, 3)
            base_pair, base_rho, _ = baseline_peel(g, c, 0.2)
            stream = make_stream(g, "shuffled", seed=seed)
            pair, rho, ledger = single_pass_run(stream, g.n, c, sample_params(g.n, 0.2),
                                                rng=np.random.default_rng(seed))
            assert pair.S == base_pair.S
            assert pair.T == base_pair.T
            assert rho == base_rho
            assert ledger.peak_edges == g.m

    def test_edgeless_stream(self):
        g = DirectedGraph(4, [])
        stream = make_stream(g, "given")
        pair, rho, ledger = single_pass_run(stream, 4, 1, sample_params(4, 0.2))
        assert rho == 0.0
        assert ledger.peak_edges == 0

    def test_reads_each_edge_at_most_once(self):
        cases = [
            (gnp_directed(30, 0.2, 1), sample_params(30, 0.2)),            # collapse path
            (gnp_directed(60, 0.6, 2), sample_params(60, 0.5, f=1 / 3000)),  # sampled path
        ]
        for g, params in cases:
            stream = make_stream(g, "shuffled", seed=5)
            single_pass_run(stream, g.n, 1, params, rng=np.random.default_rng(3))
            assert stream.edges_read <= g.m
            assert stream.resets == 0

    def test_a_pair_that_loses_a_side_stops_reading(self):
        # at c = 1/n a sampled peel empties a side long before the stream
        # ends; no cross edge can remain, so the rest is neither read nor
        # counted as held
        g = gen_pref_attach(200, 100, seed=1)
        params = sample_params(g.n, 0.2, f=1 / 3000)
        assert g.n * params.xi < g.m  # the cell samples
        stream = make_stream(g, "shuffled", seed=5)
        pair, rho, ledger = single_pass_run(stream, g.n, Fraction(1, g.n), params,
                                            rng=np.random.default_rng(3))
        assert stream.edges_read < g.m
        assert ledger.peak_edges < g.m - stream.edges_read
        assert pair.S and pair.T and rho > 0

    def test_a_dead_pair_reads_no_further_batch(self):
        # the same cell: the sampled step that empties a side comes after
        # 13,751 edges read, and the engine stops there instead of reading
        # one more batch of n * xi = 600 edges that nothing can match
        g = gen_pref_attach(200, 100, seed=1)
        params = sample_params(g.n, 0.2, f=1 / 3000)
        stream = make_stream(g, "shuffled", seed=5)
        engine = SinglePassEngine(g.n, Fraction(1, g.n), params, np.random.default_rng(3))
        engine.run(stream)
        assert not (engine.s_count and engine.t_count)
        assert stream.edges_read == 13_751

    def test_sampled_path_reports_pair_with_sane_estimate(self):
        g = gnp_directed(80, 0.5, seed=9)
        params = sample_params(g.n, 0.5, f=1 / 3000)
        assert g.n * params.xi < g.m
        stream = make_stream(g, "shuffled", seed=2)
        pair, rho, _ = single_pass_run(stream, g.n, 1, params, rng=np.random.default_rng(11))
        assert pair.S and pair.T
        exact = density(g, pair)
        assert rho >= 0.0
        # the reported value is an estimate; it must be in the ballpark of the
        # exact density of the pair it reports
        assert rho <= 3.0 * exact + 1e-9
        assert exact >= rho / 3.0 - 1e-9

    def test_fixture_recovers_planted_star(self):
        g = star_with_fragment()
        params = sample_params(g.n, 0.2)
        best = 0.0
        for c in (Fraction(1, 200), Fraction(1, 100), Fraction(1, 50)):
            stream = make_stream(g, "shuffled", seed=3)
            _, rho, _ = single_pass_run(stream, g.n, c, params, rng=np.random.default_rng(4))
            best = max(best, rho)
        assert best >= math.sqrt(120) / (2 * 1.2**3 * math.sqrt(2))

    def test_order_independent_in_collapse(self):
        g = gnp_directed(15, 0.3, seed=8)
        results = []
        for order, seed in (("given", 0), ("shuffled", 1), ("shuffled", 2)):
            stream = make_stream(g, order, seed=seed)
            pair, rho, _ = single_pass_run(stream, g.n, Fraction(1, 2),
                                           sample_params(g.n, 0.2),
                                           rng=np.random.default_rng(0))
            results.append((pair.S, pair.T, rho))
        assert results[0] == results[1] == results[2]

    @given(multigraphs_with_ratio(), st.sampled_from([0.1, 0.2, 0.5, 0.9]),
           st.sampled_from(["given", "shuffled"]), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_whole_stream_budget_equals_baseline(self, instance, eps, order, seed):
        # n*xi >= m: the first batch is the whole stream (p = 1), so the run is
        # one exact peel of every edge, whatever c and the stream order
        g, c = instance
        params = sample_params(g.n, eps)
        assume(g.n * params.xi >= g.m)
        base_pair, base_rho, _ = baseline_peel(g, c, eps)
        pair, rho, _ = single_pass_run(make_stream(g, order, seed), g.n, c, params,
                                       rng=np.random.default_rng(seed))
        assert (pair.S, pair.T, rho) == (base_pair.S, base_pair.T, base_rho)


class _CountingStream(EdgeStream):
    """A static stream that counts its ``take_qualifying`` calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.qualifying_calls = 0

    def take_qualifying(self, *args, **kwargs):
        self.qualifying_calls += 1
        return super().take_qualifying(*args, **kwargs)


class TestOrderBlind:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=3000),
           st.floats(min_value=-4, max_value=0).map(lambda e: 10.0**e),
           st.sampled_from([0.1, 0.2, 0.5, 0.9]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_holds_exactly_when_the_run_ends_in_the_exact_peel_unsampled(self, n, m, f, eps,
                                                                         seed):
        rng = np.random.default_rng(seed)
        g = DirectedGraph.from_arrays(n, rng.integers(0, n, m), rng.integers(0, n, m))
        engine = SinglePassEngine(n, 1, sample_params(n, eps, f), rng)
        blind = engine.order_blind(m)
        stream = _CountingStream(n, g.src, g.dst)
        engine.run(stream)
        assert blind == (stream.qualifying_calls == 0 and engine.best_exact)

    @pytest.mark.parametrize("f, blind", [(1.0, True), (1 / 3000, False)])
    def test_the_two_regimes_of_a_pref_graph(self, f, blind):
        # f = 1: n * xi covers the stream; f = 1/3000: 600 < m = 19,900 samples
        g = gen_pref_attach(200, 100, seed=1)
        engine = SinglePassEngine(g.n, 1, sample_params(g.n, 0.2, f), None)
        assert engine.order_blind(g.m) == blind

    @given(multigraphs_with_ratio(), st.sampled_from([0.1, 0.2, 0.5, 0.9]),
           st.sampled_from([1.0, 1 / 30, 1 / 300, 1 / 3000]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_order_blind_cells_return_the_baseline_peel(self, instance, eps, f, seed):
        """Single-pass and mpc-super cells in the order-blind regime return
        baseline's pair and exact density, in either stream order, with the
        shared walk or without it."""
        g, c = instance
        params = sample_params(g.n, eps, f)
        assume(SinglePassEngine(g.n, c, params, None).order_blind(g.m))
        base_pair, base_rho, _ = baseline_peel(g, c, eps)
        expected = base_pair.S, base_pair.T, base_rho
        cfg = MpcConfig("superlinear", mu=0.1)  # about n^1.1 edges a machine: several phases
        for order in ("given", "shuffled"):
            for shared in (None, SharedPeel(g.src, g.dst, g.n, (c,), eps)):
                stream = make_stream(g, order, seed)
                pair, rho, _ = single_pass_run(stream, g.n, c, params,
                                               rng=np.random.default_rng(seed), shared=shared)
                assert (pair.S, pair.T, rho) == expected
                pool = stream.replay().take_all()
                pair, rho, _ = mpc_superlinear_run(g, c, params, cfg, pool=pool,
                                                   rng=np.random.default_rng(seed), shared=shared)
                assert (pair.S, pair.T, rho) == expected

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirdense.bench import gen_pref_attach
from dirdense.graph import DirectedGraph, density
from dirdense.peeling import baseline_peel
from dirdense.streaming import SinglePassEngine, make_stream, sample_params, single_pass_run
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

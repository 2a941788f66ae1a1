import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirdense.graph import DirectedGraph, density
from dirdense.peeling import baseline_peel, exact_oracle
from dirdense.streaming import make_stream, multi_pass_run, sample_params
from tests.support import gnp_directed, iteration_cap, multigraphs_with_ratio, star_plus_triangle


class TestMultiPassRun:
    @pytest.mark.parametrize("c", [0, -1, Fraction(-1, 2)])
    def test_rejects_nonpositive_c(self, c):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="ratio guess"):
            multi_pass_run(make_stream(g, "given"), g.n, c, sample_params(g.n, 0.2))

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_vertex_count_other_than_the_stream(self, n):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="vertex count"):
            multi_pass_run(make_stream(g, "given"), n, 1, sample_params(g.n, 0.2))

    def test_clamped_probability_matches_baseline(self):
        # every graph here has far fewer than n*xi edges, so p = 1 and the
        # trajectory must equal the full-information peel, tie-breaks included
        for seed in range(8):
            g = gnp_directed(12, 0.3, seed)
            c = Fraction(1, 2)
            params = sample_params(g.n, 0.2)
            base_pair, base_rho, _ = baseline_peel(g, c, 0.2)
            stream = make_stream(g, "shuffled", seed=seed)
            pair, rho, _ = multi_pass_run(stream, g.n, c, params,
                                          rng=np.random.default_rng(seed))
            assert pair.S == base_pair.S
            assert pair.T == base_pair.T
            assert rho == base_rho

    @given(multigraphs_with_ratio(), st.sampled_from([0.1, 0.2, 0.5, 0.9]),
           st.sampled_from(["given", "shuffled"]), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_whole_graph_budget_equals_baseline(self, instance, eps, order, seed):
        # n*xi >= m >= |E(S, T)| clamps every step's p to 1, so each sampled
        # step sees every cross edge, whatever c and the stream order
        g, c = instance
        params = sample_params(g.n, eps)
        assume(g.n * params.xi >= g.m)
        base_pair, base_rho, _ = baseline_peel(g, c, eps)
        pair, rho, _ = multi_pass_run(make_stream(g, order, seed), g.n, c, params,
                                      rng=np.random.default_rng(seed))
        assert (pair.S, pair.T, rho) == (base_pair.S, base_pair.T, base_rho)

    def test_edgeless_graph(self):
        g = DirectedGraph(6, [])
        stream = make_stream(g, "given")
        pair, rho, ledger = multi_pass_run(stream, 6, 1, sample_params(6, 0.2))
        assert rho == 0.0
        assert ledger.rounds == 2  # initial count + the single sampling pass
        assert ledger.peak_edges == 0

    def test_star_triangle_recovery_over_seeds(self):
        g = star_plus_triangle()
        _, oracle_rho = exact_oracle(g)
        bound = oracle_rho / (2 * 1.2**3)
        params = sample_params(g.n, 0.2)
        hits = 0
        for seed in range(100):
            stream = make_stream(g, "shuffled", seed=seed)
            _, rho, _ = multi_pass_run(stream, g.n, Fraction(1, 6), params,
                                       rng=np.random.default_rng(seed))
            hits += rho >= bound
        assert hits >= 99

    def test_pass_budget(self):
        for seed in range(6):
            g = gnp_directed(14, 0.4, seed)
            eps = 0.2
            stream = make_stream(g, "shuffled", seed=seed)
            _, _, ledger = multi_pass_run(stream, g.n, 1, sample_params(g.n, eps),
                                          rng=np.random.default_rng(seed))
            assert ledger.rounds <= 2 * iteration_cap(g.n, eps)

    def test_density_is_exact_for_reported_pair(self):
        for seed in range(5):
            g = gnp_directed(11, 0.4, seed)
            stream = make_stream(g, "shuffled", seed=seed)
            pair, rho, _ = multi_pass_run(stream, g.n, Fraction(2), sample_params(g.n, 0.3),
                                          rng=np.random.default_rng(seed))
            assert density(g, pair) == pytest.approx(rho, abs=1e-12)

    def test_genuinely_sampled_run_still_peels(self):
        # tiny f forces p < 1; result must stay a valid pair with exact density
        g = gnp_directed(40, 0.5, seed=3)
        params = sample_params(g.n, 0.5, f=1 / 2000)
        assert g.n * params.xi < g.m  # sampling actually engages
        stream = make_stream(g, "shuffled", seed=1)
        pair, rho, ledger = multi_pass_run(stream, g.n, 1, params, rng=np.random.default_rng(5))
        assert density(g, pair) == pytest.approx(rho, abs=1e-12)
        assert ledger.peak_edges < g.m
        assert ledger.rounds <= 2 * iteration_cap(g.n, 0.5)

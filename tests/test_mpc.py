import math
from fractions import Fraction

import numpy as np
import pytest

from dirdense.graph import DirectedGraph
from dirdense.mpc import MpcConfig, mpc_nearlinear_run, mpc_superlinear_run
from dirdense.peeling import exact_oracle
from dirdense.streaming import sample_params
from dirdense.csweep import build_grid, sweep
from tests.support import gnp_directed, star_plus_triangle


class TestMpcConfig:
    def test_superlinear_needs_mu(self):
        with pytest.raises(ValueError):
            MpcConfig("superlinear")
        with pytest.raises(ValueError):
            MpcConfig("superlinear", mu=1.5)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            MpcConfig("sublinear")

    @pytest.mark.parametrize("budget", [0, -5, 0.0, float("nan")])
    def test_rejects_nonpositive_budget(self, budget):
        with pytest.raises(ValueError, match="polylog_budget"):
            MpcConfig("nearlinear", polylog_budget=budget)

    def test_memory_floors_at_n(self):
        cfg = MpcConfig("nearlinear", polylog_budget=0.001)
        assert cfg.machine_memory(100, 0.2) == 100

    def test_regime_mismatch_rejected(self):
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            mpc_superlinear_run(g, 1, 0.2, MpcConfig("nearlinear"))
        with pytest.raises(ValueError):
            mpc_nearlinear_run(g, 1, 0.2, MpcConfig("superlinear", mu=0.3))


class TestRunnerArguments:
    @pytest.mark.parametrize("run", [mpc_superlinear_run, mpc_nearlinear_run])
    def test_params_with_other_epsilon_rejected(self, run):
        g = gnp_directed(20, 0.3, seed=1)
        with pytest.raises(ValueError, match="epsilon"):
            run(g, 1, 0.2, None, sample_params(g.n, 0.3))
        run(g, 1, 0.2, None, sample_params(g.n, 0.2, f=0.01))  # same epsilon, other f

    @pytest.mark.parametrize("run", [mpc_superlinear_run, mpc_nearlinear_run])
    @pytest.mark.parametrize("c", [0, -2])
    def test_rejects_nonpositive_c(self, run, c):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="ratio guess"):
            run(g, c, 0.2)


class TestSuperlinear:
    def test_everything_fits_one_machine(self):
        g = star_plus_triangle()
        pair, rho, ledger = mpc_superlinear_run(g, Fraction(1, 6), 0.2,
                                                MpcConfig("superlinear", mu=0.5))
        assert ledger.phases == 1
        assert ledger.log[-1].local_finish
        assert rho == pytest.approx(6 / math.sqrt(6))

    def test_edgeless_graph_finishes_immediately(self):
        g = DirectedGraph(8, [])
        pair, rho, ledger = mpc_superlinear_run(g, 1, 0.2, MpcConfig("superlinear", mu=0.3))
        assert rho == 0.0
        assert ledger.phases == 0
        assert ledger.rounds == 0

    def test_relevant_pool_shrinks_monotonically(self):
        g = gnp_directed(60, 0.8, seed=4)
        cfg = MpcConfig("superlinear", mu=0.2)  # memory 60^1.2 ~ 136 << m
        params = sample_params(g.n, 0.5, f=1 / 4000)
        _, _, ledger = mpc_superlinear_run(g, 1, 0.5, cfg, params,
                                           rng=np.random.default_rng(0))
        assert ledger.phases >= 2
        for rec in ledger.log:
            assert rec.e_rel_after <= rec.e_rel_before
        for prev, cur in zip(ledger.log, ledger.log[1:]):
            assert cur.e_rel_before <= prev.e_rel_after

    def test_round_charges_follow_cost_model(self):
        g = gnp_directed(60, 0.8, seed=4)
        cfg = MpcConfig("superlinear", mu=0.2)
        params = sample_params(g.n, 0.5, f=1 / 4000)
        _, _, ledger = mpc_superlinear_run(g, 1, 0.5, cfg, params,
                                           rng=np.random.default_rng(0))
        expected = sum(2 if rec.local_finish else 3 for rec in ledger.log)
        assert ledger.rounds == expected

    def test_deterministic_ledgers(self):
        g = gnp_directed(50, 0.6, seed=9)
        cfg = MpcConfig("superlinear", mu=0.25)
        params = sample_params(g.n, 0.4, f=1 / 2000)
        runs = [
            mpc_superlinear_run(g, Fraction(1, 2), 0.4, cfg, params,
                                rng=np.random.default_rng(42))
            for _ in range(2)
        ]
        (p1, r1, l1), (p2, r2, l2) = runs
        assert p1 == p2 and r1 == r2
        assert l1.rounds == l2.rounds and l1.log == l2.log


class TestNearlinear:
    def test_everything_fits_one_machine(self):
        g = star_plus_triangle()
        pair, rho, ledger = mpc_nearlinear_run(g, Fraction(1, 6), 0.2)
        assert ledger.phases == 1
        assert rho == pytest.approx(6 / math.sqrt(6))

    def test_pure_star_completes_in_one_phase(self):
        # flip-peeling with exact degrees resolves a star-shaped optimum with
        # a single fetched sample
        g = DirectedGraph(100, [(0, leaf) for leaf in range(1, 100)])
        cfg = MpcConfig("nearlinear", polylog_budget=1.0)
        pair, rho, ledger = mpc_nearlinear_run(g, Fraction(1, 64), 0.2, cfg,
                                               sample_params(100, 0.2, f=1 / 100),
                                               rng=np.random.default_rng(0))
        assert ledger.phases <= 2
        assert ledger.log[0].flip_peels >= 1
        assert rho >= (99 / math.sqrt(99)) / (2 * 1.2**3)

    def test_phases_record_flip_peels_and_rounds(self):
        g = gnp_directed(60, 0.8, seed=4)
        cfg = MpcConfig("nearlinear", polylog_budget=3.0)
        params = sample_params(g.n, 0.5, f=1 / 4000)
        _, _, ledger = mpc_nearlinear_run(g, 1, 0.5, cfg, params,
                                          rng=np.random.default_rng(1))
        # cost model: flip-peel degree tally adds one charge per phase
        expected = sum((3 if rec.local_finish else 4) for rec in ledger.log)
        assert ledger.rounds == expected

    def test_shrinking_sides_shrink_fetches(self):
        g = gnp_directed(80, 0.9, seed=6)
        cfg = MpcConfig("nearlinear", polylog_budget=2.0)
        params = sample_params(g.n, 0.5, f=1 / 4000)
        _, _, ledger = mpc_nearlinear_run(g, 1, 0.5, cfg, params,
                                          rng=np.random.default_rng(1))
        nonfinal = [rec for rec in ledger.log if not rec.local_finish]
        if len(nonfinal) >= 2:
            assert nonfinal[-1].s_size + nonfinal[-1].t_size \
                <= nonfinal[0].s_size + nonfinal[0].t_size


class TestApproximationParity:
    def test_small_graph_sweeps_meet_oracle_bound(self):
        eps, delta = 0.2, 2
        bound_factor = 2 * (1 + eps) ** 3 * math.sqrt(delta)
        for seed in range(8):
            n = 5 + seed
            g = gnp_directed(n, 0.4, seed)
            _, oracle_rho = exact_oracle(g)
            for algo in ("mpc-super", "mpc-near"):
                res = sweep(algo, g, build_grid(n, delta), epsilon=eps, seed=seed)
                assert res.best_density >= oracle_rho / bound_factor - 1e-12, (algo, seed)

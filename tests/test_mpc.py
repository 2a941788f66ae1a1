import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirdense.bench import gen_pref_attach
from dirdense.graph import DirectedGraph
from dirdense.mpc import (
    MpcConfig,
    RelevantEdgeSet,
    _PhaseController,
    _PoolOrder,
    mpc_nearlinear_run,
    mpc_superlinear_run,
)
from dirdense.peeling import RoundLedger, SharedPeel, _inside, baseline_peel, exact_oracle
from dirdense.streaming import SinglePassEngine, _shuffled_edges, sample_params
from dirdense.csweep import build_grid, sweep
from tests.support import gnp_directed, placed_in_full, star_plus_triangle


class TestMpcConfig:
    def test_superlinear_needs_mu(self):
        with pytest.raises(ValueError):
            MpcConfig("superlinear")
        with pytest.raises(ValueError):
            MpcConfig("superlinear", mu=1.5)

    @pytest.mark.parametrize("regime, knob", [("superlinear", {"polylog_budget": 5.0}),
                                              ("nearlinear", {"mu": 2.0}),
                                              ("nearlinear", {"mu": 0.5})])
    def test_rejects_the_other_regime_s_knob(self, regime, knob):
        kwargs = {"mu": 0.1} if regime == "superlinear" else {}
        with pytest.raises(ValueError, match=f"{regime} config takes no {next(iter(knob))}"):
            MpcConfig(regime, **kwargs, **knob)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            MpcConfig("sublinear")

    @pytest.mark.parametrize("budget", [0, -5, 0.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_budget(self, budget):
        with pytest.raises(ValueError, match="polylog_budget"):
            MpcConfig("nearlinear", polylog_budget=budget)

    def test_unbounded_budget_holds_the_whole_pool(self):
        g = gnp_directed(30, 0.3, seed=1)
        cfg = MpcConfig("nearlinear", polylog_budget=1e308)
        assert cfg.machine_memory(g.n, 0.2) >= 2**62
        assert MpcConfig("nearlinear").machine_memory(g.n, 1e-110) >= 2**62  # epsilon**3 == 0
        _, rho, ledger = mpc_nearlinear_run(g, Fraction(1), sample_params(g.n, 0.2), cfg)
        assert rho > 0 and ledger.phases == 1

    def test_memory_floors_at_n(self):
        cfg = MpcConfig("nearlinear", polylog_budget=0.001)
        assert cfg.machine_memory(100, 0.2) == 100

    def test_regime_mismatch_rejected(self):
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            mpc_superlinear_run(g, 1, sample_params(g.n, 0.2), MpcConfig("nearlinear"))
        with pytest.raises(ValueError):
            mpc_nearlinear_run(g, 1, sample_params(g.n, 0.2),
                               MpcConfig("superlinear", mu=0.3))


class TestRunnerArguments:
    @pytest.mark.parametrize("run", [mpc_superlinear_run, mpc_nearlinear_run])
    @pytest.mark.parametrize("c", [0, -2])
    def test_rejects_nonpositive_c(self, run, c):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="ratio guess"):
            run(g, c, sample_params(g.n, 0.2))


    @pytest.mark.parametrize("run", [mpc_superlinear_run, mpc_nearlinear_run])
    def test_pool_must_hold_the_graph_edges(self, run):
        g = gnp_directed(20, 0.3, seed=1)
        src, dst = _shuffled_edges(g, 0)
        with pytest.raises(ValueError, match="pool"):
            run(g, 1, sample_params(g.n, 0.2), pool=(src[1:], dst[1:]))
        _, _, ledger = run(g, 1, sample_params(g.n, 0.2), pool=(src, dst))
        assert ledger.phases >= 1


def _codes(g, src, dst):
    return np.asarray(src) * g.n + np.asarray(dst)


def _unread(pool):
    """The edges of a pool's order after its cursor, for an order placed in
    full: its stream is never reset, so it has read exactly its prefix."""
    read, order = pool._edges.edges_read, pool._order
    assert order.placed == order.m
    return order.src[read:], order.dst[read:]


class TestRelevantEdgeSet:
    def test_draws_are_the_pool_head_and_partition_it(self):
        g = gnp_directed(30, 0.3, seed=2)
        src, dst = _shuffled_edges(g, 5)
        pool = RelevantEdgeSet(_PoolOrder(src, dst))
        drawn = [pool.draw(k) for k in (7, 0, 40, 1)]
        assert [s.size for s, _ in drawn] == [7, 0, 40, 1]
        head = np.concatenate([_codes(g, s, d) for s, d in drawn])
        assert np.array_equal(head, _codes(g, src[:48], dst[:48]))
        assert pool.size == g.m - 48
        assert np.array_equal(_codes(g, *_unread(pool)), _codes(g, src[48:], dst[48:]))
        rest = pool.draw(g.m)  # more than is left: takes the rest
        assert np.array_equal(_codes(g, *rest), _codes(g, src[48:], dst[48:]))
        assert pool.size == 0 and pool.draw(1)[0].size == 0
        edges = pool._edges  # its source, the order's reader, has handed out every slot
        assert edges.remaining == 0 and edges.take_all()[0].size == 0
        assert np.array_equal(np.sort(_codes(g, src, dst)), np.sort(_codes(g, g.src, g.dst)))

    def test_filter_keeps_the_survivors_in_order(self):
        g = gnp_directed(30, 0.3, seed=3)
        src, dst = _shuffled_edges(g, 1)
        pool = RelevantEdgeSet(_PoolOrder(src, dst))
        pool.draw(5)
        s_mask = np.arange(g.n) % 3 != 0
        t_mask = np.arange(g.n) % 4 != 1
        pool.intersect_pair(s_mask, t_mask)
        keep = s_mask[src[5:]] & t_mask[dst[5:]]
        assert 0 < pool.size == np.count_nonzero(keep) < keep.size
        head = pool.draw(1)
        rest = pool.draw(pool.size)
        assert np.array_equal(head[0], src[5:][keep][:1])
        assert np.array_equal(np.concatenate([head[0], rest[0]]), src[5:][keep])
        assert np.array_equal(np.concatenate([head[1], rest[1]]), dst[5:][keep])
        assert pool.size == 0

    def test_draws_at_the_whole_pair_are_views_of_the_shared_arrays(self):
        g = gnp_directed(20, 0.3, seed=4)
        src, dst = _shuffled_edges(g, 0)
        pool = RelevantEdgeSet(_PoolOrder(src, dst))
        everyone = np.ones(g.n, dtype=bool)
        pool.intersect_pair(everyone, everyone)
        assert pool.size == g.m
        first = pool.draw(3)
        pool.intersect_pair(everyone, everyone)
        second = pool.draw(4)
        assert pool.size == g.m - 7
        # each draw is the next slice of the shared order itself, no copy
        for (got_src, got_dst), lo in ((first, 0), (second, 3)):
            for got, order in ((got_src, src), (got_dst, dst)):
                assert got.base is order and np.array_equal(got, order[lo : lo + got.size])
                offset = got.__array_interface__["data"][0] - order.__array_interface__["data"][0]
                assert offset == lo * order.itemsize

    @pytest.mark.parametrize("flip_peel", [False, True])
    def test_a_pair_that_shrinks_on_one_side_is_counted_again(self, flip_peel):
        # a peel step keeps the other side's mask object: the count follows
        # the side that shrank, and stands only when neither did
        g = gnp_directed(30, 0.3, seed=5)
        pool = RelevantEdgeSet(_PoolOrder(*_shuffled_edges(g, 2)))
        ids = np.arange(g.n)
        s_mask, t_mask = ids % 3 != 0, ids % 4 != 1
        fewer_s, fewer_t = s_mask & (ids % 5 != 0), t_mask & (ids % 7 != 2)
        sizes = []
        for pair in ((s_mask, t_mask), (fewer_s, t_mask), (fewer_s, fewer_t), (fewer_s, fewer_t)):
            pool.draw(3)
            cross = _inside(g.src, g.dst, *pair)[0].size if flip_peel else None
            pool.intersect_pair(*pair, cross)
            assert pool.size == _inside(*_unread(pool), *pair)[0].size
            sizes.append(pool.size)
        assert sizes[0] > sizes[1] > sizes[2] == sizes[3] + 3

    def test_permute_once_draw_filter_draw_has_the_uniform_law(self):
        # edge i is (i, 6 + i); the pool is permuted once, one edge is drawn,
        # the filter drops edges 4 and 5, then an ordered pair is drawn from
        # the survivors. Under the law of a fresh permutation per draw, every
        # (first, pair) outcome of a given first edge is equally likely: 48
        # cells in all.
        g = DirectedGraph(12, [(i, 6 + i) for i in range(6)])
        s_mask = np.arange(g.n) < 4
        t_mask = np.ones(g.n, dtype=bool)
        trials = 4000
        counts = {}
        for seed in range(trials):
            pool = RelevantEdgeSet(_PoolOrder(*_shuffled_edges(g, seed)))
            (first,), _ = pool.draw(1)
            pool.intersect_pair(s_mask, t_mask)
            (a, b), _ = pool.draw(2)
            key = (int(first), int(a), int(b))
            counts[key] = counts.get(key, 0) + 1
        expected = {}
        for first in range(6):
            survivors = [e for e in range(4) if e != first]
            ordered = [(a, b) for a in survivors for b in survivors if a != b]
            for a, b in ordered:
                expected[(first, a, b)] = trials / 6 / len(ordered)
        assert set(counts) <= set(expected)
        chi2 = sum((counts.get(key, 0) - e) ** 2 / e for key, e in expected.items())
        assert chi2 < 82.72, chi2  # chi-square quantile 0.999 at 47 degrees of freedom

    @pytest.mark.parametrize("head,share", [(1, 1 / 4), (2, 1 / 2)])
    def test_lazily_placed_prefixes_have_the_uniform_law(self, monkeypatch, head, share):
        # with a head of one or two slots, below its switch share of m, a
        # 6-edge order places the head first and the other edges by the
        # shuffle of the rest; two draws read the first three slots, each
        # ordered triple of distinct edges equally likely: 120 cells
        import dirdense.mpc as mpc

        monkeypatch.setattr(mpc, "_FIRST_CHUNK", head)
        monkeypatch.setattr(mpc, "_SHUFFLE_SHARE", share)
        g = DirectedGraph(12, [(i, 6 + i) for i in range(6)])
        trials = 6000
        counts = {}
        for seed in range(trials):
            order = _PoolOrder(g.src, g.dst, seed)
            pool = RelevantEdgeSet(order)
            (first,), _ = pool.draw(1)
            assert order.placed == head  # the head
            (a, b), _ = pool.draw(2)
            assert order.placed == g.m  # the rest
            key = (int(first), int(a), int(b))
            counts[key] = counts.get(key, 0) + 1
        assert all(len(set(key)) == 3 for key in counts)
        expected = trials / 120
        chi2 = sum((counts.get(key, 0) - expected) ** 2 / expected
                   for key in itertools.permutations(range(6), 3))
        assert chi2 < 172.42, chi2  # chi-square quantile 0.999 at 119 degrees of freedom

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_size_is_the_unread_rest_inside_the_pair(self, data):
        """After every narrowing, counted from the flip-peel's cross count,
        from g's edges or kept for an unchanged pair, ``size`` is the
        unread rest's edges inside the pair, and draws take the pool's head
        as filtering copies would, whether the order is placed in full or
        lazily, from a head of one slot and with the switch at a quarter of
        m."""
        import dirdense.mpc as mpc

        n = data.draw(st.integers(1, 8), label="n")
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60), label="edges")
        g = DirectedGraph(n, edges)
        seed = data.draw(st.integers(0, 2**32), label="order")
        lazy = data.draw(st.booleans(), label="lazy")
        with mock.patch.multiple(mpc, _FIRST_CHUNK=1, _SHUFFLE_SHARE=1 / 4):
            if lazy:
                src, dst = placed_in_full(_PoolOrder(g.src, g.dst, seed))
                pool = RelevantEdgeSet(_PoolOrder(g.src, g.dst, seed))
            else:
                src, dst = _shuffled_edges(g, seed)
                pool = RelevantEdgeSet(_PoolOrder(src, dst))
            model = list(zip(src.tolist(), dst.tolist()))  # the pool as a filtered copy
            s_mask = t_mask = np.ones(n, dtype=bool)
            side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
            for _ in range(data.draw(st.integers(1, 5), label="phases")):
                k = data.draw(st.integers(0, 6), label="draw")
                got = pool.draw(k)
                assert list(zip(got[0].tolist(), got[1].tolist())) == model[:k]
                model = model[k:]
                # a side that does not shrink keeps its mask, as a peel step leaves it
                if data.draw(st.booleans(), label="S shrinks"):
                    s_mask = s_mask & data.draw(side, label="S keeps")
                if data.draw(st.booleans(), label="T shrinks"):
                    t_mask = t_mask & data.draw(side, label="T keeps")
                cross = None
                if data.draw(st.booleans(), label="after a flip-peel"):
                    cross = _inside(g.src, g.dst, s_mask, t_mask)[0].size
                pool.intersect_pair(s_mask, t_mask, cross)
                read = pool._edges.edges_read  # its stream is never reset
                assert pool.size == _inside(src[read:], dst[read:], s_mask, t_mask)[0].size
                model = [(u, v) for u, v in model if s_mask[u] and t_mask[v]]
                assert pool.size == len(model)
            rest = pool.draw(len(model) + 1)
            assert list(zip(rest[0].tolist(), rest[1].tolist())) == model and pool.size == 0


class TestSuperlinear:
    def test_everything_fits_one_machine(self):
        g = star_plus_triangle()
        pair, rho, ledger = mpc_superlinear_run(g, Fraction(1, 6), sample_params(g.n, 0.2),
                                                MpcConfig("superlinear", mu=0.5))
        assert ledger.phases == 1
        assert ledger.log[-1].local_finish
        assert rho == pytest.approx(6 / math.sqrt(6))

    def test_edgeless_graph_finishes_immediately(self):
        g = DirectedGraph(8, [])
        pair, rho, ledger = mpc_superlinear_run(g, 1, sample_params(g.n, 0.2),
                                                MpcConfig("superlinear", mu=0.3))
        assert rho == 0.0
        assert ledger.phases == 0
        assert ledger.rounds == 0

    def test_relevant_pool_shrinks_monotonically(self):
        g = gnp_directed(60, 0.8, seed=4)
        cfg = MpcConfig("superlinear", mu=0.2)  # memory 60^1.2 ~ 136 << m
        params = sample_params(g.n, 0.5, f=1 / 4000)
        _, _, ledger = mpc_superlinear_run(g, 1, params, cfg,
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
        _, _, ledger = mpc_superlinear_run(g, 1, params, cfg,
                                           rng=np.random.default_rng(0))
        expected = sum(2 if rec.local_finish else 3 for rec in ledger.log)
        assert ledger.rounds == expected

    def test_deterministic_ledgers(self):
        g = gnp_directed(50, 0.6, seed=9)
        cfg = MpcConfig("superlinear", mu=0.25)
        params = sample_params(g.n, 0.4, f=1 / 2000)
        runs = [
            mpc_superlinear_run(g, Fraction(1, 2), params, cfg,
                                rng=np.random.default_rng(42))
            for _ in range(2)
        ]
        (p1, r1, l1), (p2, r2, l2) = runs
        assert p1 == p2 and r1 == r2
        assert l1.rounds == l2.rounds and l1.log == l2.log


    def test_phases_at_the_whole_pair_end_in_the_exact_peel(self):
        # as on pref 10^5 with mu = 0.1: the first batch spans several
        # phases whose filters remove nothing, then the pool is drained and
        # peeled exactly, so neither the draw order nor the seed matters
        g = gen_pref_attach(1000, 10, seed=0)
        cfg = MpcConfig("superlinear", mu=0.1)
        params = sample_params(g.n, 0.2, f=1 / 1200)
        for c in (Fraction(1, 125), Fraction(1), Fraction(64)):
            base, base_rho, _ = baseline_peel(g, c, 0.2)
            ledgers = []
            for seed in (0, 1, 2):
                pair, rho, ledger = mpc_superlinear_run(g, c, params, cfg,
                                                        rng=np.random.default_rng(seed))
                assert (pair.S, pair.T, rho) == (base.S, base.T, base_rho)
                ledgers.append(ledger)
            assert ledgers[0].phases >= 3 and ledgers[0].log[-1].local_finish
            assert all(rec.e_rel_before == rec.e_rel_after for rec in ledgers[0].log[:-1])
            assert ledgers[1] == ledgers[0] and ledgers[2] == ledgers[0]

    def test_phases_at_the_whole_pair_hand_the_finishing_peel_the_pool_itself(self, monkeypatch):
        # n*xi = 70,000 lies between the machine memory 25,118 and m = 99,990:
        # four head draws at (V, V), joined as views of the pool, no copy
        g = gen_pref_attach(10**4, 10, 0)
        params = sample_params(10**4, 0.2, 1 / 2000)
        cfg = MpcConfig("superlinear", mu=0.1)
        assert cfg.machine_memory(g.n, 0.2) < g.n * params.xi < g.m
        bags = []
        local_peel = SinglePassEngine._local_peel

        def spy(engine, edge_src, edge_dst):
            bags.append((edge_src, edge_dst))
            return local_peel(engine, edge_src, edge_dst)

        monkeypatch.setattr(SinglePassEngine, "_local_peel", spy)
        ledgers = []
        for pool in (_shuffled_edges(g, 0), tuple(a.copy() for a in _shuffled_edges(g, 0))):
            _, _, ledger = mpc_superlinear_run(g, 1, params, cfg, pool=pool)
            (bag_src, bag_dst), = bags
            bags.clear()
            assert bag_src.size == bag_dst.size == g.m
            assert np.shares_memory(bag_src, pool[0]) and np.shares_memory(bag_dst, pool[1])
            ledgers.append((ledger.rounds, ledger.phases, ledger.peak_edges))
        # the copies are writeable; the results do not depend on that flag
        assert ledgers[1] == ledgers[0]
        assert ledgers[0][1] == 4


class TestNearlinear:
    def test_everything_fits_one_machine(self):
        g = star_plus_triangle()
        pair, rho, ledger = mpc_nearlinear_run(g, Fraction(1, 6), sample_params(g.n, 0.2))
        assert ledger.phases == 1
        assert rho == pytest.approx(6 / math.sqrt(6))

    def test_pure_star_completes_in_one_phase(self):
        # flip-peeling with exact degrees resolves a star-shaped optimum with
        # a single fetched sample
        g = DirectedGraph(100, [(0, leaf) for leaf in range(1, 100)])
        cfg = MpcConfig("nearlinear", polylog_budget=1.0)
        pair, rho, ledger = mpc_nearlinear_run(g, Fraction(1, 64),
                                               sample_params(100, 0.2, f=1 / 100), cfg,
                                               rng=np.random.default_rng(0))
        assert ledger.phases <= 2
        assert ledger.log[0].flip_peels >= 1
        assert rho >= (99 / math.sqrt(99)) / (2 * 1.2**3)

    def test_phases_record_flip_peels_and_rounds(self):
        # cost model: the flip-peel degree tally adds one charge per phase,
        # and a phase whose flip-peel empties a side is charged that alone
        g = gnp_directed(60, 0.8, seed=4)
        pref = gen_pref_attach(300, 20, seed=1)
        pref_cfg = MpcConfig("nearlinear", polylog_budget=2.0)
        pref_params = sample_params(pref.n, 0.2, f=1 / 3000)
        cases = [
            (g, 1, MpcConfig("nearlinear", polylog_budget=3.0), sample_params(g.n, 0.5, f=1 / 4000)),
            (pref, Fraction(256, 75), pref_cfg, pref_params),   # a draw, then a dead phase
            (pref, Fraction(4096, 75), pref_cfg, pref_params),  # a draw, then the final fetch
        ]
        charges = {"dead": 1, "final": 3, "draw": 4}
        seen = set()
        for graph, c, cfg, params in cases:
            _, _, ledger = mpc_nearlinear_run(graph, c, params, cfg,
                                              rng=np.random.default_rng(1))
            kinds = []
            for rec in ledger.log:
                if not (rec.s_size and rec.t_size):
                    assert rec.local_finish and rec.edges_fetched == rec.e_rel_after == 0
                    kinds.append("dead")
                else:
                    kinds.append("final" if rec.local_finish else "draw")
            assert ledger.rounds == sum(charges[kind] for kind in kinds)
            seen.update(kinds)
        assert seen == set(charges)

    def test_shrinking_sides_shrink_fetches(self):
        # two draw phases, at (|S|, |T|) = (11, 200) and (11, 71), then a
        # flip-peel empties S
        g = gnp_directed(200, 0.3, seed=6)
        cfg = MpcConfig("nearlinear", polylog_budget=1.0)
        params = sample_params(g.n, 0.2, f=1 / 4000)
        _, _, ledger = mpc_nearlinear_run(g, Fraction(2, 25), params, cfg,
                                          rng=np.random.default_rng(1))
        nonfinal = [rec for rec in ledger.log if not rec.local_finish]
        assert len(nonfinal) >= 2
        assert nonfinal[-1].s_size + nonfinal[-1].t_size \
            <= nonfinal[0].s_size + nonfinal[0].t_size

    @pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(3, 2)])
    def test_a_phase_inside_a_sampled_step_restarts_the_step(self, c):
        # n * xi = 2 against 7 parallel self-loops: a sampled step's fresh
        # draw runs out of installments, and the next phase's flip-peel
        # moves the pair (here to an empty side) before the step peels;
        # the step used to peel the new pair from the old pair's sample,
        # and its kernel, given an empty side, yielded no step
        g = DirectedGraph(2, [(0, 0)] * 7)
        params = sample_params(g.n, 0.2, f=1 / 3000)
        for pool in (None, (g.src, g.dst)):
            pair, rho, ledger = mpc_nearlinear_run(g, c, params,
                                                   MpcConfig("nearlinear", polylog_budget=1.0),
                                                   rng=np.random.default_rng(0), pool=pool)
            assert (sorted(pair.S), sorted(pair.T), rho) == ([0], [0], 7.0)
            assert ledger.phases >= 2

    @pytest.mark.parametrize("c", [Fraction(1, 8), Fraction(1), Fraction(8)])
    def test_flip_peel_reads_only_the_edges_inside_the_pair(self, c):
        # the graph and its subgraph inside the start pair must peel alike,
        # whichever side the start pair has already shrunk
        def flip_peel(graph, s_mask, t_mask):
            engine = SinglePassEngine(graph.n, c, sample_params(graph.n, 0.2),
                                      np.random.default_rng(0),
                                      shared=SharedPeel(graph.src, graph.dst, graph.n, (c,), 0.2))
            engine.set_pair(s_mask, t_mask)
            controller = _PhaseController(graph, MpcConfig("nearlinear"), engine,
                                          _PoolOrder(graph.src, graph.dst), RoundLedger())
            peels = controller._flip_peel()
            return peels, engine.s_mask.tolist(), engine.t_mask.tolist(), engine.best_value

        g = gnp_directed(40, 0.3, seed=7)
        ids = np.arange(g.n)
        everyone = np.ones(g.n, dtype=bool)
        for s_mask, t_mask in ((ids < 30, everyone), (everyone, ids >= 12),
                               (ids % 2 == 0, ids % 3 != 0)):
            inside = s_mask[g.src] & t_mask[g.dst]
            sub = DirectedGraph.from_arrays(g.n, g.src[inside], g.dst[inside])
            assert flip_peel(g, s_mask, t_mask) == flip_peel(sub, s_mask, t_mask)

    def test_standalone_flip_peels_copy_no_edge_of_the_graph(self, monkeypatch):
        """A run given no shared peel builds its own over g, so its
        flip-peels away from (V, V) read g's arrays with their degrees: no
        edge filter is passed g's own arrays as its bag."""
        import dirdense.peeling as peeling
        import dirdense.streaming as streaming

        g = gen_pref_attach(2000, 500, 0)
        params = sample_params(g.n, 0.2, f=1 / 2000)
        cfg = MpcConfig("nearlinear", polylog_budget=20)
        filters, starts = [], []
        inside, steps = peeling._inside, SharedPeel.steps

        def record_filter(src, dst, s_mask, t_mask):
            filters.append(np.shares_memory(src, g.src) or np.shares_memory(dst, g.dst))
            return inside(src, dst, s_mask, t_mask)

        def record_steps(peel, c, n, m, epsilon, start=None):
            starts.append(start is not None and not (start[0].all() and start[1].all()))
            return steps(peel, c, n, m, epsilon, start)

        for module in (peeling, streaming):
            monkeypatch.setattr(module, "_inside", record_filter)
        monkeypatch.setattr(SharedPeel, "steps", record_steps)
        for i, c in enumerate(build_grid(g.n, 2)[11::3]):
            mpc_nearlinear_run(g, c, params, cfg, rng=np.random.default_rng(i))
        assert filters and not any(filters)
        assert starts.count(True) == 4  # each run flip-peels once away from (V, V)


@pytest.mark.parametrize("algo", ["mpc-super", "mpc-near"])
def test_reported_density_is_the_exact_density(monkeypatch, algo):
    # a row whose best came from an exact peel reports the engine's own
    # count; one whose best is a sampled estimate is recounted on g
    import dirdense.mpc as mpc_mod

    recounts = []
    recount = mpc_mod.density

    def record(graph, pair):
        recounts.append(pair)
        return recount(graph, pair)

    monkeypatch.setattr(mpc_mod, "density", record)
    g = gen_pref_attach(2000, 50, 3)
    rows = []
    for f in (1 / 30, 1 / 3000):
        rows += sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, f=f, seed=1).rows
    assert all(row.error is None for row in rows)
    assert [repr(row.density) for row in rows] == [repr(recount(g, row.pair)) for row in rows]
    assert 0 < len(recounts) < len(rows)  # both kinds of cell are covered


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

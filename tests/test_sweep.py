import hashlib
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dirdense.bench import gen_pref_attach
from dirdense.graph import DirectedGraph
from dirdense.mpc import (MpcConfig, RelevantEdgeSet, _PoolOrder, mpc_nearlinear_run,
                          mpc_superlinear_run)
from dirdense.peeling import SharedPeel, _exact_bag_peels, exact_oracle
from dirdense.streaming import SinglePassEngine, _shuffled_edges, sample_params
from dirdense.csweep import RUNNERS, build_grid, sweep
from tests.support import gnp_directed, placed_in_full, record_shared_walks, step_key


class TestBuildGrid:
    def test_powers_of_two_n8(self):
        grid = build_grid(8, 2)
        assert list(grid) == [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
                              Fraction(1), Fraction(2), Fraction(4), Fraction(8)]

    def test_single_vertex(self):
        assert list(build_grid(1, 2)) == [Fraction(1)]

    def test_n100_endpoints_and_count(self):
        grid = build_grid(100, 2)
        assert len(grid) == 15
        assert grid[0] == Fraction(1, 100)
        assert grid[-1] == Fraction(2**14, 100)
        assert grid[-1] >= 100
        assert grid[-2] < 100

    def test_consecutive_ratio_is_delta(self):
        grid = build_grid(30, 1.5)
        for lo, hi in zip(grid, grid[1:]):
            assert hi / lo == Fraction(1.5)

    def test_float_delta_keeps_denominators_bounded(self):
        n = 10**5
        grid = build_grid(n, 1.1)
        assert grid[0] == Fraction(1, n)
        assert grid[-1] >= n > grid[-2]
        assert all(lo < hi for lo, hi in zip(grid, grid[1:]))
        assert max(c.denominator.bit_length() for c in grid) <= 64

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="n must be positive"):
            build_grid(0, 2)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            build_grid(10, 1.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite"):
            build_grid(10, delta)

    @pytest.mark.parametrize("n", [2, 7, 16, 33, 50])
    def test_covers_every_rational_ratio(self, n):
        # every candidate optimum a/b with 1 <= a, b <= n has a grid value
        # within a multiplicative delta on either side
        delta = Fraction(2)
        grid = build_grid(n, 2)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                target = Fraction(a, b)
                assert any(target / delta <= c <= target * delta for c in grid)


def _walk_start(walk):
    """A recorded shared walk's start pair as mask bytes, None for (V, V)."""
    s_mask, t_mask = walk[0][5:7]
    return None if s_mask.all() and t_mask.all() else (s_mask.tobytes(), t_mask.tobytes())


def _record_ledgers(monkeypatch):
    """Record each sweep runner call's ledger under its guess c."""
    import dirdense.csweep as sweep_mod

    ledgers = {}
    # each runner with the position of c among its arguments
    for name, at in (("baseline_peel", 1), ("multi_pass_run", 2), ("single_pass_run", 2),
                     ("mpc_superlinear_run", 1), ("mpc_nearlinear_run", 1)):
        def record(*args, _run=getattr(sweep_mod, name), _at=at, **kwargs):
            result = _run(*args, **kwargs)
            ledgers[args[_at]] = result[2]
            return result

        monkeypatch.setattr(sweep_mod, name, record)
    return ledgers


def _row_key(row):
    pair = None if row.pair is None else (sorted(row.pair.S), sorted(row.pair.T))
    return (row.c, pair, row.density, row.s_size, row.t_size, row.peak_edges,
            row.passes_or_rounds, row.error)


class TestSweep:
    def test_single_edge_any_runner(self):
        g = DirectedGraph(2, [(0, 1)])
        grid = build_grid(2, 2)
        for algo in ("baseline", "multi-pass", "single-pass"):
            res = sweep(algo, g, grid, epsilon=0.2, seed=1)
            assert res.best_density == 1.0
            assert len(res.rows) == len(grid)

    def test_emits_one_row_per_grid_value(self):
        g = DirectedGraph(3, [(0, 1), (0, 2)])
        grid = build_grid(3, 2)
        res = sweep("baseline", g, grid, epsilon=0.2)
        assert [row.c for row in res.rows] == list(grid)

    def test_best_matches_rowwise_maximum(self):
        g = gnp_directed(12, 0.4, seed=2)
        res = sweep("baseline", g, build_grid(12, 2), epsilon=0.2)
        top = max(row.density for row in res.rows)
        assert res.best_density == top
        assert res.best_row.c == next(r.c for r in res.rows if r.density == top)

    def test_ties_resolve_to_smaller_c(self):
        g = DirectedGraph(2, [(0, 1)])
        res = sweep("baseline", g, build_grid(2, 2), epsilon=0.2)
        winners = [r.c for r in res.rows if r.density == res.best_density]
        assert res.best_row.c == min(winners)

    @pytest.mark.parametrize("epsilon", [0, 1e-300])
    def test_degenerate_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            sweep("baseline", DirectedGraph(2, [(0, 1)]), build_grid(2, 2), epsilon=epsilon)

    @pytest.mark.parametrize("algo", RUNNERS)
    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_the_seed_range_rejected(self, algo, seed):
        g = gnp_directed(10, 0.4, seed=3)
        with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**63), got {seed}")):
            sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, seed=seed)
        assert sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, seed=seed % 2**63).best_row

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError):
            sweep("magic", DirectedGraph(2, [(0, 1)]), build_grid(2, 2), epsilon=0.2)

    @pytest.mark.parametrize("algo", RUNNERS)
    def test_unknown_stream_order_rejected_for_every_runner(self, algo, monkeypatch):
        import dirdense.csweep as sweep_mod

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        for name in ("baseline_peel", "multi_pass_run", "single_pass_run",
                     "mpc_superlinear_run", "mpc_nearlinear_run"):
            monkeypatch.setattr(sweep_mod, name, no_cell)
        with pytest.raises(ValueError, match="stream order 'bogus'"):
            sweep(algo, DirectedGraph(2, [(0, 1)]), build_grid(2, 2), epsilon=0.2,
                  stream_order="bogus")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep("baseline", DirectedGraph(2, [(0, 1)]), build_grid(2, 2), epsilon=0.2,
                  workers=workers)

    @pytest.mark.parametrize("algo,default", [
        ("mpc-super", MpcConfig("superlinear", mu=0.3)),
        ("mpc-near", MpcConfig("nearlinear")),
    ])
    def test_mpc_config_none_is_the_runner_default(self, algo, default):
        # epsilon 0.9 keeps both default machine memories below m = 2798
        g = gnp_directed(60, 0.8, seed=4)
        grid = build_grid(g.n, 2)
        implicit = sweep(algo, g, grid, epsilon=0.9, f=1 / 100, seed=3)
        explicit = sweep(algo, g, grid, epsilon=0.9, f=1 / 100, seed=3, mpc_config=default)
        assert [_row_key(r) for r in implicit.rows] == [_row_key(r) for r in explicit.rows]
        assert implicit.best_row.c == explicit.best_row.c

    def test_per_cell_errors_recorded_not_raised(self, monkeypatch):
        import dirdense.csweep as sweep_mod

        real = sweep_mod.baseline_peel
        calls = {"count": 0}

        def flaky(g, c, epsilon, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("boom")
            return real(g, c, epsilon, **kwargs)

        monkeypatch.setattr(sweep_mod, "baseline_peel", flaky)
        g = DirectedGraph(2, [(0, 1)])
        res = sweep("baseline", g, build_grid(2, 2), epsilon=0.2)
        errors = [r for r in res.rows if r.error is not None]
        assert len(errors) == 1
        assert "boom" in errors[0].error
        assert len(res.rows) == 3
        assert res.best_density == 1.0

    def test_worker_count_does_not_change_results(self):
        # more workers than cores and frequent thread switches, so cells that
        # shared a stream cursor would interleave their reads
        g = gnp_directed(13, 0.4, seed=5)
        grid = build_grid(13, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        # machine memories of 21 and 13 edges against m = 61, so MPC cells
        # draw several times from the one read-only pool they share
        configs = {"mpc-super": MpcConfig("superlinear", mu=0.2),
                   "mpc-near": MpcConfig("nearlinear", polylog_budget=1.0)}
        try:
            for algo in ("single-pass", "multi-pass", "mpc-super", "mpc-near"):
                cfg = configs.get(algo)
                serial = sweep(algo, g, grid, epsilon=0.2, seed=7, mpc_config=cfg, workers=1)
                threaded = sweep(algo, g, grid, epsilon=0.2, seed=7, mpc_config=cfg, workers=4)
                assert [_row_key(r) for r in serial.rows] == [_row_key(r) for r in threaded.rows]
                assert serial.best_row.c == threaded.best_row.c
        finally:
            sys.setswitchinterval(interval)

    def test_baseline_sweep_meets_oracle_bound(self):
        eps, delta = 0.2, 2
        bound_factor = 2 * (1 + eps) ** 3 * math.sqrt(delta)
        for seed in range(20):
            n = 4 + seed % 11
            g = gnp_directed(n, (0.1, 0.3, 0.6)[seed % 3], seed)
            _, oracle_rho = exact_oracle(g)
            res = sweep("baseline", g, build_grid(n, delta), epsilon=eps)
            assert res.best_density >= oracle_rho / bound_factor - 1e-12


# sha256 of the sweep rows below, one per runner group: a refactor of the peel
# kernel or a runner must keep every row bit-identical, so only a change that
# means to change results may record a new value. The MPC digest was
# re-recorded when MPC sweeps began drawing from one pool per sweep, ordered
# by the sweep's stream seed; the streaming digest is unchanged by that. The
# streaming digest was re-recorded when a single-pass finish stopped charging
# a static stream's whole unread rest to ``peak_edges``.
_ROWS_FINGERPRINTS = {
    ("baseline", "multi-pass", "single-pass"):
        "810eda6a3181ca1f147440f2f0c5064c3328fcf898e89d8b379b9c1b07fae834",
    ("mpc-super", "mpc-near"):
        "9172fcefdaa53d9fa8393f07dd211d33a7fb5bde5ce3514d73bd31db4968d4c6",
}


@pytest.mark.parametrize("algos", list(_ROWS_FINGERPRINTS))
def test_sweep_rows_match_recorded_fingerprint(algos):
    g = gen_pref_attach(2000, 50, 3)
    h = hashlib.sha256()
    for f in (1 / 30, 1 / 3000):
        for algo in algos:
            for row in sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, f=f, seed=1).rows:
                pair = None if row.pair is None else (sorted(row.pair.S), sorted(row.pair.T))
                h.update(repr((algo, f, str(row.c), pair, repr(row.density), row.peak_edges,
                               row.passes_or_rounds)).encode())
    assert h.hexdigest() == _ROWS_FINGERPRINTS[algos]


# sha256 of standalone MPC runs: pair, density, rounds, peak and every phase
# record. Each run permutes its own pool, so the pool's counts are reached at
# (V, V), away from it without a flip-peel (mpc-super after a sampled step),
# and after flip-peels at the first draw phase and at later ones (mpc-near).
_MPC_LEDGERS_FINGERPRINT = "67d1bd4bab6e7cfe890fe1bcfcab3e1d12ee4b20ba0fd2204aa8d5b8327e1fef"


def test_mpc_ledgers_match_recorded_fingerprint():
    h = hashlib.sha256()
    configs = [(mpc_superlinear_run, MpcConfig("superlinear", mu=0.1))]
    configs += [(mpc_nearlinear_run, MpcConfig("nearlinear", polylog_budget=b)) for b in (1, 20)]
    for g in (gen_pref_attach(2000, 50, 3), gen_pref_attach(3000, 20, 1)):
        guesses = build_grid(g.n, 2)[::3]
        for f in (1 / 2000, 1 / 20000):
            params = sample_params(g.n, 0.2, f)
            for run, cfg in configs:
                for i, c in enumerate(guesses):
                    pair, rho, ledger = run(g, c, params, cfg, rng=np.random.default_rng(i))
                    h.update(repr((cfg, f, str(c), sorted(pair.S), sorted(pair.T), repr(rho),
                                   ledger.rounds, ledger.peak_edges, repr(ledger.log))).encode())
    assert h.hexdigest() == _MPC_LEDGERS_FINGERPRINT


def _record_pool_orders(monkeypatch):
    """Record every pool order drawn from a seed, by a sweep or a
    standalone MPC run, with its seed and the slots placed after each of
    its extensions; returns that list."""
    import dirdense.csweep as sweep_mod
    import dirdense.mpc as mpc_mod

    orders = []

    class Recorded(mpc_mod._PoolOrder):
        def __init__(self, src, dst, seed=None):
            super().__init__(src, dst, seed)
            self.recorded_seed, self.extensions = seed, []
            if seed is not None:
                orders.append(self)

        def _extend(self):
            super()._extend()
            self.extensions.append(self.placed)

    for module in (sweep_mod, mpc_mod):
        monkeypatch.setattr(module, "_PoolOrder", Recorded)
    return orders


def _counting_rngs(monkeypatch):
    """Make every generator made from here on count its permutations and
    the items of each shuffle; returns (permutations, shuffles)."""
    permutations, shuffles = [], []
    make_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, *args):
            self._rng = make_rng(*args)

        def permutation(self, x):
            permutations.append(x)
            return self._rng.permutation(x)

        def shuffle(self, x, *args, **kwargs):
            shuffles.append(len(x))
            return self._rng.shuffle(x, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    return permutations, shuffles


class TestLazyPoolOrder:
    """An MPC pool order placed lazily gives what the same order gives when
    it is placed in full up front and handed over as a plain pool: the
    laziness changes how the order is realized, and nothing else. With a
    head of 2**10 slots, the digest graphs' orders place the head and then
    the rest; at the default 2**14 their first extension shuffles every
    edge, as it does for any m below 2**18."""

    @staticmethod
    def placed(g, order, first_chunk):
        """``order`` placed in full, checked against the same seed's order
        placed by one reader: the realization depends on the seed and m
        alone, not on the workers or the order of their requests."""
        import dirdense.mpc as mpc_mod

        pool = placed_in_full(order)
        fresh = _PoolOrder(g.src, g.dst, order.recorded_seed)
        assert all(np.array_equal(a, b) for a, b in zip(pool, placed_in_full(fresh)))
        if first_chunk <= g.m * mpc_mod._SHUFFLE_SHARE:
            # the head, then the rest
            assert order.extensions == [first_chunk, g.m]
        else:
            # one shuffle of all m edges, so the order of a shuffled stream
            assert order.extensions == [g.m]
            assert all(np.array_equal(a, b)
                       for a, b in zip(pool, _shuffled_edges(g, order.recorded_seed)))
        return pool

    def compare_sweeps(self, monkeypatch, g, configs, workers, first_chunk=1 << 14):
        """Rows, densities and ledgers of each (algo, f, MPC config) sweep
        of g at seed 1, lazily and with its order placed in full."""
        import dirdense.csweep as sweep_mod
        import dirdense.mpc as mpc_mod

        monkeypatch.setattr(mpc_mod, "_FIRST_CHUNK", first_chunk)
        ledgers = _record_ledgers(monkeypatch)
        lazy_runs = 0
        for algo, f, cfg in configs:
            def run():
                ledgers.clear()
                res = sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, f=f, seed=1,
                            mpc_config=cfg, workers=workers)
                assert all(row.error is None for row in res.rows)
                return ([_row_key(r) for r in res.rows], [repr(r.density) for r in res.rows],
                        {c: repr(ledger) for c, ledger in ledgers.items()})

            with monkeypatch.context() as patch:
                orders = _record_pool_orders(patch)
                lazy = run()
            if not orders:  # an order-blind sweep reads g's own arrays
                continue
            [order] = orders
            lazy_runs += order.placed < g.m
            pool = self.placed(g, order, first_chunk)
            with monkeypatch.context() as patch:
                patch.setattr(sweep_mod, "_PoolOrder", lambda src, dst, seed: _PoolOrder(*pool))
                assert run() == lazy
        return lazy_runs

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("first_chunk", [1 << 14, 1 << 10])
    def test_sweeps_at_the_rows_digest_configs(self, monkeypatch, workers, first_chunk):
        configs = [(algo, f, None) for f in (1 / 30, 1 / 3000)
                   for algo in ("mpc-super", "mpc-near")]
        self.compare_sweeps(monkeypatch, gen_pref_attach(2000, 50, 3), configs, workers,
                            first_chunk)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_mpc_near_benchmark_sweep(self, monkeypatch, workers):
        # its cells read only a prefix of the order, so part of it stays unplaced
        configs = [("mpc-near", 1 / 2000, MpcConfig("nearlinear", polylog_budget=20))]
        assert self.compare_sweeps(monkeypatch, gen_pref_attach(2000, 500, 0), configs,
                                   workers) == 1

    @pytest.mark.parametrize("first_chunk", [1 << 14, 1 << 10])
    def test_standalone_runs_at_the_ledgers_digest_configs(self, monkeypatch, first_chunk):
        import dirdense.mpc as mpc_mod

        monkeypatch.setattr(mpc_mod, "_FIRST_CHUNK", first_chunk)
        configs = [(mpc_superlinear_run, MpcConfig("superlinear", mu=0.1))]
        configs += [(mpc_nearlinear_run, MpcConfig("nearlinear", polylog_budget=b))
                    for b in (1, 20)]
        orders = _record_pool_orders(monkeypatch)
        for g in (gen_pref_attach(2000, 50, 3), gen_pref_attach(3000, 20, 1)):
            for f in (1 / 2000, 1 / 20000):
                params = sample_params(g.n, 0.2, f)
                for run, cfg in configs:
                    for i, c in enumerate(build_grid(g.n, 2)[::3]):
                        results = [run(g, c, params, cfg, rng=np.random.default_rng(i))]
                        [order] = orders
                        orders.clear()
                        pool = self.placed(g, order, first_chunk)
                        results.append(run(g, c, params, cfg, rng=np.random.default_rng(i),
                                           pool=pool))
                        assert orders == []
                        lazy, placed = ((pair, repr(rho), repr(ledger))
                                        for pair, rho, ledger in results)
                        assert lazy == placed


class TestSharedStream:
    @pytest.fixture
    def streams(self, monkeypatch):
        """Record every stream the sweep builds and every stream a runner reads."""
        import dirdense.csweep as sweep_mod

        built, read = [], []
        make_stream = sweep_mod.make_stream

        def record_built(*args, **kwargs):
            built.append(make_stream(*args, **kwargs))
            return built[-1]

        def record_read(runner):
            def run(stream, *args, **kwargs):
                read.append(stream)
                return runner(stream, *args, **kwargs)
            return run

        monkeypatch.setattr(sweep_mod, "make_stream", record_built)
        for name in ("single_pass_run", "multi_pass_run"):
            monkeypatch.setattr(sweep_mod, name, record_read(getattr(sweep_mod, name)))
        return built, read

    @pytest.mark.parametrize("algo,builds", [("single-pass", 1), ("multi-pass", 1), ("baseline", 0),
                                             ("mpc-super", 0), ("mpc-near", 0)])
    def test_one_stream_per_streaming_sweep(self, streams, algo, builds):
        g = gnp_directed(10, 0.4, seed=3)
        sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, seed=4)
        assert len(streams[0]) == builds

    @pytest.mark.parametrize("algo,cfg", [("mpc-super", MpcConfig("superlinear", mu=0.2)),
                                          ("mpc-near", MpcConfig("nearlinear", polylog_budget=2.0))])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_mpc_sweep_builds_its_pool_once_and_no_cell_permutes(self, streams, monkeypatch,
                                                                 algo, cfg, workers):
        import dirdense.csweep as sweep_mod

        built = streams[0]
        orders, buffers = [], []
        pool_order = sweep_mod._PoolOrder
        draw = RelevantEdgeSet.draw

        def record_order(*args):
            orders.append(pool_order(*args))
            return orders[-1]

        def record_draw(rel, k):
            drawn = draw(rel, k)
            if rel._edges.edges_read:
                buffers.append((rel._order, rel._edges._src, rel._edges._dst))
            return drawn

        monkeypatch.setattr(sweep_mod, "_PoolOrder", record_order)
        monkeypatch.setattr(RelevantEdgeSet, "draw", record_draw)
        permutations, shuffles = _counting_rngs(monkeypatch)
        g = gnp_directed(60, 0.8, seed=4)  # machine memories of 136 and 120 edges, m = 2798
        # at epsilon = 0.5 every mpc-near cell's first flip-peel empties a
        # side, so no cell would read the pool
        epsilon = 0.5 if algo == "mpc-super" else 0.2
        res = sweep(algo, g, build_grid(g.n, 2), epsilon=epsilon, f=1 / 4000, seed=6,
                    mpc_config=cfg, workers=workers)
        assert all(row.error is None for row in res.rows)
        # one order, placed by one shuffle of all m edges at its first
        # extension (its head would pass m / 16), and no cell permutes
        assert len(orders) == 1 and shuffles == [g.m] and not permutations and not built
        # every cell that reads the pool reads the one order through read-only views
        assert buffers
        for order, src, dst in buffers:
            assert order is orders[0]
            assert not src.flags.writeable and not dst.flags.writeable
            assert np.shares_memory(src, order.src) and np.shares_memory(dst, order.dst)

    @pytest.mark.parametrize("order", ["shuffled", "given"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_single_pass_cells_read_fresh_read_only_streams(self, streams, order, workers):
        built, read = streams
        g = gnp_directed(20, 0.3, seed=8)
        grid = build_grid(g.n, 2)
        sweep("single-pass", g, grid, epsilon=0.2, f=0.01, seed=2, stream_order=order, workers=workers)
        assert len(built) == 1 and len(read) == len(grid)
        assert len({id(s) for s in read}) == len(grid)
        for stream in read:
            assert stream.resets == 0
            assert 0 < stream.edges_read <= g.m
        src, dst = built[0].replay().take_all()
        assert src.size == g.m
        assert not src.flags.writeable and not dst.flags.writeable


class TestOrderBlindSweep:
    """A single-pass or mpc-super sweep whose every cell ends its first step
    at (V, V) in the exact peel reads g's own arrays, unpermuted."""

    @pytest.fixture(scope="class")
    def pref10k(self):
        return gen_pref_attach(10_000, 10, 3)

    @pytest.fixture
    def permutations(self, monkeypatch):
        """The edge count of every permutation of the edges a sweep makes:
        a shuffled stream, or an MPC pool order drawn from a seed."""
        import dirdense.csweep as sweep_mod
        import dirdense.streaming as streaming

        calls = []
        shuffled_edges, pool_order = streaming._shuffled_edges, sweep_mod._PoolOrder

        def record(g, seed):
            calls.append(g.m)
            return shuffled_edges(g, seed)

        def record_order(src, dst, seed=None):
            if seed is not None:
                calls.append(src.size)
            return pool_order(src, dst, seed)

        monkeypatch.setattr(streaming, "_shuffled_edges", record)
        monkeypatch.setattr(sweep_mod, "_PoolOrder", record_order)
        return calls

    # single-pass: n * xi = 4,610,000 >= m = 99,990, one batch reads the
    # stream; mpc-super: a first batch of 70,000 over three machine-loads,
    # then p > 1
    BLIND = [("single-pass", 1 / 30, None),
             ("mpc-super", 1 / 2000, MpcConfig("superlinear", mu=0.1))]

    @pytest.mark.parametrize("algo,f,cfg", BLIND)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_rows_and_ledgers_equal_those_of_the_permuted_sweep(self, monkeypatch, permutations,
                                                                pref10k, algo, f, cfg, workers):
        g, grid = pref10k, build_grid(pref10k.n, 2)
        assert SinglePassEngine(g.n, 1, sample_params(g.n, 0.2, f), None).order_blind(g.m)
        ledgers = _record_ledgers(monkeypatch)

        def run():
            ledgers.clear()
            res = sweep(algo, g, grid, epsilon=0.2, f=f, seed=1, mpc_config=cfg, workers=workers)
            assert all(row.error is None for row in res.rows)
            return [_row_key(r) for r in res.rows], [repr(r.density) for r in res.rows], \
                dict(ledgers)

        blind = run()
        assert permutations == []
        monkeypatch.setattr(SinglePassEngine, "order_blind", lambda engine, m: False)
        assert run() == blind
        assert permutations == [g.m]

    @pytest.mark.parametrize("algo,f", [("single-pass", 1 / 3000), ("multi-pass", 1 / 30),
                                        ("mpc-near", 1 / 30)])
    def test_a_sweep_whose_first_read_sees_the_order_permutes_once(self, permutations, algo, f):
        # single-pass at f = 1/3000 samples; multi-pass and mpc-near order
        # their edges even at f = 1/30, where a single-pass sweep would not
        g = gen_pref_attach(2000, 50, 3)
        res = sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, f=f, seed=1)
        assert all(row.error is None for row in res.rows)
        assert permutations == [g.m]

    @pytest.mark.parametrize("algo,f,cfg", BLIND)
    def test_finishing_bags_are_views_of_the_graphs_arrays(self, monkeypatch, pref10k, algo, f,
                                                           cfg):
        # the draws of an mpc-super cell are joined as views, not copied
        # into a new bag, which is what would make g's own order cost more
        # than a permuted one
        bags = []
        local_peel = SinglePassEngine._local_peel

        def spy(engine, edge_src, edge_dst):
            bags.append((edge_src, edge_dst))
            return local_peel(engine, edge_src, edge_dst)

        monkeypatch.setattr(SinglePassEngine, "_local_peel", spy)
        g, grid = pref10k, build_grid(pref10k.n, 2)
        sweep(algo, g, grid, epsilon=0.2, f=f, seed=1, mpc_config=cfg)
        assert len(bags) == len(grid)
        for src, dst in bags:
            assert src.size == dst.size == g.m
            assert np.shares_memory(src, g.src) and np.shares_memory(dst, g.dst)


class TestKernelBags:
    """Every call of the peel kernel that does not rescan, a runner's own or
    a shared walk's, peels a bag it may read without a filter: one whose
    every edge lies inside its start pair, or a ``SharedPeel``'s own bag
    with that peel's own degree counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """One (start at (V, V), rescan, bag edges outside the start pair,
        degrees given, bag and degrees a shared peel's own, the degrees its
        bag's bincounts and the offsets, if given, its bag's by-source
        offsets) per kernel call, taken when the call is made."""
        import dirdense.peeling as peeling
        import dirdense.streaming as streaming

        calls, shared = [], []
        kernel, init = peeling._exact_bag_peels, SharedPeel.__init__

        def record_shared(peel, *args, **kwargs):
            init(peel, *args, **kwargs)
            shared.append(peel)

        def peels(src, dst, n, cs, epsilon, s_mask, t_mask, *, degrees=None, offsets=None,
                  rescan=False):
            outside = int(np.count_nonzero(~(s_mask[src] & t_mask[dst])))
            given = degrees is not None
            own = given and any(degrees is peel._degrees and src is peel._bag[0]
                                and dst is peel._bag[1] for peel in shared)
            counted = given and all(np.array_equal(count, np.bincount(ends, minlength=n))
                                    for count, ends in zip(degrees, (src, dst)))
            rows = offsets is None or (
                given and not np.any(np.diff(src) < 0)
                and np.array_equal(offsets, np.searchsorted(src, np.arange(n + 1))))
            calls.append((bool(s_mask.all() and t_mask.all()), rescan, outside, given,
                          own and counted and rows))
            return kernel(src, dst, n, cs, epsilon, s_mask, t_mask, degrees=degrees,
                          offsets=offsets, rescan=rescan)

        monkeypatch.setattr(SharedPeel, "__init__", record_shared)
        for module in (peeling, streaming):
            monkeypatch.setattr(module, "_exact_bag_peels", peels)
        return calls

    @pytest.fixture(scope="class")
    def pref(self):
        return gen_pref_attach(2000, 50, 3)

    @staticmethod
    def check(calls, *, away=False):
        """Every compacting call given degrees read a shared peel's own bag,
        counts and offsets, and no bag edge lay outside any other compacting
        call's pair; with ``away``, some compacting call started away from
        (V, V)."""
        assert calls
        for _, rescan, outside, given, own in calls:
            assert rescan or (own if given else not outside)
        assert not away or any(not (root or rescan) for root, rescan, *_ in calls)

    @pytest.mark.parametrize("algo", RUNNERS)
    @pytest.mark.parametrize("f", [1 / 30, 1 / 3000])
    def test_every_runner_at_the_fingerprint_configs(self, calls, pref, algo, f):
        res = sweep(algo, pref, build_grid(pref.n, 2), epsilon=0.2, f=f, seed=1)
        assert all(row.error is None for row in res.rows)
        self.check(calls)

    def test_mpc_near_flip_peels_away_from_the_root(self, calls, pref):
        # 40,000 words a machine < m = 100,000: phases flip-peel from the
        # pairs the sampled steps reach
        res = sweep("mpc-near", pref, build_grid(pref.n, 2), epsilon=0.2, f=1 / 2000, seed=1,
                    mpc_config=MpcConfig("nearlinear", polylog_budget=20))
        assert all(row.error is None for row in res.rows)
        self.check(calls, away=True)

    def test_a_run_without_a_shared_peel(self, calls, pref):
        params = sample_params(pref.n, 0.2, f=1 / 2000)
        cfg = MpcConfig("nearlinear", polylog_budget=20)
        for i, c in enumerate(build_grid(pref.n, 2)[::4]):
            mpc_nearlinear_run(pref, c, params, cfg, rng=np.random.default_rng(i), shared=None)
        self.check(calls, away=True)


class TestSharedPeel:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Every shared peel walk the sweep runs, with the steps it yielded."""
        return record_shared_walks(monkeypatch)

    @pytest.fixture(scope="class")
    def pref(self):
        return gen_pref_attach(2000, 50, 3)

    @pytest.fixture(scope="class")
    def pref10k(self):
        return gen_pref_attach(10_000, 10, 3)

    @pytest.fixture(scope="class")
    def dense2k(self):
        return gen_pref_attach(2000, 500, 0)

    # Sweeps whose every cell peels the whole graph from (V, V), as
    # (algo, graph fixture, f, MPC config). Single-pass at f = 1/30:
    # n * xi = 762,000 >= m = 100,000, so each cell reads its stream in one
    # batch. mpc-super at mu = 0.1, f = 1/2000: the first batch of n * xi =
    # 70,000 spans three machine-loads of 25,118 at (V, V), then p > 1 and
    # the pool of m = 99,990 is drained and peeled exactly.
    EXACT_SWEEPS = [("baseline", "pref", 1 / 30, None),
                    ("single-pass", "pref", 1 / 30, None),
                    ("mpc-super", "pref10k", 1 / 2000, MpcConfig("superlinear", mu=0.1))]

    @pytest.mark.parametrize("algo,graph,f,cfg", EXACT_SWEEPS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_walk_per_exact_sweep(self, request, walks, algo, graph, f, cfg, workers):
        g = request.getfixturevalue(graph)
        res = sweep(algo, g, build_grid(g.n, 2), epsilon=0.2, f=f, seed=1, mpc_config=cfg,
                    workers=workers)
        assert all(row.error is None for row in res.rows)
        assert all(row.peak_edges == g.m for row in res.rows)
        [(args, kwargs, walked)] = walks
        assert kwargs["rescan"] == (algo == "baseline")
        # one walk, which the first reader drained
        whole = list(_exact_bag_peels(*args, **kwargs))
        assert [step_key(step) for step in walked] == [step_key(step) for step in whole]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mpc_near_sweep_walks_only_the_root_runs(self, walks, pref, workers):
        res = sweep("mpc-near", pref, build_grid(pref.n, 2), epsilon=0.2, f=1 / 2000, seed=1,
                    workers=workers)
        assert all(row.error is None for row in res.rows)
        [(args, kwargs, walked)] = walks
        # each step peels one side of (V, V), so no compacted bag was read
        assert walked and all(pref.n in (step.s_count, step.t_count) for step in walked)
        whole = list(_exact_bag_peels(*args, **kwargs))
        assert [step_key(step) for step in walked] == [step_key(s) for s in whole[:len(walked)]]
        assert len(walked) < len(whole)

    @pytest.mark.parametrize("algo,f", [("single-pass", 1 / 3000), ("multi-pass", 1 / 30),
                                        ("mpc-super", 1 / 2000)])
    def test_no_walk_where_no_cell_peels_the_whole_graph_exactly(self, walks, pref, algo, f):
        # single-pass at f = 1/3000: n * xi = 8,000 < m, so every cell samples
        res = sweep(algo, pref, build_grid(pref.n, 2), epsilon=0.2, f=f, seed=1)
        assert all(row.error is None for row in res.rows)
        assert not walks

    @pytest.mark.parametrize("algo,graph,f,cfg", [
        ("baseline", "pref", 1.0, None), ("single-pass", "pref", 1 / 30, None),
        ("single-pass", "pref", 1 / 3000, None), EXACT_SWEEPS[2],
        ("mpc-near", "pref", 1 / 2000, None),
        ("mpc-near", "dense2k", 1 / 2000, MpcConfig("nearlinear", polylog_budget=20))])
    @pytest.mark.parametrize("order", ["shuffled", "given"])
    def test_rows_equal_cells_run_without_it(self, request, monkeypatch, algo, graph, f, cfg,
                                             order):
        """Rows, densities and ledgers, with 1 and 4 workers, equal those of
        a sweep that shares no peel walk."""
        import dirdense.csweep as sweep_mod

        g = request.getfixturevalue(graph)
        grid = build_grid(g.n, 2)
        ledgers = _record_ledgers(monkeypatch)

        def run(workers):
            ledgers.clear()
            res = sweep(algo, g, grid, epsilon=0.2, f=f, seed=1, stream_order=order,
                        mpc_config=cfg, workers=workers)
            return [_row_key(r) for r in res.rows], [repr(r.density) for r in res.rows], \
                dict(ledgers)

        shared = [run(workers) for workers in (1, 4)]
        monkeypatch.setattr(sweep_mod, "SharedPeel", lambda *args, **kwargs: None)
        alone = run(1)
        assert len(alone[2]) == len(grid)
        assert shared == [alone, alone]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mpc_near_cells_copy_no_pool_edge_and_share_flip_peels(self, monkeypatch, walks,
                                                                  dense2k, workers):
        """Every cell's pool reads the sweep's one order, and every cell's
        arrays share memory with that order's buffers; one walk is built
        per distinct start pair of a flip-peel away from (V, V)."""
        import dirdense.csweep as sweep_mod

        orders, calls, flips, reads = [], [], [], []
        pool_order = sweep_mod._PoolOrder
        intersect, draw = RelevantEdgeSet.intersect_pair, RelevantEdgeSet.draw
        steps = SharedPeel.steps

        def record_order(*args):
            orders.append(pool_order(*args))
            return orders[-1]

        def record_call(rel, s_mask, t_mask, cross=None):
            if not (s_mask.all() and t_mask.all()):
                calls.append((rel.size, cross is not None))
            intersect(rel, s_mask, t_mask, cross)
            [order] = orders
            assert rel._order is order

        def record_draw(rel, k):
            drawn = draw(rel, k)
            [order] = orders
            if rel._edges.edges_read:
                buffers = rel._edges._src, rel._edges._dst
                reads.append(all(np.shares_memory(got, slots)
                                 for got, slots in zip(buffers, (order.src, order.dst))))
            return drawn

        def record_flip(peel, c, n, m, epsilon, start=None):
            if start is not None and not (start[0].all() and start[1].all()):
                flips.append((start[0].tobytes(), start[1].tobytes()))
            return steps(peel, c, n, m, epsilon, start)

        monkeypatch.setattr(sweep_mod, "_PoolOrder", record_order)
        monkeypatch.setattr(RelevantEdgeSet, "intersect_pair", record_call)
        monkeypatch.setattr(RelevantEdgeSet, "draw", record_draw)
        monkeypatch.setattr(SharedPeel, "steps", record_flip)
        res = sweep("mpc-near", dense2k, build_grid(dense2k.n, 2), epsilon=0.2, f=1 / 2000,
                    seed=0, mpc_config=MpcConfig("nearlinear", polylog_budget=20),
                    workers=workers)
        assert all(row.error is None for row in res.rows)
        # 11 cells narrow the whole pool, each counting it from its flip-peel
        assert [size for size, _ in calls].count(dense2k.m) == 11
        assert calls and all(counted for _, counted in calls)
        assert reads and all(reads)
        starts = [_walk_start(walk) for walk in walks if _walk_start(walk) is not None]
        assert len(starts) == len(set(starts)) and set(starts) == set(flips)
        assert len(flips) > len(starts)
        for args, _, walked in walks:  # each walk read only its start pair's first runs
            counts = int(args[5].sum()), int(args[6].sum())
            assert all(step.s_count == counts[0] or step.t_count == counts[1] for step in walked)

    def test_mpc_near_sweep_peak_holds_no_copy_of_the_pool(self, dense2k):
        """The traced peak of an mpc-near sweep: the pool order (16 MB) and
        the cells' own work. No per-pair copy of the pool is made, and the
        walks away from (V, V) read the graph's arrays with no copy of
        their pairs' edges (22.9 MiB measured); 46.7 MiB when those walks
        copied E(P), 76.7 MiB when pool filters were copies too."""
        grid = build_grid(dense2k.n, 2)
        cfg = MpcConfig("nearlinear", polylog_budget=20)
        tracemalloc.start()
        try:
            sweep("mpc-near", dense2k, grid, epsilon=0.2, f=1 / 2000, seed=0, mpc_config=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mpc_near_sweep_places_only_the_prefix_its_cells_read(self, monkeypatch, dense2k,
                                                                   seed):
        """No cell reads more than 12,169 of the 999,500 edges of
        gen_pref_attach(2000, 500, s) at sweep seed s, so the sweep's order
        places its head and shuffles nothing, and the traced peak stays
        under the bound of the test above."""
        g = dense2k if seed == 0 else gen_pref_attach(2000, 500, seed)
        orders = _record_pool_orders(monkeypatch)
        permutations, shuffles = _counting_rngs(monkeypatch)
        tracemalloc.start()
        try:
            res = sweep("mpc-near", g, build_grid(g.n, 2), epsilon=0.2, f=1 / 2000, seed=seed,
                        mpc_config=MpcConfig("nearlinear", polylog_budget=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.error is None for row in res.rows)
        [order] = orders
        assert 0 < order.placed <= 16_384 and not shuffles and not permutations
        assert peak < 32 * 2**20

    def test_a_run_with_its_own_pool_returns_what_it_returns_alone(self, walks, pref):
        """Given the sweep's peel but not its pool, each cell returns what it
        returns alone, its flip-peels away from (V, V) read included."""
        grid = build_grid(pref.n, 2)
        params = sample_params(pref.n, 0.2, f=1 / 2000)
        cfg = MpcConfig("nearlinear", polylog_budget=20)  # 40,000 < m = 100,000
        shared = SharedPeel(pref.src, pref.dst, pref.n, grid, params.epsilon)
        for i, c in enumerate(grid):
            got, alone = (mpc_nearlinear_run(pref, c, params, cfg, rng=np.random.default_rng(i),
                                             shared=peel) for peel in (shared, None))
            assert (got[0], repr(got[1]), got[2]) == (alone[0], repr(alone[1]), alone[2])
        assert any(_walk_start(walk) is not None for walk in walks)

    @pytest.mark.parametrize("other", ["edges", "epsilon"])
    def test_mpc_run_rejects_a_shared_peel_of_another_bag(self, pref, other):
        # f = 1/30: an mpc-super run reads the whole pool in one batch and
        # peels it from (V, V); an mpc-near run's first phase flip-peels there
        c = Fraction(1, 4)
        params = sample_params(pref.n, 0.2, f=1 / 30)
        src, dst, epsilon = pref.src, pref.dst, params.epsilon
        if other == "edges":
            src, dst = src[1:], dst[1:]
        else:
            epsilon = 0.3
        shared = SharedPeel(src, dst, pref.n, (c,), epsilon)
        for run in (mpc_superlinear_run, mpc_nearlinear_run):
            with pytest.raises(ValueError, match="does not cover"):
                run(pref, c, params, rng=np.random.default_rng(0), shared=shared)

    @pytest.mark.parametrize("algo", ["baseline", "single-pass"])
    def test_unsorted_grid_with_repeats(self, pref, algo):
        grid = build_grid(pref.n, 2)
        mixed = (*reversed(grid), grid[3], grid[0], grid[3])
        res = sweep(algo, pref, mixed, epsilon=0.2, f=1 / 30, seed=1, workers=4)
        ordered = sweep(algo, pref, grid, epsilon=0.2, f=1 / 30, seed=1)
        by_c = {r.c: _row_key(r) for r in ordered.rows}
        assert [_row_key(r) for r in res.rows] == [by_c[c] for c in mixed]

    @pytest.mark.parametrize("algo", ["baseline", "single-pass"])
    @pytest.mark.parametrize("bad", [0, True])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_an_invalid_guess_fails_only_its_cell(self, walks, pref, algo, bad, workers):
        grid = list(build_grid(pref.n, 2))
        clean = sweep(algo, pref, grid, epsilon=0.2, f=1 / 30, seed=1)
        grid[4] = bad
        res = sweep(algo, pref, grid, epsilon=0.2, f=1 / 30, seed=1, workers=workers)
        assert "ratio guess c must be" in res.rows[4].error
        assert res.rows[4].pair is None
        others = [i for i in range(len(grid)) if i != 4]
        assert ([_row_key(res.rows[i]) for i in others]
                == [_row_key(clean.rows[i]) for i in others])
        assert len(walks) == 2  # one per sweep

    @pytest.mark.parametrize("algo,f", [("baseline", 1.0), ("single-pass", 1 / 30),
                                        ("mpc-near", 1 / 2000)])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_failed_walk_fails_every_cell_that_reads_past_it(self, monkeypatch, pref, algo, f,
                                                                workers):
        grid = build_grid(pref.n, 2)
        clean = sweep(algo, pref, grid, epsilon=0.2, f=f, seed=1)
        walks = record_shared_walks(monkeypatch, fail_after=2)
        res = sweep(algo, pref, grid, epsilon=0.2, f=f, seed=1, workers=workers)
        assert len(walks) == 1 and len(walks[0][2]) == 2
        failed = [row for row in res.rows if row.error is not None]
        assert failed and all(row.error == "the walk ran out of memory" for row in failed)
        if algo != "mpc-near":  # every cell drains the walk
            assert len(failed) == len(grid)
        # a cell succeeds only if it read no step past the two walked, and
        # then its row is the one it has without the failure
        assert ([_row_key(row) for row in res.rows if row.error is None]
                == [_row_key(ok) for row, ok in zip(res.rows, clean.rows) if row.error is None])

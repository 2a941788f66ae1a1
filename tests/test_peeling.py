import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirdense import streaming
from dirdense.bench import gen_pref_attach
from dirdense.csweep import build_grid
from dirdense.graph import DirectedGraph, VertexSetPair, _count_inside, density, member_mask
from dirdense.peeling import (
    _GATHER_SHARE,
    SharedPeel,
    _exact_bag_peels,
    _inside,
    _kept,
    _peel_best,
    _threshold_drop,
    baseline_peel,
    exact_oracle,
)
from dirdense.streaming import EdgeStream
from tests.support import (
    NeverIndexed,
    gnp_directed,
    iteration_cap,
    multigraphs_with_ratio,
    naive_best_pair,
    record_shared_walks,
    reference_peel_once,
    relabeled,
    run_threads,
    star_plus_triangle,
    step_key,
)


class TestBaselineArguments:
    def test_takes_any_rational_ratio_guess(self):
        g = star_plus_triangle()
        assert baseline_peel(g, "1/3", 0.2) == baseline_peel(g, Fraction(1, 3), 0.2)
        assert baseline_peel(g, 2, 0.2) == baseline_peel(g, Fraction(2), 0.2)

    @pytest.mark.parametrize("c,eps", [(0, 0.2), (-1, 0.2), (math.inf, 0.2), (True, 0.2), (1, 0.0),
                                       (1, 1.0), (1, math.nan)])
    def test_rejects_bad_values(self, c, eps):
        with pytest.raises(ValueError):
            baseline_peel(star_plus_triangle(), c, eps)


def _rescan_peels(src, dst, n, c, epsilon, s_mask, t_mask):
    """The kernel's steps for the one guess ``c``, rescanning the bag per step."""
    return _exact_bag_peels(src, dst, n, (c,), epsilon, s_mask, t_mask, rescan=True)


def first_rescan_peel(g, c, epsilon, s, t):
    """The pair after ``_rescan_peels``' first step from (S, T) over all of g's edges."""
    step = next(_rescan_peels(g.src, g.dst, g.n, Fraction(c), epsilon,
                              member_mask(s, g.n), member_mask(t, g.n)))
    return VertexSetPair(step.s_mask, step.t_mask)


def test_threshold_drop_evicts_one_minimum_degree_member_if_none_is_at_the_threshold():
    # every member above (1 + eps) * cross / |side| = 0.4: the fallback
    # still drops one member, so every step makes progress
    side = np.array([True, True, False, True])
    drop = _threshold_drop(np.array([5, 3, 0, 4]), side, 1, 3, 0.2)
    assert drop.tolist() == [False, True, False, False]


class TestFirstRescanPeel:
    def test_peels_whole_source_side(self):
        # S={0,1}, T={2}, both sources below the 1.5*avg threshold
        g = DirectedGraph(3, [(0, 2), (1, 2)])
        out = first_rescan_peel(g, 1, 0.5, {0, 1}, {2})
        assert out.S == frozenset()
        assert out.T == frozenset({2})

    def test_zero_threshold_empties_side(self):
        g = DirectedGraph(4, [(2, 3)])  # no edges inside the pair
        out = first_rescan_peel(g, 1, 0.2, {0, 1}, {0, 1})
        assert out.S == frozenset()
        assert out.T == frozenset({0, 1})

    def test_under_ratio_peels_targets(self):
        # star center 0 -> leaves 1..5, plus isolated vertex 6 in S
        g = DirectedGraph(7, [(0, leaf) for leaf in range(1, 6)])
        pair = VertexSetPair.of({0, 6}, {1, 2, 3, 4, 5}, g.n)
        out = first_rescan_peel(g, 10, 0.2, pair.S, pair.T)
        assert out.S == pair.S  # untouched side returned unchanged
        assert out.T == frozenset()


class TestBaselinePeel:
    def test_single_edge_reaches_optimum(self):
        g = DirectedGraph(2, [(0, 1)])
        pair, rho, trace = baseline_peel(g, 1, 0.2)
        assert rho == 1.0
        assert density(g, pair) == 1.0

    def test_edgeless_graph(self):
        g = DirectedGraph(5, [])
        pair, rho, ledger = baseline_peel(g, 1, 0.2)
        assert rho == 0.0
        assert ledger.rounds == 1  # one iteration empties a side
        with pytest.raises(ValueError, match="no vertices"):
            baseline_peel(DirectedGraph(0), 1, 0.2)

    def test_star_triangle_bound(self):
        g = star_plus_triangle()
        _, oracle_rho = exact_oracle(g)
        assert oracle_rho == pytest.approx(6 / math.sqrt(6), abs=1e-12)
        _, rho, _ = baseline_peel(g, Fraction(1, 6), 0.1)
        assert rho >= oracle_rho / (2 * 1.1**3)

    def test_single_vertex_graph_counts_self_loops(self):
        g = DirectedGraph(1, [(0, 0), (0, 0)])
        pair, rho, ledger = baseline_peel(g, 1, 0.2)
        assert pair.S == pair.T == frozenset({0})
        assert rho == 2.0
        assert ledger.rounds == 0

    def test_density_ties_keep_the_earlier_pair(self):
        g = DirectedGraph(4, [(3, 3), (0, 1), (3, 2), (0, 3), (1, 3), (0, 0), (0, 1)])
        everyone = np.ones(g.n, dtype=bool)
        steps = list(_rescan_peels(g.src, g.dst, g.n, Fraction(1), 0.2, everyone, everyone))
        assert [step.cross / math.sqrt(step.s_count * step.t_count) for step in steps[:2]] == [2.0, 2.0]
        pair, rho, ledger = baseline_peel(g, 1, 0.2)
        assert ledger.rounds == len(steps)
        assert rho == 2.0
        assert (pair.S, pair.T) == (frozenset({0}), frozenset(range(4)))

    def test_best_pair_density_is_consistent(self):
        for seed in range(5):
            g = gnp_directed(10, 0.3, seed)
            pair, rho, _ = baseline_peel(g, Fraction(1, 2), 0.25)
            assert density(g, pair) == pytest.approx(rho, abs=1e-12)

    @given(multigraphs_with_ratio(), st.sampled_from([0.1, 0.2, 0.5, 0.9]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_relabeling_maps_pair_and_density(self, instance, eps, seed):
        g, c = instance
        perm = np.random.default_rng(seed).permutation(g.n)
        pair, rho, _ = baseline_peel(g, c, eps)
        moved, moved_rho, _ = baseline_peel(relabeled(g, perm), c, eps)
        assert moved.S == {int(perm[v]) for v in pair.S}
        assert moved.T == {int(perm[v]) for v in pair.T}
        assert moved_rho == rho

    @given(
        st.integers(min_value=2, max_value=16),
        st.sampled_from([0.1, 0.2, 0.5, 0.9]),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_iteration_bound(self, n, eps, seed):
        g = gnp_directed(n, 0.3, seed)
        c = Fraction(1 + seed % 5, 1 + seed % 3)
        _, _, ledger = baseline_peel(g, c, eps)
        assert ledger.rounds <= iteration_cap(n, eps)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_peeled_side_shrinks_geometrically(self, n, seed):
        eps = 0.3
        g = gnp_directed(n, 0.4, seed)
        sizes = {"S": n, "T": n}
        everyone = np.ones(n, dtype=bool)
        for step in _rescan_peels(g.src, g.dst, n, Fraction(1), eps, everyone, everyone):
            before = sizes[step.side]
            after = before - step.removed
            assert step.removed >= 1
            assert after < before / (1 + eps) + 1e-9
            sizes[step.side] = after


@st.composite
def exact_bag_instances(draw):
    """A graph with parallel edges and self-loops, a grid c, and a start pair
    (or None for (V, V)) together with the bag E(S, T) of that pair."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=50))
    g = DirectedGraph(n, edges)
    c = draw(st.sampled_from(build_grid(n, 2.0)))
    if draw(st.booleans()):
        return g.src, g.dst, n, c, None
    side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    s_mask, t_mask = draw(side), draw(side)
    inside = s_mask[g.src] & t_mask[g.dst]
    return g.src[inside], g.dst[inside], n, c, (s_mask, t_mask)


@st.composite
def any_bag_instances(draw):
    """Any edge bag (parallel edges, self-loops, edges outside the pair), a
    grid c and a start pair with both sides nonempty."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=50))
    g = DirectedGraph(n, edges)
    c = draw(st.sampled_from(build_grid(n, 2.0)))
    side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array).filter(np.any)
    return g.src, g.dst, n, c, draw(side), draw(side)


class TestKept:
    SIZE = 1024  # 15/16 of it is a whole number of entries

    @pytest.mark.parametrize("kept", [0, 1, 512, 959, 960, 1024])
    def test_returns_the_masked_entries_in_order_and_writes_no_input(self, monkeypatch, kept):
        assert _GATHER_SHARE * self.SIZE == 960
        rng = np.random.default_rng(kept)
        keep = np.zeros(self.SIZE, dtype=bool)
        keep[rng.choice(self.SIZE, kept, replace=False)] = True
        arrays = rng.permutation(self.SIZE), rng.random(self.SIZE)
        originals = [a.copy() for a in (keep, *arrays)]
        for a in (keep, *arrays):
            a.setflags(write=False)
        gathers = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: gathers.append(a) or flatnonzero(a))
        out = _kept(keep, *arrays)
        assert len(out) == 2
        for got, a in zip(out, arrays):
            assert got.dtype == a.dtype and np.array_equal(got, a[keep])
            assert not np.shares_memory(got, a)
        # below the switch share it gathers by index, from it on it masks
        assert len(gathers) == (kept < 960)
        for a, original in zip((keep, *arrays), originals):
            assert np.array_equal(a, original)

    def test_empty_arrays(self):
        keep = np.zeros(0, dtype=bool)
        got, = _kept(keep, np.empty(0, dtype=np.int64))
        assert got.size == 0 and got.dtype == np.int64
        assert _kept(keep) == ()


@st.composite
def inside_instances(draw):
    """Any edge bag on at most 10 vertices (parallel edges, self-loops) and
    any pair, empty sides included; half of the time every bag edge lies
    inside the pair."""
    n = draw(st.integers(min_value=1, max_value=10))
    side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    s_mask, t_mask = draw(side), draw(side)
    heads, tails = np.flatnonzero(s_mask).tolist(), np.flatnonzero(t_mask).tolist()
    if heads and tails and draw(st.booleans()):
        edge = st.tuples(st.sampled_from(heads), st.sampled_from(tails))
    else:
        edge = st.tuples(st.integers(min_value=0, max_value=n - 1),
                         st.integers(min_value=0, max_value=n - 1))
    g = DirectedGraph(n, draw(st.lists(edge, max_size=50)))
    return g.src, g.dst, s_mask, t_mask


@st.composite
def one_side_v_instances(draw):
    """An ``inside_instances`` bag whose pair has exactly one side equal to V."""
    src, dst, s_mask, t_mask = draw(inside_instances())
    everyone = np.ones(s_mask.size, dtype=bool)
    if draw(st.booleans()):
        s_mask, other = everyone, t_mask
    else:
        t_mask, other = everyone, s_mask
    if other.all():
        other[draw(st.integers(min_value=0, max_value=other.size - 1))] = False
    return src, dst, s_mask, t_mask


class TestInside:
    @given(inside_instances())
    @settings(max_examples=300, deadline=None)
    def test_equals_boolean_indexing_and_writes_no_input(self, instance):
        src, dst, s_mask, t_mask = instance
        originals = [a.copy() for a in instance]
        for a in instance:
            a.setflags(write=False)
        keep = s_mask[src] & t_mask[dst]
        got_src, got_dst = _inside(src, dst, s_mask, t_mask)
        assert got_src.dtype == got_dst.dtype == np.int64
        assert np.array_equal(got_src, src[keep]) and np.array_equal(got_dst, dst[keep])
        # a filter that drops no edge hands back the bag itself
        assert (got_src is src and got_dst is dst) == bool(keep.all())
        for a, original in zip(instance, originals):
            assert np.array_equal(a, original)

    @given(one_side_v_instances(), st.integers(min_value=1, max_value=60),
           st.sampled_from([1, 3, 65536]))
    @settings(max_examples=300, deadline=None)
    def test_one_side_v_gathers_only_the_other_side(self, instance, want, block):
        src, dst, s_mask, t_mask = instance
        keep = s_mask[src] & t_mask[dst]
        hits = np.flatnonzero(keep)
        masks = [mask.view(NeverIndexed) if mask.all() else mask for mask in (s_mask, t_mask)]
        got_src, got_dst = _inside(src, dst, *masks)
        assert np.array_equal(got_src, src[keep]) and np.array_equal(got_dst, dst[keep])
        assert _count_inside(src, dst, *masks) == hits.size
        stream = EdgeStream(s_mask.size, src, dst)
        with mock.patch.object(streaming, "_QUALIFYING_BLOCK", block):
            got_src, got_dst = stream.take_qualifying(want, *masks)
        assert got_src.tolist() == src[hits[:want]].tolist()
        assert got_dst.tolist() == dst[hits[:want]].tolist()
        assert stream.edges_read == (int(hits[want - 1]) + 1 if hits.size >= want else src.size)

    @given(st.integers(min_value=1, max_value=50))
    def test_reads_no_edge_at_the_root(self, n):
        import dirdense.peeling as peeling

        src, dst = object(), object()  # no mask can index these
        everyone = np.ones(n, dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(peeling, "_kept", None)
            got = _inside(src, dst, everyone, everyone)
        assert got[0] is src and got[1] is dst


class TestExactBagPeel:
    @given(exact_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_compact_matches_rescan_step_for_step(self, instance, eps):
        src, dst, n, c, start = instance
        if start is None:
            start = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        runs = []
        for rescan in (False, True):
            steps = list(_exact_bag_peels(src, dst, n, (c,), eps, *start, rescan=rescan))
            best_s, best_t, rho = _peel_best(steps, *start, src.size)
            runs.append(([step_key(step) for step in steps], best_s.tolist(), best_t.tolist(),
                         rho))
        assert runs[0] == runs[1]

    @given(any_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_first_step_matches_reference_peel(self, instance, eps):
        src, dst, n, c, s_mask, t_mask = instance
        inside = s_mask[src] & t_mask[dst]
        side, removed, new_s, new_t, cross = reference_peel_once(src, dst, n, c, eps, s_mask, t_mask)
        expected = side, removed, new_s.tolist(), new_t.tolist(), cross
        # the bag filtered to (S, T), and the whole bag rescanned
        for bag, rescan in (((src[inside], dst[inside]), False), ((src, dst), True)):
            step = next(_exact_bag_peels(*bag, n, (c,), eps, s_mask, t_mask, rescan=rescan))
            assert step_key(step) == expected
            assert (step.s_count, step.t_count) == (new_s.sum(), new_t.sum())

    @given(any_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_unfiltered_bag_walks_like_its_inside(self, instance, eps):
        """A rescanning walk over a bag with edges outside the pair, and a
        shared walk from that pair over it, run like the compacting kernel
        over ``_inside`` of the bag."""
        src, dst, n, c, s_mask, t_mask = instance
        for array in (src, dst, s_mask, t_mask):
            array.setflags(write=False)  # the kernel writes no mask in place

        def key(steps):
            return [(step_key(step), step.s_count, step.t_count) for step in steps]

        filtered = list(_exact_bag_peels(*_inside(src, dst, s_mask, t_mask), n, (c,), eps,
                                         s_mask, t_mask))
        rescanned = list(_exact_bag_peels(src, dst, n, (c,), eps, s_mask, t_mask, rescan=True))
        shared = SharedPeel(src, dst, n, (c,), eps).steps(c, n, src.size, eps, (s_mask, t_mask))
        assert key(rescanned) == key(shared) == key(filtered)
        assert all(step.s_count and step.t_count for step in filtered[:-1])
        assert not (filtered[-1].s_count and filtered[-1].t_count)


@st.composite
def guess_walk_instances(draw):
    """A multigraph (self-loops and parallel edges, possibly edgeless, n may
    be 1), a start pair, and a list of guesses in any order with repeats.
    Guesses a/b with a, b <= n include every ratio |S|/|T| a pair can have."""
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    g = DirectedGraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=40)))
    ratio = st.builds(Fraction, st.integers(min_value=1, max_value=n),
                      st.integers(min_value=1, max_value=n))
    guess = ratio | st.sampled_from(build_grid(n, 2.0)) | st.fractions(
        min_value=Fraction(1, 16), max_value=16, max_denominator=16)
    guesses = draw(st.lists(guess, min_size=1, max_size=12))
    side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    everyone = np.ones(n, dtype=bool)
    start = (draw(side), draw(side)) if draw(st.booleans()) else (everyone, everyone)
    return g, guesses, start


def _best_key(steps, n, m):
    """The best pair, its density and the step count of one guess's peel
    ``steps`` from (V, V) of m edges on n vertices."""
    everyone = np.ones(n, dtype=bool)
    s_mask, t_mask, rho = _peel_best(steps, everyone, everyone, m)
    return s_mask.tolist(), t_mask.tolist(), repr(rho), len(steps)


def _reference_baseline(g, c, eps):
    """Best (S mask, T mask, density, steps) of repeated frozen reference
    peels from (V, V) until a side is empty; ties keep the earlier pair."""
    s_mask = t_mask = np.ones(g.n, dtype=bool)
    best = (s_mask, t_mask, g.m / g.n, 0)
    steps = 0
    while s_mask.any() and t_mask.any():
        _, _, s_mask, t_mask, cross = reference_peel_once(g.src, g.dst, g.n, c, eps, s_mask, t_mask)
        steps += 1
        s_count, t_count = int(s_mask.sum()), int(t_mask.sum())
        rho = cross / math.sqrt(s_count * t_count) if s_count and t_count else 0.0
        best = (s_mask, t_mask, rho, steps) if rho > best[2] else (*best[:3], steps)
    return best


def _interleaved(readers):
    """Every reader's items, read one item of each reader in turn."""
    got = [[] for _ in readers]
    live = list(enumerate(readers))
    while live:
        for i, reader in list(live):
            item = next(reader, None)
            if item is None:
                live.remove((i, reader))
            else:
                got[i].append(item)
    return got


@st.composite
def whole_bag_instances(draw):
    """A ``multigraphs_with_ratio`` graph, the guesses of its delta = 2 grid
    and its own guess c, and a start pair of one of three kinds: one side V,
    both sides proper, or one side that leaves out its end of more than
    half of the edges, with any other side."""
    g, c = draw(multigraphs_with_ratio())
    n = g.n
    side = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    pair = [draw(side), draw(side)]
    kind = draw(st.sampled_from(["one side V", "both proper", "drops half"]))
    at = draw(st.sampled_from([0, 1]))
    if kind == "one side V":
        pair[at] = np.ones(n, dtype=bool)
    elif kind == "both proper":
        pair = [draw(side.filter(lambda mask: not mask.all())) for _ in pair]
    else:
        ends = (g.src, g.dst)[at]
        deg = np.bincount(ends, minlength=n)
        pair[at] = np.ones(n, dtype=bool)
        for v in np.argsort(-deg, kind="stable"):
            if 2 * np.count_nonzero(~pair[at][ends]) > g.m or not deg[v]:
                break
            pair[at][v] = False
        assert 2 * np.count_nonzero(~pair[at][ends]) > g.m or not g.m
    return g, tuple(sorted({*build_grid(n, 2.0), c})), tuple(pair)


class TestWholeBagWalk:
    @given(whole_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_whole_bag_with_its_degrees_walks_like_its_inside(self, instance, eps):
        """A walk over the whole bag given its degrees, drained to the end
        so that every leaver is compacted, yields the steps of a walk over
        ``_inside`` of the bag given none, and filters no edge by the pair
        before the start pair's runs are over."""
        import dirdense.peeling as peeling

        g, cs, (s_mask, t_mask) = instance
        degrees = np.bincount(g.src, minlength=g.n), np.bincount(g.dst, minlength=g.n)
        filters = []

        def inside(*args):
            filters.append(args)
            return _inside(*args)

        def key(step):
            return step_key(step), step.s_count, step.t_count, step.guesses

        counts = int(s_mask.sum()), int(t_mask.sum())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(peeling, "_inside", inside)
            whole = []
            for step in _exact_bag_peels(g.src, g.dst, g.n, cs, eps, s_mask, t_mask,
                                         degrees=degrees):
                # a step of a run from the start pair keeps one of its sides
                kept_side = step.s_count == counts[0] or step.t_count == counts[1]
                assert not (filters and kept_side)
                whole.append(key(step))
        alone = _exact_bag_peels(*_inside(g.src, g.dst, s_mask, t_mask), g.n, cs, eps,
                                 s_mask, t_mask)
        assert whole == [key(step) for step in alone]


class TestGuessWalk:
    @given(guess_walk_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_each_guess_alone(self, instance, eps, rescan):
        """Walking every guess at once gives each guess its own peel, step
        for step, from any start pair, compacting or rescanning; the shared
        peel over the whole graph hands out those steps from that pair."""
        g, guesses, (s_mask, t_mask) = instance
        inside = s_mask[g.src] & t_mask[g.dst]
        src, dst = (g.src, g.dst) if rescan else (g.src[inside], g.dst[inside])
        cs = tuple(sorted(set(guesses)))
        steps = list(_exact_bag_peels(src, dst, g.n, cs, eps, s_mask, t_mask, rescan=rescan))
        shared = SharedPeel(g.src, g.dst, g.n, guesses, eps, rescan=rescan)
        for i, c in enumerate(cs):
            alone = [step_key(step) for step in
                     _exact_bag_peels(src, dst, g.n, (c,), eps, s_mask, t_mask, rescan=rescan)]
            assert [step_key(step) for step in steps if i in step.guesses] == alone
            read = shared.steps(c, g.n, g.m, eps, (s_mask, t_mask))
            assert [step_key(step) for step in read] == alone

    @given(guess_walk_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_shared_compact_peel_matches_the_kernel_per_guess(self, instance, eps):
        """Readers that take turns, one step each, read every guess's own
        steps from the one lazily advanced walk."""
        g, guesses, _ = instance
        shared = SharedPeel(g.src, g.dst, g.n, guesses, eps)
        everyone = np.ones(g.n, dtype=bool)
        got = _interleaved([shared.steps(c, g.n, g.m, eps) for c in guesses])
        for c, steps in zip(guesses, got):
            alone = _exact_bag_peels(g.src, g.dst, g.n, (c,), eps, everyone, everyone)
            assert [step_key(step) for step in steps] == [step_key(step) for step in alone]

    @given(guess_walk_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_shared_rescan_peel_matches_baseline_per_guess(self, instance, eps):
        g, guesses, _ = instance
        shared = SharedPeel(g.src, g.dst, g.n, guesses, eps, rescan=True)
        for c in guesses:
            pair, rho, ledger = baseline_peel(g, c, eps, shared=shared)
            alone = baseline_peel(g, c, eps)
            assert (pair, repr(rho), ledger) == (alone[0], repr(alone[1]), alone[2])
            if g.n > 1:  # a one-vertex graph has no peel to compare
                s_mask, t_mask, top, count = _reference_baseline(g, c, eps)
                assert ((pair.s_mask.tolist(), pair.t_mask.tolist(), repr(rho), ledger.rounds)
                        == (s_mask.tolist(), t_mask.tolist(), repr(top), count))

    def test_walk_runs_once_and_skips_invalid_guesses(self, monkeypatch):
        g = gnp_directed(12, 0.4, seed=1)
        walks = record_shared_walks(monkeypatch)
        grid = build_grid(g.n, 2)
        shared = SharedPeel(g.src, g.dst, g.n, (*grid, 0, True, -1, "x", grid[2]), 0.2)
        assert shared.guesses == grid
        assert not walks
        for c in reversed(grid):
            list(shared.steps(c, g.n, g.m, 0.2))
        [(_, _, walked)] = walks
        everyone = np.ones(g.n, dtype=bool)
        whole = list(_exact_bag_peels(g.src, g.dst, g.n, grid, 0.2, everyone, everyone))
        assert [step_key(step) for step in walked] == [step_key(step) for step in whole]

    @pytest.mark.parametrize("masks_first", [False, True])
    def test_root_walk_is_one_and_keyed_without_mask_bytes(self, monkeypatch, masks_first):
        """Readers from (V, V), given as None or as a flip-peel's all-true
        masks, read one walk, and no mask of theirs is turned into bytes."""

        class NoBytes(np.ndarray):
            def tobytes(self, *args, **kwargs):
                raise AssertionError("a mask of the root walk was turned into bytes")

        g = gnp_directed(12, 0.4, seed=1)
        grid = build_grid(g.n, 2)
        walks = record_shared_walks(monkeypatch)
        ones = np.ones
        monkeypatch.setattr(np, "ones", lambda *args, **kw: ones(*args, **kw).view(NoBytes))
        everyone = np.ones(g.n, dtype=bool)
        starts = [None, (everyone, everyone)]
        if masks_first:
            starts.reverse()
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        got = [[[step_key(step) for step in shared.steps(c, g.n, g.m, 0.2, start)]
                for c in grid] for start in starts]
        assert len(walks) == 1 and got[0] == got[1]
        assert all(mask.all() for mask in walks[0][0][5:7])

    def test_threads_share_one_walk(self, monkeypatch):
        """More threads than cores read at once, with frequent switches: the
        walk still runs once, and every thread reads its guesses' steps."""
        g = gen_pref_attach(20_000, 10, 2)
        grid = build_grid(g.n, 2)
        walks = record_shared_walks(monkeypatch)
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        results = {}

        def ask(i):
            results[i] = [list(shared.steps(c, g.n, g.m, 0.2)) for c in grid[i % len(grid):]]

        run_threads(ask)
        assert len(walks) == 1 and len(results) == 8
        alone = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        for i, got in results.items():
            assert ([_best_key(steps, g.n, g.m) for steps in got]
                    == [_best_key(list(alone.steps(c, g.n, g.m, 0.2)), g.n, g.m)
                        for c in grid[i % len(grid):]])

    def test_threads_share_one_walk_per_start_pair(self, monkeypatch):
        """More threads than cores read the first steps from three start
        pairs at once, as flip-peels do: each pair is walked once, and every
        thread reads the steps a walk of its own would give."""
        g = gen_pref_attach(20_000, 10, 2)
        grid = build_grid(g.n, 2)
        everyone, ids = np.ones(g.n, dtype=bool), np.arange(g.n)
        starts = [(everyone, everyone), (everyone, ids % 3 != 0), (ids % 2 == 0, everyone)]
        walks = record_shared_walks(monkeypatch)
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        results = {}

        def head(steps):
            return [step_key(step) for step in itertools.islice(steps, 2)]

        def ask(i):
            results[i] = [head(shared.steps(c, g.n, g.m, 0.2, starts[(i + k) % 3]))
                          for k, c in enumerate(grid)]

        run_threads(ask)
        assert len(walks) == 3 and len(results) == 8

        def alone(c, s_mask, t_mask):
            return head(_exact_bag_peels(*_inside(g.src, g.dst, s_mask, t_mask), g.n, (c,), 0.2,
                                         s_mask, t_mask))

        for i, got in results.items():
            assert got == [alone(c, *starts[(i + k) % 3]) for k, c in enumerate(grid)]

    @pytest.mark.parametrize("n,m,eps,c", [(13, 49, 0.2, Fraction(1)), (12, 48, 0.2, Fraction(1)),
                                           (12, 49, 0.3, Fraction(1)), (12, 49, 0.2, Fraction(3))])
    def test_steps_rejects_a_peel_it_does_not_walk(self, n, m, eps, c):
        g = gnp_directed(12, 0.4, seed=1)
        assert (g.n, g.m) == (12, 49)
        shared = SharedPeel(g.src, g.dst, g.n, (Fraction(1), Fraction(2)), 0.2)
        with pytest.raises(ValueError, match="does not cover"):
            shared.steps(c, n, m, eps)

    def test_a_failed_walk_fails_every_later_reader(self, monkeypatch):
        g = gen_pref_attach(2000, 50, 3)
        grid = build_grid(g.n, 2)
        assert len(grid) == 23
        walks = record_shared_walks(monkeypatch, fail_after=2)
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        for c in grid:
            with pytest.raises(MemoryError):
                list(shared.steps(c, g.n, g.m, 0.2))
        [(_, _, walked)] = walks
        assert len(walked) == 2

    def test_a_failed_walk_from_another_pair_fails_every_later_reader_there(self, monkeypatch):
        g = gen_pref_attach(2000, 50, 3)
        grid = build_grid(g.n, 2)
        everyone = np.ones(g.n, dtype=bool)
        start = everyone, np.arange(g.n) % 3 != 0
        walks = record_shared_walks(monkeypatch, fail_after=2)
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        for c in grid:
            with pytest.raises(MemoryError):
                list(shared.steps(c, g.n, g.m, 0.2, start))
        [(args, _, walked)] = walks
        assert args[6] is start[1] and len(walked) == 2
        # the walk from (V, V) is another one, with steps of its own
        first = next(shared.steps(grid[-1], g.n, g.m, 0.2))
        assert len(walks) == 2 and first.t_count < g.n == first.s_count


class TestExactOracle:
    def test_single_edge(self):
        pair, rho = exact_oracle(DirectedGraph(2, [(0, 1)]))
        assert rho == 1.0
        assert (pair.S, pair.T) == (frozenset({0}), frozenset({1}))

    def test_bidirected_pair(self):
        pair, rho = exact_oracle(DirectedGraph(2, [(0, 1), (1, 0)]))
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_star_beats_triangle(self):
        pair, rho = exact_oracle(star_plus_triangle())
        assert rho == pytest.approx(6 / math.sqrt(6), abs=1e-12)
        assert pair.S == frozenset({0})
        assert pair.T == frozenset(range(1, 7))

    def test_caps_vertex_count(self):
        with pytest.raises(ValueError):
            exact_oracle(DirectedGraph(21, []), max_vertices=20)
        with pytest.raises(ValueError, match="no vertices"):
            exact_oracle(DirectedGraph(0))

    def test_pair_is_mask_built(self):
        for seed in range(6):
            g = gnp_directed(8, 0.35, seed)
            pair, _ = exact_oracle(g)
            assert not pair.s_mask.flags.writeable and not pair.t_mask.flags.writeable
            assert pair == VertexSetPair.of(pair.S, pair.T, g.n)
            assert pair.sizes() == (len(pair.S), len(pair.T))

    def test_reported_density_matches_pair(self):
        for seed in range(6):
            g = gnp_directed(7, 0.4, seed)
            pair, rho = exact_oracle(g)
            assert density(g, pair) == pytest.approx(rho, abs=1e-12)

    @pytest.mark.parametrize("n,p,seed", [
        (2, 0.9, 0), (3, 0.5, 1), (4, 0.4, 2), (5, 0.3, 3),
        (6, 0.3, 4), (7, 0.25, 5), (8, 0.2, 6), (8, 0.6, 7),
    ])
    def test_matches_double_subset_enumeration(self, n, p, seed):
        g = gnp_directed(n, p, seed)
        _, fast_rho = exact_oracle(g)
        _, slow_rho = naive_best_pair(g)
        assert fast_rho == pytest.approx(slow_rho, abs=1e-12)

    def test_matches_naive_with_parallel_edges(self):
        g = DirectedGraph(4, [(0, 1), (0, 1), (1, 2), (2, 2), (3, 1), (0, 3)])
        _, fast_rho = exact_oracle(g)
        _, slow_rho = naive_best_pair(g)
        assert fast_rho == pytest.approx(slow_rho, abs=1e-12)


@st.composite
def sorted_or_not_bags(draw):
    """A ``whole_bag_instances`` instance whose graph's edges are put in
    order of source, or in a drawn order that may leave them unsorted."""
    g, cs, pair = draw(whole_bag_instances())
    if draw(st.booleans()):
        order = np.argsort(g.src, kind="stable")
    else:
        order = np.array(draw(st.permutations(range(g.m))), dtype=np.int64)
    return DirectedGraph.from_arrays(g.n, g.src[order], g.dst[order]), cs, pair


class TestBySourceRows:
    @given(sorted_or_not_bags())
    @settings(max_examples=200, deadline=None)
    def test_out_degrees_from_the_offsets_equal_the_bincount(self, instance):
        """A walk's out-degrees are the by-source offsets' differences when
        the bag's sources never decrease, and a bincount otherwise: equal
        int64 arrays either way, and the in-degrees are a bincount."""
        g, cs, _ = instance
        shared = SharedPeel(g.src, g.dst, g.n, cs, 0.2)
        next(shared.steps(cs[0], g.n, g.m, 0.2), None)
        unsorted = bool(np.any(np.diff(g.src) < 0))
        assert (shared._offsets is None) == unsorted
        forms = [shared._degrees[0]]
        if not unsorted:
            forms.append(np.diff(np.searchsorted(g.src, np.arange(g.n + 1))))
        for out in forms:
            assert out.dtype == np.int64
            assert np.array_equal(out, np.bincount(g.src, minlength=g.n))
        assert shared._degrees[1].dtype == np.int64
        assert np.array_equal(shared._degrees[1], np.bincount(g.dst, minlength=g.n))

    @given(sorted_or_not_bags())
    @settings(max_examples=300, deadline=None)
    def test_inside_reads_the_pair_from_the_rows_of_s(self, instance):
        """Below the limit, a bag with sorted sources hands out ``_inside``
        of itself, edge for edge; at or above it, or with unsorted sources,
        nothing."""
        g, cs, (s_mask, t_mask) = instance
        shared = SharedPeel(g.src, g.dst, g.n, cs, 0.2)
        rows = int(np.count_nonzero(s_mask[g.src]))
        assert shared.inside(g.n, g.m, s_mask, t_mask, rows) is None
        got = shared.inside(g.n, g.m, s_mask, t_mask, rows + 1)
        if np.any(np.diff(g.src) < 0):
            assert got is None
        else:
            want = _inside(g.src, g.dst, s_mask, t_mask)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_threads_check_the_bag_once(self, monkeypatch):
        """More threads than cores ask for rows and for walks of one fresh
        peel at once: the bag's sources are checked and its offsets built
        once, and every thread reads ``_inside`` of the bag."""
        g = gen_pref_attach(20_000, 10, 2)
        grid = build_grid(g.n, 2)
        ids = np.arange(g.n)
        pairs = [(ids % (k + 2) == 0, ids % 3 != k % 3) for k in range(8)]
        searchsorted, searches = np.searchsorted, []
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: searches.append(1) or searchsorted(*args, **kw))
        shared = SharedPeel(g.src, g.dst, g.n, grid, 0.2)
        results = {}

        def ask(i):
            if i % 2:
                next(shared.steps(grid[i], g.n, g.m, 0.2))
            results[i] = shared.inside(g.n, g.m, *pairs[i], g.m)

        run_threads(ask)
        assert len(searches) == 1 and len(results) == 8
        for i, got in results.items():
            want = _inside(g.src, g.dst, *pairs[i])
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n,m", [(13, 49), (12, 48)])
    def test_inside_rejects_another_bag(self, n, m):
        g = gnp_directed(12, 0.4, seed=1)
        assert (g.n, g.m) == (12, 49)
        shared = SharedPeel(g.src, g.dst, g.n, (Fraction(1),), 0.2)
        half = np.arange(n) % 2 == 0
        with pytest.raises(ValueError, match="not one of"):
            shared.inside(n, m, half, half, m + 1)

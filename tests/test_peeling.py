import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirdense.csweep import build_grid
from dirdense.graph import DirectedGraph, VertexSetPair, density, member_mask
from dirdense.peeling import (
    _exact_bag_peels,
    _peel_best,
    _rescan_peels,
    baseline_peel,
    exact_oracle,
)
from tests.support import (
    gnp_directed,
    iteration_cap,
    multigraphs_with_ratio,
    naive_best_pair,
    reference_peel_once,
    relabeled,
    star_plus_triangle,
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


def first_rescan_peel(g, c, epsilon, s, t):
    """The pair after ``_rescan_peels``' first step from (S, T) over all of g's edges."""
    step = next(_rescan_peels(g.src, g.dst, g.n, Fraction(c), epsilon,
                              member_mask(s, g.n), member_mask(t, g.n)))
    return VertexSetPair(step.s_mask, step.t_mask)


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
        pair, rho, iterations = baseline_peel(g, 1, 0.2)
        assert rho == 0.0
        assert iterations == 1  # one iteration empties a side

    def test_star_triangle_bound(self):
        g = star_plus_triangle()
        _, oracle_rho = exact_oracle(g)
        assert oracle_rho == pytest.approx(6 / math.sqrt(6), abs=1e-12)
        _, rho, _ = baseline_peel(g, Fraction(1, 6), 0.1)
        assert rho >= oracle_rho / (2 * 1.1**3)

    def test_single_vertex_graph_counts_self_loops(self):
        g = DirectedGraph(1, [(0, 0), (0, 0)])
        pair, rho, iterations = baseline_peel(g, 1, 0.2)
        assert pair.S == pair.T == frozenset({0})
        assert rho == 2.0
        assert iterations == 0

    def test_density_ties_keep_the_earlier_pair(self):
        g = DirectedGraph(4, [(3, 3), (0, 1), (3, 2), (0, 3), (1, 3), (0, 0), (0, 1)])
        everyone = np.ones(g.n, dtype=bool)
        steps = list(_rescan_peels(g.src, g.dst, g.n, Fraction(1), 0.2, everyone, everyone))
        assert [step.cross / math.sqrt(step.s_count * step.t_count) for step in steps[:2]] == [2.0, 2.0]
        pair, rho, iterations = baseline_peel(g, 1, 0.2)
        assert iterations == len(steps)
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
        _, _, iterations = baseline_peel(g, c, eps)
        assert iterations <= iteration_cap(n, eps)

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


def _step_key(step):
    return step.side, step.removed, step.s_mask.tolist(), step.t_mask.tolist(), step.cross


class TestExactBagPeel:
    @given(exact_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_compact_matches_rescan_step_for_step(self, instance, eps):
        src, dst, n, c, start = instance
        if start is None:
            start = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        runs = []
        for peels in (_exact_bag_peels, _rescan_peels):
            steps = list(peels(src, dst, n, c, eps, *start))
            best_s, best_t, rho, count = _peel_best(steps, *start, src.size)
            runs.append(([_step_key(step) for step in steps], best_s.tolist(), best_t.tolist(),
                         rho, count))
        assert runs[0] == runs[1]
        assert runs[0][-1] == len(runs[0][0])

    @given(any_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_first_step_matches_reference_peel(self, instance, eps):
        src, dst, n, c, s_mask, t_mask = instance
        inside = s_mask[src] & t_mask[dst]
        side, removed, new_s, new_t, cross = reference_peel_once(src, dst, n, c, eps, s_mask, t_mask)
        expected = side, removed, new_s.tolist(), new_t.tolist(), cross
        step = next(_exact_bag_peels(src, dst, n, c, eps, s_mask, t_mask, inside=inside))
        assert _step_key(step) == expected
        assert (step.s_count, step.t_count) == (new_s.sum(), new_t.sum())
        # the same bag filtered to (S, T) needs no membership mask
        step = next(_exact_bag_peels(src[inside], dst[inside], n, c, eps, s_mask, t_mask))
        assert _step_key(step) == expected

    @given(any_bag_instances(), st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_inside_mask_runs_like_the_filtered_bag(self, instance, eps):
        src, dst, n, c, s_mask, t_mask = instance
        inside = s_mask[src] & t_mask[dst]
        for array in (src, dst, s_mask, t_mask, inside):
            array.setflags(write=False)  # the kernel writes no mask in place
        masked = list(_exact_bag_peels(src, dst, n, c, eps, s_mask, t_mask, inside=inside))
        filtered = list(_exact_bag_peels(src[inside], dst[inside], n, c, eps, s_mask, t_mask))
        assert ([(_step_key(step), step.s_count, step.t_count) for step in masked]
                == [(_step_key(step), step.s_count, step.t_count) for step in filtered])
        assert all(step.s_count and step.t_count for step in masked[:-1])
        assert not (masked[-1].s_count and masked[-1].t_count)


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

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirdense.graph import (
    DirectedGraph,
    VertexSetPair,
    count_cross_edges,
    density,
    member_mask,
)
from dirdense.mpc import mpc_nearlinear_run, mpc_superlinear_run
from dirdense.peeling import baseline_peel, exact_oracle
from dirdense.streaming import make_stream, multi_pass_run, sample_params, single_pass_run
from tests.support import edge_list, gnp_directed, in_degrees, out_degrees, relabeled


def cycle4():
    return DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=20))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return DirectedGraph(n, edges)


class TestDirectedGraph:
    def test_degree_sums_match_edge_count(self):
        g = gnp_directed(9, 0.4, seed=1)
        assert int(out_degrees(g).sum()) == g.m
        assert int(in_degrees(g).sum()) == g.m

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            DirectedGraph(2, [(-1, 0)])
        with pytest.raises(ValueError, match=r"\(u, v\) pairs"):
            DirectedGraph(3, [(0, 1, 2)])

    def test_arrays_are_read_only(self):
        g = cycle4()
        with pytest.raises(ValueError):
            g.src[0] = 3

    def test_parallel_edges_and_self_loops_kept(self):
        g = DirectedGraph(2, [(0, 1), (0, 1), (1, 1)])
        assert g.m == 3

    def test_tuple_of_pairs_parses_as_pairs(self):
        g = DirectedGraph(3, ((0, 1), (2, 0)))
        assert edge_list(g) == [(0, 1), (2, 0)]

    @pytest.mark.parametrize("src, dst", [([0.5], [1.9]), ([1.0], [2.0]), ([True], [False]),
                                          (np.array([0.0]), np.array([1], dtype=np.int64))])
    def test_from_arrays_rejects_non_integer_ids(self, src, dst):
        with pytest.raises(ValueError, match="integers"):
            DirectedGraph.from_arrays(3, src, dst)

    @pytest.mark.parametrize("edges", [[(0.5, 1.9)], [(0, 1), (1, 2.0)], [(True, False)]])
    def test_rejects_non_integer_edge_pairs(self, edges):
        with pytest.raises(ValueError, match="integers"):
            DirectedGraph(3, edges)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(3.0), np.bool_(True)])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            DirectedGraph(n, [(0, 2)])
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            DirectedGraph.from_arrays(n, [0], [0])

    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_accepts_integer_vertex_counts(self, n):
        g = DirectedGraph.from_arrays(n, [0, 2], [1, 0])
        assert g.n == 3 and type(g.n) is int
        assert DirectedGraph(n, [(0, 2)]).n == 3

    def test_accepts_empty_and_any_integer_dtype(self):
        assert DirectedGraph.from_arrays(3, np.array([]), []).m == 0
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            g = DirectedGraph.from_arrays(3, np.array([0, 2], dtype=dtype),
                                          np.array([1, 0], dtype=dtype))
            assert edge_list(g) == [(0, 1), (2, 0)]
            assert g.src.dtype == np.int64

    def test_from_arrays_takes_source_and_target_arrays(self):
        g = DirectedGraph.from_arrays(3, np.array([0, 2]), np.array([1, 0]))
        assert edge_list(g) == [(0, 1), (2, 0)]
        with pytest.raises(ValueError):
            DirectedGraph.from_arrays(3, np.array([0, 2]), np.array([1]))
        with pytest.raises(ValueError):
            DirectedGraph.from_arrays(-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))


class TestCountCrossEdges:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1)])
        assert count_cross_edges(g, VertexSetPair.of({0}, {1}, g.n)) == 1

    def test_direction_matters(self):
        g = DirectedGraph(2, [(0, 1)])
        assert count_cross_edges(g, VertexSetPair.of({1}, {0}, g.n)) == 0

    def test_cycle_full_pair(self):
        all_v = set(range(4))
        assert count_cross_edges(cycle4(), VertexSetPair.of(all_v, all_v, 4)) == 4

    def test_empty_sets_count_zero(self):
        g = cycle4()
        assert count_cross_edges(g, VertexSetPair.of(set(), {0}, g.n)) == 0

    def test_rejects_out_of_range_pair(self):
        g = cycle4()
        with pytest.raises(ValueError):
            count_cross_edges(g, VertexSetPair.of({9}, {0}, g.n))

    def test_works_on_edge_batches(self):
        batch = DirectedGraph(3, [(0, 1), (0, 1)])
        assert count_cross_edges(batch, VertexSetPair.of({0}, {1}, batch.n)) == 2

    def test_whole_pair_counts_every_edge(self):
        # self-loops and parallel edges each count once per copy
        g = DirectedGraph(4, [(0, 0), (0, 1), (0, 1), (2, 2), (2, 2), (3, 1), (1, 3)])
        everyone = np.ones(g.n, dtype=bool)
        masked = int(np.count_nonzero(everyone[g.src] & everyone[g.dst]))
        assert count_cross_edges(g, VertexSetPair(everyone, everyone)) == g.m == masked == 7


class TestDensity:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1)])
        assert density(g, VertexSetPair.of({0}, {1}, g.n)) == 1.0

    def test_star_center_to_hundred_leaves(self):
        g = DirectedGraph(101, [(0, leaf) for leaf in range(1, 101)])
        assert density(g, VertexSetPair.of({0}, set(range(1, 101)), g.n)) == 10.0

    def test_empty_set_convention(self):
        g = DirectedGraph(2, [(0, 1)])
        assert density(g, VertexSetPair.of(set(), {1}, g.n)) == 0.0
        assert density(g, VertexSetPair.of({0}, set(), g.n)) == 0.0

    @given(small_graphs())
    def test_full_pair_density_recovers_edge_count(self, g):
        full = VertexSetPair.of(range(g.n), range(g.n), g.n)
        assert density(g, full) * g.n == pytest.approx(g.m, rel=1e-12)

    @given(small_graphs(), st.randoms())
    @settings(max_examples=50)
    def test_relabeling_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = relabeled(g, perm)
        s = set(range(0, g.n, 2))
        t = set(range(1, g.n, 2)) or {0}
        mapped = VertexSetPair.of({perm[v] for v in s}, {perm[v] for v in t}, h.n)
        if s:
            assert density(g, VertexSetPair.of(s, t, g.n)) == pytest.approx(
                density(h, mapped), abs=1e-12
            )


@st.composite
def graph_and_masks(draw):
    g = draw(small_graphs())
    masks = st.lists(st.booleans(), min_size=g.n, max_size=g.n).map(lambda bits: np.array(bits, dtype=bool))
    return g, draw(masks), draw(masks)


class TestMaskPair:
    @given(graph_and_masks())
    @settings(max_examples=100)
    def test_matches_pair_built_from_ids(self, case):
        g, s, t = case
        masked = VertexSetPair(s, t)
        listed = VertexSetPair.of(np.flatnonzero(s), np.flatnonzero(t), g.n)
        assert masked.sizes() == listed.sizes()
        assert count_cross_edges(g, masked) == count_cross_edges(g, listed)
        assert density(g, masked) == density(g, listed)
        assert masked == listed and listed == masked
        assert masked != (masked.S, masked.T)  # only a pair equals a pair
        assert hash(masked) == hash(listed)

    def test_keeps_a_private_read_only_copy(self):
        s = np.array([True, False])
        pair = VertexSetPair(s, s)
        s[1] = True
        assert pair.sizes() == (1, 1) and pair.S == frozenset({0})
        with pytest.raises(AttributeError):
            pair.S = frozenset()

    def test_masks_over_another_vertex_count_are_rejected(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        pair = VertexSetPair([True, False], [False, True])
        for graph in (g, DirectedGraph(1)):
            with pytest.raises(ValueError, match="pair spans 2 vertices"):
                count_cross_edges(graph, pair)
            with pytest.raises(ValueError, match="pair spans 2 vertices"):
                density(graph, pair)
        assert count_cross_edges(DirectedGraph(2, [(0, 1)]), pair) == 1
        with pytest.raises(ValueError, match="pair spans 2 vertices"):
            density(g, VertexSetPair([False, False], [False, True]))

    def test_replace_swaps_a_side_for_vertex_ids(self):
        pair = VertexSetPair([True, True, False], [False, True, True])
        dropped = replace(pair, S=frozenset({1}))
        assert (dropped.S, dropped.T) == ({1}, {1, 2})
        assert not dropped.s_mask.flags.writeable
        assert replace(pair, T=[0]) == VertexSetPair.of({0, 1}, {0}, 3)
        with pytest.raises(ValueError, match="out of range"):
            replace(pair, S={3})

    def test_rejects_unequal_masks(self):
        with pytest.raises(ValueError):
            VertexSetPair([True], [True, False])

    @pytest.mark.parametrize("s, t", [([0, 2], [1, 0]), (np.array([0, 1]), np.array([1, 1])),
                                      ([0.0, 1.0], [1.0, 0.0])])
    def test_rejects_masks_that_are_not_boolean(self, s, t):
        with pytest.raises(ValueError, match="boolean"):
            VertexSetPair(s, t)


_RUNNER_PAIRS = {
    "baseline": lambda g, params: baseline_peel(g, 1, params.epsilon)[0],
    "multi-pass": lambda g, params: multi_pass_run(make_stream(g), g.n, 1, params)[0],
    "single-pass": lambda g, params: single_pass_run(make_stream(g), g.n, 1, params)[0],
    "mpc-super": lambda g, params: mpc_superlinear_run(g, 1, params)[0],
    "mpc-near": lambda g, params: mpc_nearlinear_run(g, 1, params)[0],
    "exact": lambda g, params: exact_oracle(g)[0],
}


@pytest.mark.parametrize("runner", _RUNNER_PAIRS)
def test_every_runner_returns_a_pair_of_read_only_masks(runner):
    g = gnp_directed(14, 0.4, seed=3)
    params = sample_params(g.n, 0.2, f=1 / 3000)  # n * xi < m: the sampled runners sample
    assert g.n * params.xi < g.m
    pair = _RUNNER_PAIRS[runner](g, params)
    for mask, members in ((pair.s_mask, pair.S), (pair.t_mask, pair.T)):
        assert mask.dtype == bool and mask.shape == (g.n,)
        assert not mask.flags.writeable
        assert members == frozenset(np.flatnonzero(mask).tolist())
    assert pair.sizes() == (len(pair.S), len(pair.T))


def test_pairs_with_the_same_sets_are_equal_whichever_runner_built_them():
    g = DirectedGraph(5, [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (0, 1)])
    params = sample_params(g.n, 0.2)
    expected = VertexSetPair.of({0}, {1, 2}, g.n)
    pairs = {runner: build(g, params) for runner, build in _RUNNER_PAIRS.items()}
    assert all(pair == expected for pair in pairs.values()), pairs
    assert len(set(pairs.values())) == 1


def test_member_mask_bounds():
    assert member_mask({0, 2}, 3).tolist() == [True, False, True]
    with pytest.raises(ValueError):
        member_mask({3}, 3)


@pytest.mark.parametrize("ids", [[0.5, 1.7], [1.0], {True}, ["1"]])
def test_member_mask_and_pairs_reject_non_integer_ids(ids):
    with pytest.raises(ValueError, match="integers"):
        member_mask(ids, 3)
    with pytest.raises(ValueError, match="integers"):
        VertexSetPair.of(ids, {0}, 3)
    with pytest.raises(ValueError, match="integers"):
        VertexSetPair.of({0}, ids, 3)


def test_pairs_keep_integer_ids_of_any_type():
    pair = VertexSetPair.of(np.array([2, 0], dtype=np.int32), [np.int64(1)], 3)
    assert (pair.S, pair.T) == (frozenset({0, 2}), frozenset({1}))
    assert all(type(v) is int for v in pair.S | pair.T)
    assert member_mask(np.array([2, 0], dtype=np.uint8), 3).tolist() == [True, False, True]
    assert member_mask(np.array([], dtype=np.int64), 3).tolist() == [False] * 3

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirdense import streaming
from dirdense.bench import gen_pref_attach
from dirdense.graph import DirectedGraph, member_mask
from dirdense.streaming import (EdgeStream, SinglePassEngine, _joined, _shuffled_edges,
                                make_stream, sample_params)
from tests.support import NeverIndexed, reference_shuffled_edges


def toy_graph():
    return DirectedGraph(4, [(0, 1), (1, 2), (2, 3)])


class TestMakeStream:
    def test_given_order_preserves_input(self):
        stream = make_stream(toy_graph(), "given")
        src, dst = stream.take_all()
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 2), (2, 3)]

    def test_shuffled_is_seed_deterministic(self):
        a = make_stream(toy_graph(), "shuffled", seed=42)
        b = make_stream(toy_graph(), "shuffled", seed=42)
        assert a.take_all()[0].tolist() == b.take_all()[0].tolist()

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            make_stream(toy_graph(), "sorted")

    def test_shuffle_is_uniform(self):
        # 10^4 fresh seeds over 3 edges: each of the 6 orders ~ 1/6 +- 0.02
        g = toy_graph()
        counts = {}
        for seed in range(10_000):
            src, _ = make_stream(g, "shuffled", seed=seed).take_all()
            counts[tuple(src.tolist())] = counts.get(tuple(src.tolist()), 0) + 1
        assert len(counts) == 6
        for order, hits in counts.items():
            assert abs(hits / 10_000 - 1 / 6) < 0.02, order


@st.composite
def shuffle_instances(draw):
    """A multigraph of up to 30 edges, self-loops and m = 0 or 1 included,
    on a few vertices or on n = 2**31 with ids at both ends of the range,
    and a seed."""
    n = draw(st.sampled_from([1, 2, 3, 10, 2**31]))
    ids = st.sampled_from([0, 1, n - 2, n - 1]) if n == 2**31 else st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=30))
    return DirectedGraph(n, edges), draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestShuffledEdges:
    @given(shuffle_instances())
    @example((DirectedGraph(2**31, []), 0))
    @example((DirectedGraph(2**31, [(2**31 - 1, 2**31 - 1)]), 3))
    @example((DirectedGraph(1, [(0, 0), (0, 0)]), 5))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_permuted_gather_and_builds_no_vertex_array(self, instance):
        g, seed = instance
        tracemalloc.start()
        try:
            got = _shuffled_edges(g, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # a mask over n = 2**31 vertices would be 2 GiB
        for array, expected in zip(got, reference_shuffled_edges(g, seed)):
            assert array.dtype == np.int64 and array.flags.c_contiguous
            assert not array.flags.writeable
            assert np.array_equal(array, expected)

    def test_more_than_two_to_the_31_vertices_raise(self):
        g = DirectedGraph(2**31 + 1, [(2**31, 0)])
        with pytest.raises(ValueError, match="2\\*\\*31"):
            _shuffled_edges(g, 0)
        with pytest.raises(ValueError):
            make_stream(g, "shuffled")
        assert make_stream(g, "given").take_all()[0].tolist() == [2**31]

    def test_peak_is_two_packed_arrays(self):
        g = gen_pref_attach(2000, 500, 0)
        tracemalloc.start()
        try:
            src, dst = _shuffled_edges(g, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * g.m + 64 * 1024
        expected = reference_shuffled_edges(g, 0)
        assert np.array_equal(src, expected[0]) and np.array_equal(dst, expected[1])


class TestCursor:
    def test_take_advances_and_counts(self):
        stream = make_stream(toy_graph(), "given")
        src, _ = stream.take(2)
        assert src.tolist() == [0, 1]
        assert stream.remaining == 1
        assert stream.edges_read == 2
        src, _ = stream.take(5)  # clamped to what is left
        assert src.tolist() == [2]
        assert stream.remaining == 0

    def test_reset_restarts_and_is_counted(self):
        stream = make_stream(toy_graph(), "given")
        stream.take_all()
        stream.reset()
        assert stream.remaining == 3
        assert stream.resets == 1

    def test_take_qualifying_skips_and_stops_exactly(self):
        g = DirectedGraph(4, [(0, 1), (2, 3), (0, 1), (0, 1), (2, 3)])
        stream = make_stream(g, "given")
        s_mask = member_mask({0}, 4)
        t_mask = member_mask({1}, 4)
        src, dst = stream.take_qualifying(2, s_mask, t_mask)
        assert src.tolist() == [0, 0]
        # consumed exactly through the second qualifying edge (position 3)
        assert stream.remaining == 2
        assert stream.edges_read == 3

    def test_take_qualifying_returns_fewer_at_the_stream_end(self):
        g = DirectedGraph(4, [(0, 1), (2, 3)])
        stream = make_stream(g, "given")
        src, _ = stream.take_qualifying(5, member_mask({0}, 4), member_mask({1}, 4))
        assert src.tolist() == [0]
        assert stream.remaining == 0

    def test_take_qualifying_zero_is_noop(self):
        stream = make_stream(toy_graph(), "given")
        src, _ = stream.take_qualifying(0, member_mask({0}, 4), member_mask({1}, 4))
        assert src.size == 0
        assert stream.remaining == 3

    def test_small_block_scanning(self, monkeypatch):
        monkeypatch.setattr(streaming, "_QUALIFYING_BLOCK", 16)
        edges = [(2, 3)] * 100 + [(0, 1)] + [(2, 3)] * 100 + [(0, 1)]
        g = DirectedGraph(4, edges)
        stream = make_stream(g, "given")
        src, _ = stream.take_qualifying(2, member_mask({0}, 4), member_mask({1}, 4))
        assert src.tolist() == [0, 0]
        assert stream.remaining == 0


class Installments:
    """Stream source that hands out fixed (src, dst) installments in order."""

    def __init__(self, parts):
        self._parts = list(parts)

    @property
    def size(self):
        return sum(int(src.size) for src, _ in self._parts)

    def fetch(self):
        return self._parts.pop(0) if self._parts else None


def _arrays(edges):
    return (np.array([u for u, _ in edges], dtype=np.int64),
            np.array([v for _, v in edges], dtype=np.int64))


def source_fed(n, edges, cuts):
    """Stream over `edges` whose first part is buffered and the rest fetched."""
    bounds = [0, *sorted(cuts), len(edges)]
    parts = [_arrays(edges[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return EdgeStream(n, *parts[0], source=Installments(parts[1:]))


_N = 4
_edge = st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1))
_members = st.lists(st.booleans(), min_size=_N, max_size=_N)
_op = st.one_of(
    st.tuples(st.just("take"), st.integers(-2, 12)),
    st.tuples(st.just("take_qualifying"), st.integers(-1, 12), _members, _members,
              st.integers(1, 5)),
    st.tuples(st.just("take_all")),
)


class TestSourceFedStream:
    @settings(max_examples=300, deadline=None)
    @given(edges=st.lists(_edge, max_size=40),
           cut_fracs=st.lists(st.floats(0, 1), max_size=8),
           ops=st.lists(_op, max_size=12))
    def test_installments_read_like_one_static_stream(self, edges, cut_fracs, ops):
        cuts = [int(f * len(edges)) for f in cut_fracs]  # repeats give empty installments
        fed = source_fed(_N, edges, cuts)
        static = EdgeStream(_N, *_arrays(edges))
        assert fed.remaining == static.remaining == len(edges)
        for op in ops:
            if op[0] == "take_qualifying":
                _, want, s_bits, t_bits, block = op
                masks = (np.array(s_bits), np.array(t_bits))
                with mock.patch.object(streaming, "_QUALIFYING_BLOCK", block):
                    got = fed.take_qualifying(want, *masks)
                    expected = static.take_qualifying(want, *masks)
            else:
                got = getattr(fed, op[0])(*op[1:])
                expected = getattr(static, op[0])(*op[1:])
            assert got[0].tolist() == expected[0].tolist()
            assert got[1].tolist() == expected[1].tolist()
            assert fed.edges_read == static.edges_read
            assert fed.remaining == static.remaining

    def test_refills_only_when_the_buffer_runs_short(self):
        fed = source_fed(4, [(0, 1), (1, 2), (2, 3), (3, 0)], cuts=[1, 3])
        assert fed.take(1)[0].tolist() == [0]
        assert fed.remaining == 3
        assert fed.take(1)[0].tolist() == [1]  # one fetch: the installment [1, 2]
        assert fed.take_all()[0].tolist() == [2, 3]
        assert fed.remaining == 0
        assert fed.take(5)[0].size == 0

    def test_reset_and_replay_rejected(self):
        fed = source_fed(4, [(0, 1), (1, 2)], cuts=[1])
        with pytest.raises(ValueError, match="source-fed"):
            fed.reset()
        with pytest.raises(ValueError, match="source-fed"):
            fed.replay()
        assert fed.resets == 0
        assert fed.take_all()[0].tolist() == [0, 1]


def _read_only_pool(size=50):
    pool = np.arange(size, dtype=np.int64) * 3 + 1
    pool.setflags(write=False)
    return pool


_cuts = st.lists(st.integers(0, 40), min_size=3, max_size=3).map(sorted)


class TestTakeQualifyingAtTheRoot:
    """At (V, V) ``take_qualifying`` is ``take``. The block path still runs
    when one mask spans an extra, edgeless vertex outside S: then every edge
    qualifies, but neither side is all of V."""

    @pytest.mark.parametrize("fed", [False, True])
    @pytest.mark.parametrize("beyond", [-1, 0, 3])  # want - remaining
    @pytest.mark.parametrize("block", [2, 65536])
    def test_returns_what_the_block_path_returns(self, monkeypatch, fed, beyond, block):
        monkeypatch.setattr(streaming, "_QUALIFYING_BLOCK", block)
        edges = [(u % _N, (3 * u + 1) % _N) for u in range(23)]

        def stream():
            made = source_fed(_N, edges, [5, 11, 17]) if fed else EdgeStream(_N, *_arrays(edges))
            made.take(4)  # the cursor is past 0
            return made

        root, block_path = stream(), stream()
        everyone = np.ones(_N, dtype=bool).view(NeverIndexed)
        short, wide = np.ones(_N + 1, dtype=bool), np.ones(_N + 1, dtype=bool)
        short[_N] = False
        want = root.remaining + beyond
        got = root.take_qualifying(want, everyone, everyone)
        expected = block_path.take_qualifying(want, short, wide)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()
        assert len(got[0]) == min(want, 19)
        assert root.edges_read == block_path.edges_read == 4 + len(got[0])
        assert root.remaining == block_path.remaining


class TestJoined:
    @settings(max_examples=200, deadline=None)
    @given(cuts=_cuts)
    def test_adjacent_slices_join_into_a_read_only_view_of_their_buffer(self, cuts):
        i, j, k = cuts
        assume(i < j < k)
        pool = _read_only_pool()
        a, b = pool[i:j], pool[j:k]
        out = _joined(a, b)
        assert out.tolist() == np.concatenate([a, b]).tolist()
        assert np.shares_memory(out, pool)
        assert not out.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(cuts=_cuts, gap=st.integers(1, 5),
           case=st.sampled_from(["gap", "two pools", "two bases on one buffer", "swapped",
                                 "dtype view", "half-width view", "mixed dtypes"]))
    def test_any_other_two_slices_are_joined_into_a_new_array(self, cuts, gap, case):
        i, j, k = cuts
        pool = _read_only_pool()
        a, b = pool[i:j], pool[j:k]
        if case == "gap":
            b = pool[j + gap : k + gap]
        elif case == "two pools":
            b = _read_only_pool()[j:k]
        elif case == "two bases on one buffer":
            b = np.frombuffer(memoryview(pool), dtype=pool.dtype)[j:k]
        elif case == "swapped":
            a, b = b, a
        elif case == "dtype view":
            # adjacent and on one base, but not of the base's dtype
            a, b = pool.view(np.uint64)[i:j], pool.view(np.uint64)[j:k]
        elif case == "half-width view":
            halves = pool.view(np.int32)
            a, b = halves[2 * i : 2 * j], halves[2 * j : 2 * k]
        else:
            b = pool.view(np.float64)[j:k]
        assume(a.size and b.size)
        out = _joined(a, b)
        expected = np.concatenate([a, b])
        assert out.dtype == expected.dtype and out.tolist() == expected.tolist()
        assert out.base is None
        assert not (np.shares_memory(out, pool) or np.shares_memory(out, b))
        assert not out.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(cuts=_cuts)
    def test_an_empty_side_returns_the_other_as_is(self, cuts):
        i, j, _ = cuts
        pool = _read_only_pool()
        side, empty = pool[i:j], pool[j:j]
        assert _joined(side, empty) is side
        assert _joined(empty, side) is (side if side.size else empty)

    def test_a_writeable_view_joined_with_a_read_only_one_is_read_only(self):
        pool = np.arange(10, dtype=np.int64)
        head = pool[:4]
        head.flags.writeable = False
        for a, b in ((head, pool[4:]), (head, pool[5:])):
            out = _joined(a, b)
            assert out.tolist() == np.concatenate([a, b]).tolist()
            assert not out.flags.writeable
        assert pool.flags.writeable

    def test_slices_of_a_two_dimensional_owner_join_into_a_view(self):
        # gen_pref_attach's dst is a flat view of an (n - 1, k) array
        g = gen_pref_attach(2000, 50, 3)
        assert g.dst.base.ndim == 2 and g.src.base is None
        for edges in (g.src, g.dst):
            out = _joined(edges[:70], edges[70:300])
            assert out.tolist() == edges[:300].tolist()
            assert np.shares_memory(out, edges) and not out.flags.writeable
        fortran = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        column = fortran[:, 1]  # contiguous, but its owner is not in C order
        out = _joined(column[:1], column[1:])
        assert out.tolist() == [1, 5, 9] and not np.shares_memory(out, fortran)

    @pytest.mark.parametrize("order", ["given", "shuffled"])
    def test_a_drained_stream_over_a_generated_graph_is_retained_as_views(self, order):
        # n * xi = 82,000 < m = 99,950: the first batch, then the drain
        g = gen_pref_attach(2000, 50, 3)
        params = sample_params(g.n, 0.2, f=1 / 285)
        assert g.n * params.xi == 82_000
        stream = make_stream(g, order, seed=1)
        engine = SinglePassEngine(g.n, 1, params, np.random.default_rng(0))
        engine.run(stream)
        stream_src, stream_dst = stream.replay().take_all()
        kept_src, kept_dst = engine.seen.arrays()
        assert kept_src.size == g.m
        assert np.shares_memory(kept_src, stream_src) and np.shares_memory(kept_dst, stream_dst)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirdense.graph import DirectedGraph, VertexSetPair, count_cross_edges, member_mask
from dirdense.streaming import (
    SampleParams,
    SeenSet,
    estimate_cross_edges,
    make_stream,
    sample_params,
    sampled_density_estimate,
    set_sample,
)


def seen_with(pairs):
    seen = SeenSet()
    arr = np.asarray(pairs, dtype=np.int64)
    seen.add(arr[:, 0], arr[:, 1])
    return seen


def masks(S, T, n):
    return member_mask(S, n), member_mask(T, n)


class TestSetSample:
    def test_p_one_is_deterministic(self):
        # H must be E' plus the next s - |E'| qualifying edges, in order
        g = DirectedGraph(4, [(2, 3), (0, 1), (0, 1), (2, 3), (0, 1)])
        stream = make_stream(g, "given")
        seen = seen_with([(0, 1), (0, 1)])
        src, dst, fresh = set_sample(seen, *masks({0}, {1}, 4), 1.0, 4, stream,
                                     rng=np.random.default_rng(0))
        assert src.size == 4
        assert (fresh[0].tolist(), fresh[1].tolist()) == ([0, 0], [1, 1])  # the draw filled
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1)] * 4
        # two fresh qualifying edges required reading positions 0..2
        assert stream.edges_read == 3

    def test_estimate_equal_to_seen_skips_stream(self):
        g = DirectedGraph(2, [(0, 1)] * 5)
        stream = make_stream(g, "given")
        seen = seen_with([(0, 1)] * 3)
        src, _, fresh = set_sample(
            seen, *masks({0}, {1}, 2), 0.5, 3, stream, rng=np.random.default_rng(1)
        )
        assert stream.edges_read == 0
        assert fresh[0].size == 0
        assert src.size <= 3

    def test_rejects_estimate_below_seen(self):
        g = DirectedGraph(2, [(0, 1)])
        seen = seen_with([(0, 1)] * 3)
        with pytest.raises(ValueError):
            set_sample(seen, *masks({0}, {1}, 2), 0.5, 2,
                       make_stream(g, "given"), rng=np.random.default_rng(0))

    def test_rejects_bad_p(self):
        g = DirectedGraph(2, [(0, 1)])
        seen = SeenSet()
        for p in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                set_sample(seen, *masks({0}, {1}, 2), p, 5,
                           make_stream(g, "given"), rng=np.random.default_rng(0))

    def test_stops_at_the_stream_end(self):
        g = DirectedGraph(2, [(0, 1)] * 2)
        stream = make_stream(g, "given")
        seen = SeenSet()
        src, _, fresh = set_sample(
            seen, *masks({0}, {1}, 2), 1.0, 10, stream, rng=np.random.default_rng(0)
        )
        assert src.size == fresh[0].size == 2
        assert stream.remaining == 0

    def test_marginal_inclusion_rate(self):
        # |E(S,T)| = 400, |E'| = 80, s = 400, p = 0.15: every edge lands in H
        # with probability ~ p (quick version of the acceptance-scale check)
        n, total, kept, p = 2, 400, 80, 0.15
        trials = 4000
        seen_template = [(0, 1)] * kept
        stream_edges = [(0, 1)] * (total - kept)
        s_mask, t_mask = masks({0}, {1}, n)
        rng = np.random.default_rng(7)
        sizes = []
        for trial in range(trials):
            seen = seen_with(seen_template)
            g = DirectedGraph(n, stream_edges)
            stream = make_stream(g, "shuffled", seed=trial)
            src, _, _ = set_sample(seen, s_mask, t_mask, p, total, stream, rng=rng)
            sizes.append(src.size)
        mean_size = np.mean(sizes)
        assert abs(mean_size - p * total) < 2.0

    def test_sample_never_aliases_seen_buffer(self):
        g = DirectedGraph(2, [(0, 1)] * 10)
        stream = make_stream(g, "given")
        seen = seen_with([(0, 1)] * 4)
        src, _, _ = set_sample(seen, *masks({0}, {1}, 2), 1.0, 6, stream,
                               rng=np.random.default_rng(0))
        seen.refilter(np.zeros(2, dtype=bool), np.zeros(2, dtype=bool))
        assert src.size == 6  # untouched by the refilter


_SEEN_N = 6


@st.composite
def seen_set_runs(draw):
    """A graph and SeenSet operations on its edge stream: ("add", k) retains
    the stream's next k edges, ("note", k) notes k edges in flight, and
    ("refilter", S, T) keeps the retained edges inside (S, T)."""
    vertex = st.integers(0, _SEEN_N - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    side = st.lists(st.booleans(), min_size=_SEEN_N, max_size=_SEEN_N)
    op = st.one_of(st.tuples(st.just("add"), st.integers(0, 12)),
                   st.tuples(st.just("note"), st.integers(0, 12)),
                   st.tuples(st.just("refilter"), side, side))
    return DirectedGraph(_SEEN_N, edges), draw(st.lists(op, max_size=20))


@given(seen_set_runs())
@settings(max_examples=200, deadline=None)
def test_seen_set_matches_a_list_model(run):
    g, ops = run
    stream = make_stream(g, "given")  # hands out read-only views: an in-place write raises
    seen = SeenSet()
    model, peak, handed_out = [], 0, []
    for op in ops:
        if op[0] == "add":
            src, dst = stream.take(op[1])
            seen.add(src, dst)
            model += zip(src.tolist(), dst.tolist())
            peak = max(peak, len(model))
        elif op[0] == "note":
            seen.note_extra(op[1])
            peak = max(peak, len(model) + op[1])
        else:
            s_mask, t_mask = np.array(op[1]), np.array(op[2])
            s_mask.setflags(write=False)
            t_mask.setflags(write=False)
            seen.refilter(s_mask, t_mask)
            model = [(u, v) for u, v in model if op[1][u] and op[2][v]]
        src, dst = seen.arrays()
        assert list(zip(src.tolist(), dst.tolist())) == model
        assert seen.size == len(model)
        assert seen.peak_size == peak
        handed_out.append((src, dst, list(model)))
    for src, dst, held in handed_out:
        assert list(zip(src.tolist(), dst.tolist())) == held  # no later operation wrote them


class TestEstimateCrossEdges:
    def test_direct_formula(self):
        # a batch of 100 edges, 50 of them inside the pair
        s = estimate_cross_edges(100, 50, stream_remaining=900, n_xi=100,
                                 seen_size=10, epsilon=0.2)
        assert s == 410  # 0.8 * 0.5 * 1000 + 10

    def test_clamps_to_evidence(self):
        # a batch of 10 edges, none inside the pair
        s = estimate_cross_edges(10, 0, stream_remaining=100, n_xi=10,
                                 seen_size=7, epsilon=0.2)
        assert s == 7

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            estimate_cross_edges(0, 0, 10, 10, 0, 0.2)

    def test_population_bracketing(self):
        # randomized stream with 5000 qualifying among 100k: the estimate
        # brackets the truth as s <= |E(S,T)| <= 1.5 s in >= 99% of trials
        eps = 0.2
        true_cross = 5000
        total = 100_000
        batch_size = 20_000
        universe = np.zeros(total, dtype=np.int64)
        universe[:true_cross] = 1  # 1 marks a qualifying edge
        rng = np.random.default_rng(123)
        ok = 0
        trials = 1000
        for _ in range(trials):
            perm = rng.permutation(total)
            sample = universe[perm[:batch_size]]
            matching = int(sample.sum())
            s = estimate_cross_edges(batch_size, matching,
                                     stream_remaining=total - batch_size,
                                     n_xi=batch_size, seen_size=0, epsilon=eps)
            if s <= true_cross <= (1 + eps) / (1 - eps) * s:
                ok += 1
        assert ok >= 0.99 * trials


class TestSampledDensityEstimate:
    def test_p_one_equals_density(self):
        batch = DirectedGraph(4, [(0, 1), (0, 2), (3, 3)])
        pair = VertexSetPair.of({0}, {1, 2}, batch.n)
        cross = count_cross_edges(batch, pair)
        assert sampled_density_estimate(cross, 1.0, *pair.sizes()) == pytest.approx(2 / math.sqrt(2))

    def test_scaling_arithmetic(self):
        # |E_H| = 50, p = 0.1, |S| = |T| = 100 gives 5.0
        assert sampled_density_estimate(50, 0.1, 100, 100) == pytest.approx(5.0)

    def test_empty_pair_is_zero(self):
        assert sampled_density_estimate(0, 0.5, 0, 1) == 0.0

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            sampled_density_estimate(1, 0.0, 1, 1)

    def test_unbiased_over_resampling(self):
        # pair with true density 8.0 sampled at p = 0.2, mean within 0.1
        n = 50
        cross = 200  # density 8.0 on |S| = |T| = 25
        s_mask, t_mask = masks(range(25), range(25, 50), n)
        src = np.repeat(np.arange(25), 8).astype(np.int64)
        dst = 25 + (np.arange(cross) % 25).astype(np.int64)
        rng = np.random.default_rng(99)
        p = 0.2
        estimates = []
        for _ in range(10_000):
            keep = rng.random(cross) < p
            sampled = int(np.count_nonzero(s_mask[src[keep]] & t_mask[dst[keep]]))
            estimates.append(sampled_density_estimate(sampled, p, 25, 25))
        assert abs(np.mean(estimates) - 8.0) < 0.1


def test_sample_params_formula():
    params = sample_params(100, 0.2)
    assert params.xi == math.ceil(60 * math.log(100) / 0.04)
    assert sample_params(1, 0.2).xi == 1  # clamped
    scaled = sample_params(100, 0.2, f=0.5)
    assert scaled.xi == math.ceil(0.5 * 60 * math.log(100) / 0.04)
    with pytest.raises(ValueError):
        sample_params(100, 1.2)
    with pytest.raises(ValueError):
        sample_params(100, 0.2, f=0.0)
    with pytest.raises(ValueError, match="n must be positive"):
        sample_params(0, 0.2)
    with pytest.raises(ValueError, match="epsilon"):
        SampleParams(epsilon=1.0, xi=5)
    with pytest.raises(ValueError, match="xi"):
        SampleParams(epsilon=0.2, xi=0)


@pytest.mark.parametrize("epsilon,f", [(0.0, 1.0), (1e-300, 1.0), (0.2, math.inf), (0.2, math.nan),
                                       (0.2, 1e308), (0.2, -1.0), (math.nan, 1.0)])
def test_sample_params_rejects_degenerate_settings(epsilon, f):
    with pytest.raises(ValueError):
        sample_params(100, epsilon, f)

"""Degree-threshold peeling and an exhaustive densest-pair search for small graphs."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import DirectedGraph, VertexSetPair

__all__ = [
    "baseline_peel",
    "exact_oracle",
]


def _ratio_guess(c) -> Fraction:
    """``c`` as a Fraction; raises ValueError unless it is a positive rational.
    A bool is not one, as it is not a vertex id or count either."""
    try:
        ratio = None if isinstance(c, bool) else Fraction(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        ratio = None
    if ratio is None:
        raise ValueError(f"ratio guess c must be a positive rational, got {c!r}")
    if ratio <= 0:
        raise ValueError("ratio guess c must be positive")
    return ratio


def _density(cross: int, s_count: int, t_count: int) -> float:
    return cross / math.sqrt(s_count * t_count) if s_count and t_count else 0.0


def _ratio_prefers_sources(s_count: int, t_count: int, c: Fraction) -> bool:
    # exact rational test of |S|/|T| >= c
    return s_count * c.denominator >= t_count * c.numerator


def _threshold_drop(deg, side_mask, cross, side_count, epsilon):
    """Vertices of the side at or below (1+eps) times the average cross-degree.

    On full-information views this set is never empty (some member sits at or
    below the average). Noisy sampled degrees cannot produce an empty set
    either for the same pigeonhole reason, but if float rounding ever does,
    we still evict one minimum-degree vertex so every call makes progress.
    """
    threshold = (1.0 + epsilon) * cross / side_count
    drop = side_mask & (deg <= threshold)
    if not drop.any():
        members = np.flatnonzero(side_mask)
        drop = np.zeros(side_mask.size, dtype=bool)
        drop[members[int(np.argmin(deg[members]))]] = True
    return drop


class _Step(NamedTuple):
    """One peel of the kernel: the side, how many left it, and the pair after."""

    side: str  # "S" or "T"
    removed: int
    s_mask: np.ndarray
    t_mask: np.ndarray
    s_count: int
    t_count: int
    cross: int


def _rescan_peels(src, dst, n, c, epsilon, s_mask, t_mask):
    """Peel steps that rescan the whole bag every iteration, caching nothing.

    Each step is the kernel's first step on the whole bag, which may hold
    edges outside (S, T): one membership pass and one tally of the peeled
    side, as a pass-per-iteration stream would do.
    """
    while s_mask.any() and t_mask.any():
        step = next(_exact_bag_peels(src, dst, n, c, epsilon, s_mask, t_mask,
                                     inside=s_mask[src] & t_mask[dst]))
        yield step
        s_mask, t_mask = step.s_mask, step.t_mask


def _exact_bag_peels(src, dst, n, c, epsilon, s_mask, t_mask, *, inside=None):
    """Threshold peel steps from (S, T): the one implementation of a peel step.

    With ``inside=None`` every bag edge must lie inside (S, T): the bag's
    size is the cross count and degrees are tallied without a membership
    check. Any other bag needs ``inside = s_mask[src] & t_mask[dst]``; the
    first run then tallies only the peeled side's ends inside the pair, and
    the first compaction folds ``inside`` in.

    Peels come in runs of the same side. The other side does not change
    during a run, so one bincount at its start keeps every surviving
    member's degree exact, and each peel needs only a masked sum for the new
    cross count. When the ratio test flips, one gather on the side that
    shrank compacts the bag to E(S, T); a consumer taking only ``next``
    never pays for it. No mask is written in place: a peel builds a new mask
    for its side and yields the other side's as it is, so steps may be kept.
    """
    ends = (src, dst)
    masks = [s_mask, t_mask]
    counts = [int(np.count_nonzero(s_mask)), int(np.count_nonzero(t_mask))]
    cross = int(src.size) if inside is None else int(np.count_nonzero(inside))
    while counts[0] and counts[1]:
        side = int(not _ratio_prefers_sources(*counts, c))
        deg = np.bincount(ends[side] if inside is None else ends[side][inside], minlength=n)
        while counts[0] and counts[1] and side == int(not _ratio_prefers_sources(*counts, c)):
            drop = _threshold_drop(deg, masks[side], cross, counts[side], epsilon)
            removed = int(np.count_nonzero(drop))
            masks[side] = masks[side] & ~drop
            counts[side] -= removed
            cross = int(deg[masks[side]].sum())
            yield _Step("ST"[side], removed, masks[0], masks[1], counts[0], counts[1], cross)
        if counts[0] and counts[1]:
            keep = masks[side][ends[side]]
            if inside is not None:
                keep &= inside
                inside = None
            ends = (ends[0][keep], ends[1][keep])


def _peel_best(steps, s_mask, t_mask, cross):
    """Consume peel ``steps`` from (S, T), tracking the best exact-density pair.

    ``cross`` is the start pair's cross count, and the start pair is the
    first candidate. Returns (best S mask, best T mask, best density, the
    number of steps). The masks are the steps' own, not copies, since the
    kernel never writes one in place.
    """
    s_count = int(np.count_nonzero(s_mask))
    t_count = int(np.count_nonzero(t_mask))
    best = (s_mask, t_mask, _density(cross, s_count, t_count))
    count = 0
    for count, step in enumerate(steps, start=1):
        rho = _density(step.cross, step.s_count, step.t_count)
        if rho > best[2]:
            best = (step.s_mask, step.t_mask, rho)
    return (*best, count)


def baseline_peel(g: DirectedGraph, c, epsilon: float):
    """Full-information peel from (V, V) with ratio guess ``c`` and slack
    ``epsilon``; returns (best pair, its density, the number of peel
    iterations).

    Restricted degrees are recomputed from the whole edge set on every
    iteration, matching a pass-per-iteration streaming execution: nothing is
    cached or compacted between iterations.
    """
    c = _ratio_guess(c)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    everyone = np.ones(g.n, dtype=bool)
    if g.n == 1:
        # single-vertex graph: only candidate is ({0}, {0}); edges are self-loops
        return VertexSetPair(everyone, everyone), float(g.m), 0
    peels = _rescan_peels(g.src, g.dst, g.n, c, epsilon, everyone, everyone)
    best_s, best_t, rho, iterations = _peel_best(peels, everyone, everyone, g.m)
    return VertexSetPair(best_s, best_t), rho, iterations


_ORACLE_CHUNK = 1 << 14


def exact_oracle(g: DirectedGraph, max_vertices: int = 20):
    """Exhaustive densest-pair search, feasible only for small graphs.

    Enumerates every nonempty S. For a fixed S the best T is a prefix of the
    vertices ordered by in-count from S: swapping any chosen head vertex for
    an outsider with more incoming edges never lowers the density, so only n
    prefixes per S need scoring.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n > max_vertices:
        raise ValueError(f"exhaustive search capped at {max_vertices} vertices (got n={n})")
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (g.src, g.dst), 1)
    bits = np.arange(n)
    sqrt_t = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    best_rho = -1.0
    best_subset = 0
    best_prefix = None
    for lo in range(1, 1 << n, _ORACLE_CHUNK):
        ids = np.arange(lo, min(lo + _ORACLE_CHUNK, 1 << n), dtype=np.int64)
        subset = ((ids[:, None] >> bits) & 1).astype(np.int64)
        sizes = subset.sum(axis=1).astype(np.float64)
        in_counts = subset @ counts
        order = np.argsort(-in_counts, axis=1, kind="stable")
        prefix_cross = np.take_along_axis(in_counts, order, axis=1).cumsum(axis=1)
        rho = prefix_cross / (np.sqrt(sizes)[:, None] * sqrt_t[None, :])
        flat = int(np.argmax(rho))
        row, t_idx = divmod(flat, n)
        if rho[row, t_idx] > best_rho:
            best_rho = float(rho[row, t_idx])
            best_subset = int(ids[row])
            best_prefix = order[row, : t_idx + 1].copy()
    s_mask = ((best_subset >> bits) & 1).astype(bool)
    t_mask = np.zeros(n, dtype=bool)
    t_mask[best_prefix] = True
    return VertexSetPair(s_mask, t_mask), best_rho

"""Degree-threshold peeling and an exhaustive densest-pair search for small graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import DirectedGraph, VertexSetPair

__all__ = [
    "PeelParams",
    "PeelStep",
    "baseline_peel",
    "exact_oracle",
    "iteration_cap",
    "vsets_update",
]


def _ratio_guess(c) -> Fraction:
    """``c`` as a Fraction; raises unless it is positive."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("ratio guess c must be positive")
    return c


@dataclass(frozen=True)
class PeelParams:
    """Peeling knobs: the target |S|/|T| ratio guess and the slack factor."""

    c: Fraction
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "c", _ratio_guess(self.c))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")


class PeelStep(NamedTuple):
    iteration: int
    side: str  # "S" or "T"
    removed: int
    density_after: float


def iteration_cap(n: int, epsilon: float) -> int:
    """Worst-case peel count before one side must be empty."""
    if n <= 1:
        return 0
    return math.ceil(2.0 * math.log(n) / math.log(1.0 + epsilon))


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


def _peel_once(src, dst, n, c, epsilon, s_mask, t_mask):
    """One threshold peel over the given edge bag, restricted to (S, T).

    Returns (side, removed, new_s_mask, new_t_mask, cross_after); the
    untouched side's mask is returned as-is. ``cross_after`` is the view's
    exact cross-edge count for the surviving pair, derived from the degree
    tally rather than a rescan.
    """
    qualifying = s_mask[src] & t_mask[dst]
    cross = int(np.count_nonzero(qualifying))
    s_count = int(np.count_nonzero(s_mask))
    t_count = int(np.count_nonzero(t_mask))
    if _ratio_prefers_sources(s_count, t_count, c):
        deg = np.bincount(src[qualifying], minlength=n)
        drop = _threshold_drop(deg, s_mask, cross, s_count, epsilon)
        new_s = s_mask & ~drop
        return "S", int(np.count_nonzero(drop)), new_s, t_mask, int(deg[new_s].sum())
    deg = np.bincount(dst[qualifying], minlength=n)
    drop = _threshold_drop(deg, t_mask, cross, t_count, epsilon)
    new_t = t_mask & ~drop
    return "T", int(np.count_nonzero(drop)), s_mask, new_t, int(deg[new_t].sum())


def vsets_update(g_view, params: PeelParams, pair: VertexSetPair) -> VertexSetPair:
    """Peel the over-ratio side of (S, T) once, using g_view's edges for degrees.

    ``g_view`` may be the full graph or any sampled edge bag over the pair.
    """
    if not all(pair.sizes()):
        raise ValueError("vsets_update requires nonempty S and T")
    n = g_view.n
    s_mask, t_mask = pair.masks(n)
    _, _, new_s, new_t, _ = _peel_once(g_view.src, g_view.dst, n, params.c, params.epsilon, s_mask, t_mask)
    return VertexSetPair.from_masks(new_s, new_t)


def _rescan_peels(src, dst, n, c, epsilon, s_mask, t_mask):
    """Peel steps that rescan the whole bag every iteration, caching nothing."""
    while s_mask.any() and t_mask.any():
        step = _peel_once(src, dst, n, c, epsilon, s_mask, t_mask)
        yield step
        s_mask, t_mask = step[2], step[3]


def _exact_bag_peels(src, dst, n, c, epsilon, s_mask, t_mask):
    """Peel steps over a bag kept equal to E(S, T), visiting the same pairs.

    The bag must start as exactly E(S, T) of the given masks. Peels come in
    runs of the same side. The other side does not change during a run, so
    the degrees tallied by one bincount at the start of the run stay exact
    for every surviving member, and each peel needs only a masked sum for
    the new cross count. When the ratio test flips, one gather on the side
    that shrank compacts the bag back to E(S, T).
    """
    ends = (src, dst)
    masks = [s_mask, t_mask]
    counts = [int(np.count_nonzero(s_mask)), int(np.count_nonzero(t_mask))]
    cross = int(src.size)
    while counts[0] and counts[1]:
        side = int(not _ratio_prefers_sources(*counts, c))
        deg = np.bincount(ends[side], minlength=n)
        while counts[0] and counts[1] and side == int(not _ratio_prefers_sources(*counts, c)):
            drop = _threshold_drop(deg, masks[side], cross, counts[side], epsilon)
            removed = int(np.count_nonzero(drop))
            masks[side] = masks[side] & ~drop
            counts[side] -= removed
            cross = int(deg[masks[side]].sum())
            yield "ST"[side], removed, masks[0], masks[1], cross
        if counts[0] and counts[1]:
            keep = masks[side][ends[side]]
            ends = (ends[0][keep], ends[1][keep])


def _peel_best(src, dst, n, c, epsilon, *, compact, trace=None, start=None):
    """Peel to exhaustion, tracking the best exact-density pair seen.

    Starts from (V, V), or from ``start`` masks. Either way every bag edge
    must lie inside the start pair: the bag's size is taken as the starting
    cross count. With ``compact=False`` each iteration rescans the whole bag,
    as a pass-per-iteration stream would. With ``compact=True`` the bag is
    kept equal to E(S, T), so a run of same-side peels costs one bincount
    and a flip of side costs one gather; the visited pair sequence, the
    cross counts and the trace are identical either way.
    """
    if start is None:
        s_mask = np.ones(n, dtype=bool)
        t_mask = np.ones(n, dtype=bool)
    else:
        s_mask, t_mask = start[0].copy(), start[1].copy()
    best_s = s_mask.copy()
    best_t = t_mask.copy()
    best_cross = int(src.size)
    s_count = int(np.count_nonzero(s_mask))
    t_count = int(np.count_nonzero(t_mask))
    best_rho = best_cross / math.sqrt(s_count * t_count) if s_count and t_count else 0.0
    peels = _exact_bag_peels if compact else _rescan_peels
    iterations = 0
    for side, removed, s_mask, t_mask, cross in peels(src, dst, n, c, epsilon, s_mask, t_mask):
        iterations += 1
        s_count = int(np.count_nonzero(s_mask))
        t_count = int(np.count_nonzero(t_mask))
        rho = cross / math.sqrt(s_count * t_count) if s_count and t_count else 0.0
        if trace is not None:
            trace.append(PeelStep(iterations, side, removed, rho))
        if rho > best_rho:
            best_s = s_mask.copy()
            best_t = t_mask.copy()
            best_rho = rho
            best_cross = cross
    return best_s, best_t, best_rho, best_cross, iterations


def baseline_peel(g: DirectedGraph, params: PeelParams):
    """Full-information peel from (V, V); returns (best pair, its density, steps).

    ``steps`` is the list of ``PeelStep``s, one per peel iteration.

    Restricted degrees are recomputed from the whole edge set on every
    iteration, matching a pass-per-iteration streaming execution: nothing is
    cached or compacted between iterations.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if g.n == 1:
        # single-vertex graph: only candidate is ({0}, {0}); edges are self-loops
        pair = VertexSetPair(frozenset({0}), frozenset({0}), g.m)
        return pair, float(g.m), []
    steps: list[PeelStep] = []
    best_s, best_t, rho, cross, _ = _peel_best(
        g.src, g.dst, g.n, params.c, params.epsilon, compact=False, trace=steps
    )
    return VertexSetPair.from_masks(best_s, best_t, cross), rho, steps


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
    best_cross = 0
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
            best_cross = int(prefix_cross[row, t_idx])
    s_mask = ((best_subset >> bits) & 1).astype(bool)
    t_mask = np.zeros(n, dtype=bool)
    t_mask[best_prefix] = True
    return VertexSetPair.from_masks(s_mask, t_mask, best_cross), best_rho

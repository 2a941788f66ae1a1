"""Degree-threshold peeling and an exhaustive densest-pair search for small graphs."""

from __future__ import annotations

import bisect
import contextlib
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import DirectedGraph, VertexSetPair, _inside_mask

__all__ = [
    "RoundLedger",
    "SharedPeel",
    "baseline_peel",
    "exact_oracle",
]


@dataclass
class RoundLedger:
    """What a runner call cost, the third item every runner returns: its
    passes or rounds and the most edges it held at once. Only the MPC
    runners fill ``log``, one ``mpc.PhaseRecord`` a phase."""

    rounds: int = 0
    peak_edges: int = 0
    log: list = field(default_factory=list)

    @property
    def phases(self) -> int:
        return len(self.log)


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


# below this share of kept entries, a gather by index beats a boolean mask
_GATHER_SHARE = 15 / 16

# a bag's sources are checked for order on this many first edges before
# all of them; a shuffled bag decreases within a few
_SORT_PROBE = 1024


def _kept(keep, *arrays):
    """Each of ``arrays``' entries where ``keep`` holds, in order, as new
    arrays; no input is written. A boolean mask pays for every entry it
    reads, so below a kept share of ``_GATHER_SHARE`` one ``flatnonzero``
    and a gather per array are cheaper; above it the mask is."""
    if np.count_nonzero(keep) < _GATHER_SHARE * keep.size:
        keep = np.flatnonzero(keep)
    return tuple(a[keep] for a in arrays)


def _inside(src, dst, s_mask, t_mask):
    """The edges (``src``, ``dst``) inside (S, T), in their order: the one
    membership filter of an edge bag. It returns the inputs themselves at
    (V, V), where it builds no mask, and wherever no edge is outside the
    pair, as nothing writes an edge array; otherwise new arrays, through
    ``_kept``."""
    if s_mask.all() and t_mask.all():
        return src, dst
    keep = _inside_mask(src, dst, s_mask, t_mask)
    return (src, dst) if keep.all() else _kept(keep, src, dst)


def _inside_rows(src, dst, offsets, s_mask, t_mask, limit):
    """E(S, T) of the bag (``src``, ``dst``), as ``_inside`` leaves it,
    read from the by-source rows of S's members, the bag's edges from v
    at ``offsets[v]`` up to ``offsets[v + 1]``; None when ``offsets`` is
    None or those rows hold ``limit`` edges or more."""
    if offsets is None:
        return None
    members = np.flatnonzero(s_mask)
    starts = offsets[members]
    lengths = offsets[members + 1] - starts
    total = int(lengths.sum())
    if total >= limit:
        return None
    # row i's k-th edge is at starts[i] + k, and lands at its row's
    # running start plus k; every row edge's source is a member, so only
    # T is tested
    rows = np.arange(total) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    everyone = np.ones(s_mask.size, dtype=bool)
    return _inside(np.repeat(members, lengths), dst[rows], everyone, t_mask)


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
    """One peel of the kernel: the side, how many left it, the pair after,
    and the guesses that take it, as indices into the kernel's guesses."""

    side: str  # "S" or "T"
    removed: int
    s_mask: np.ndarray
    t_mask: np.ndarray
    s_count: int
    t_count: int
    cross: int
    guesses: range


def _first_target_peeler(cs, guesses: range, counts) -> int:
    """The first index in ``guesses`` whose guess peels T at a pair of these
    side counts; every guess before it peels S, as ``cs`` ascends and the
    ratio test |S|/|T| >= c holds for every c up to |S|/|T|."""
    return bisect.bisect_left(cs, True, guesses.start, guesses.stop,
                              key=lambda c: not _ratio_prefers_sources(*counts, c))


class _Leavers:
    """The guess groups that leave one run of a walk's first pair, over a
    bag given with its degrees, while the run's other side is V; and the
    degrees of each group's next run, from counting passes over the bag.

    The run peels ``side``, so the groups' masks of it are nested, the
    first group's the largest, and the walk pops the groups last first.
    Group j's next run peels the free side, the other one, and its degrees
    count the bag edges whose ``side`` end lies in group j's mask: the
    ends held by more than j groups. A counting pass counts each edge's
    free end under that number, its level, so each pop adds the counts of
    the levels it newly reaches to the degrees of the group popped before.
    One pass covers up to m / n levels, so its table stays within about
    m + n entries however many groups leave, and a run that sheds at most
    m / n groups needs one pass.
    """

    def __init__(self, bag, side, n):
        self.bag, self.side, self.n = bag, side, n
        self.masks = []  # each group's mask of ``side``, in the order they left
        self.held = None
        self.low = math.inf  # the lowest level ``table`` counts

    def add(self, mask) -> int:
        """Take the next group to leave, by its mask of ``side``; return its index."""
        self.masks.append(mask)
        return len(self.masks) - 1

    def degrees(self, j):
        """Group ``j``'s degrees on the free side; asked in the order the
        groups are popped."""
        if self.held is None:  # the first pop: how many groups hold each end
            self.held = np.zeros(self.n, dtype=np.int64)
            for mask in self.masks:
                self.held += mask
            self.deg, self.reached = np.zeros(self.n, dtype=np.int64), len(self.masks) + 1
        while self.reached > j + 1:
            self.reached -= 1
            if self.reached < self.low:
                self._count(self.reached)
            self.deg = self.deg + self.table[self.reached - self.low + 1]
        return self.deg

    def _count(self, top):
        """One counting pass for the levels from ``top`` down, as many as
        the bag has edges per vertex; ``table`` row 0 takes every other."""
        n = self.n
        self.low = max(1, top + 1 - max(1, self.bag[0].size // n))
        row = np.where((self.held >= self.low) & (self.held <= top), self.held - self.low + 1, 0)
        key = (row * n)[self.bag[self.side]]
        key += self.bag[1 - self.side]
        self.table = np.bincount(key, minlength=(top - self.low + 2) * n).reshape(-1, n)


def _exact_bag_peels(src, dst, n, cs, epsilon, s_mask, t_mask, *, degrees=None, offsets=None,
                     rescan=False):
    """Threshold peel steps from (S, T) for the ascending ratio guesses
    ``cs``: the one implementation of a peel step.

    A step depends on c only through the side the ratio test picks, and the
    test is monotone in c: at each pair the guesses split into a low range
    that peels S and a high range that peels T. Guesses that made the same
    choices are at the same pair, so the kernel walks the tree of pairs
    depth first, and each step names the range of guesses that take it
    (``step.guesses``). Every guess sees its own steps in order, and the
    walk holds only the bags of the pairs on its current path.

    The bag contract, which every caller keeps: the kernel peels the bag's
    edges that lie inside (S, T), and it copies none of them up front.
    Without ``degrees`` the bag is E(S, T), every edge inside the pair as
    ``_inside`` leaves it, and a run's degrees are one bincount of it. With
    ``degrees``, the bag's out- and in-degrees (``np.bincount`` of ``src``
    and ``dst`` at length n), the bag may hold any edges: a run from (S, T)
    takes its side's degrees from them, less a bincount of only the bag
    edges whose other end lies outside the pair's other side (none when
    that side is V). ``offsets``, given only with ``degrees`` and only
    where the bag's sources never decrease, are its by-source offsets: its
    edges from v lie at ``offsets[v]`` up to ``offsets[v + 1]``.

    Peels come in runs of the same side. The other side does not change
    during a run, so the degrees at its start stay exact for every
    surviving member, and each peel needs only a masked sum for the new
    cross count. Guesses whose ratio test flips leave the run as a group,
    which gets what its next run reads when popped, so a consumer that
    takes only the runs from (S, T) never pays for it. A run over E(S, T)
    hands its groups that bag, compacted by one pass on the side that
    shrank. A first-pair run whose other side is V, over the whole bag
    given with its degrees, hands its groups no bag: they get their
    degrees from counting passes over it (``_Leavers``). Every other group
    reads E(S, T) afresh: from S's rows (``_inside_rows``) where
    ``offsets`` are given and those rows hold fewer edges than the bag,
    else by ``_inside`` of the whole bag. Compactions keep their edges
    through ``_kept``, which gathers by index where a mask keeps under
    15/16 of the bag, as most compactions of a walk do. With ``rescan``
    nothing is kept between steps and the bag may hold any edges: each
    pair filters the whole bag through ``_inside`` and makes one tally per
    side it peels, as a pass-per-iteration stream would. No mask is
    written in place: a peel builds a new mask for its side and yields the
    other side's as it is, so steps may be kept.
    """
    counts = (int(np.count_nonzero(s_mask)), int(np.count_nonzero(t_mask)))
    bag = None if rescan else (src, dst)
    # (guesses, masks, counts, source, key): the source is bag ends, to be
    # compacted on side ``key`` unless key is None; the ``_Leavers`` whose
    # group ``key`` this is; or None, to read E(S, T) afresh
    todo = [(range(len(cs)), (s_mask, t_mask), counts, bag, None)]
    while todo:
        guesses, start_masks, start_counts, ends, key = todo.pop()
        if not (guesses and start_counts[0] and start_counts[1]):
            continue
        fed = None
        if isinstance(ends, _Leavers):
            fed, ends = ends.degrees(key), None
        elif ends is None:
            ends = _inside_rows(src, dst, offsets, *start_masks, src.size)
            if ends is None:
                ends = _inside(src, dst, *start_masks)
        elif key is not None:
            ends = _kept(start_masks[key][ends[key]], *ends)
        # only the first pair's runs, over the bag as given, read ``degrees``
        whole, degrees = degrees, None
        split = _first_target_peeler(cs, guesses, start_counts)
        # the T-peelers' run, then the S-peelers' run from the same bag; a
        # fed group has only the run its degrees are for, as every guess
        # of it left a run of the other side
        for side, guesses in ((1, range(split, guesses.stop)), (0, range(guesses.start, split))):
            if not guesses:
                continue
            masks, counts = list(start_masks), list(start_counts)
            if fed is not None:
                deg, leave = fed, None
            elif whole is None:
                deg, leave = np.bincount(ends[side], minlength=n), ends
            elif masks[1 - side].all():
                deg, leave = whole[side], _Leavers(ends, side, n)
            else:
                outside, = _kept(~masks[1 - side][ends[1 - side]], ends[side])
                deg, leave = whole[side] - np.bincount(outside, minlength=n), None
            if fed is None and whole is None:
                cross = int(ends[0].size)
            else:
                cross = int(deg[masks[side]].sum())
            while True:
                drop = _threshold_drop(deg, masks[side], cross, counts[side], epsilon)
                removed = int(np.count_nonzero(drop))
                masks[side] = masks[side] & ~drop
                counts[side] -= removed
                cross = int(deg[masks[side]].sum())
                yield _Step("ST"[side], removed, *masks, *counts, cross, guesses)
                if not (counts[0] and counts[1]):
                    break
                pair = tuple(masks), tuple(counts)
                if rescan:
                    todo.append((guesses, *pair, None, None))
                    break
                # peeling a side moves |S|/|T| towards the other side's guesses
                split = _first_target_peeler(cs, guesses, pair[1])
                if side:
                    left, guesses = range(guesses.start, split), range(split, guesses.stop)
                else:
                    left, guesses = range(split, guesses.stop), range(guesses.start, split)
                if left:
                    group = leave.add(masks[side]) if isinstance(leave, _Leavers) else side
                    todo.append((left, *pair, leave, group))
                if not guesses:
                    break


def _peel_best(steps, s_mask, t_mask, cross):
    """Consume one guess's peel ``steps`` from (S, T) and return its best
    exact-density pair: (best S mask, best T mask, best density).

    ``cross`` is the start pair's cross count, and the start pair is the
    first candidate; ties keep the earlier pair. The masks are the steps'
    own, not copies, since the kernel never writes one in place.
    """
    best = s_mask, t_mask
    top = _density(cross, int(np.count_nonzero(s_mask)), int(np.count_nonzero(t_mask)))
    for step in steps:
        rho = _density(step.cross, step.s_count, step.t_count)
        if rho > top:
            best, top = (step.s_mask, step.t_mask), rho
    return *best, top


class SharedPeel:
    """The exact peels of one edge bag for a sweep's ratio guesses: from
    each start pair a reader asks for, one ``_exact_bag_peels`` walk over
    all of the guesses, read lazily.

    ``steps`` hands out one guess's steps from a start pair (who reads
    them, and how far: the ``csweep`` module docstring), and ``inside``
    hands out E(S, T) from the bag's by-source rows. A walk advances only
    when a reader needs a step not walked yet, and keeps every step it
    yields for as long as the object lives. Every walk but a rescanning one
    reads the bag as the bag contract of ``_exact_bag_peels`` allows, with
    degrees counted once and the by-source offsets passed where the bag
    has them. (V, V) is one start pair like any other, keyed
    without reading its masks' bytes. Guesses that are not positive
    rationals are left out, so each of their cells still fails on its own;
    order and repeats do not matter. ``rescan`` walks as ``baseline_peel``
    peels, with one pass over the whole bag per pair.
    Threads may share the object: walks advance under one lock. A walk that
    raises keeps the exception, and every reader from its start pair that
    needs a step past the last one walked raises it too, so no peel ends
    short.
    """

    def __init__(self, src, dst, n, guesses, epsilon, *, rescan=False):
        self.n, self.m, self.epsilon = int(n), int(src.size), epsilon
        valid = set()
        for c in guesses:
            with contextlib.suppress(ValueError):
                valid.add(_ratio_guess(c))
        self.guesses = tuple(sorted(valid))
        self._bag = src, dst
        self._rescan = rescan
        self._degrees = None  # the bag's out- and in-degrees, once a walk needs them
        self._walks = {}  # start pair's mask bytes, or None for (V, V) -> _Walk
        self._lock = threading.Lock()

    def steps(self, c: Fraction, n: int, m: int, epsilon: float, start=None):
        """An iterator over the ``_Step``s of the peel with guess ``c`` from
        ``start``, an (S mask, T mask) pair or None for (V, V), of a bag
        of ``m`` edges on ``n`` vertices that holds every edge inside the
        pair; raises ValueError unless that is a peel this object walks."""
        if (n, m, epsilon) != (self.n, self.m, self.epsilon) or c not in self.guesses:
            raise ValueError(f"the shared peel does not cover c={c} with n={n}, m={m}, "
                             f"epsilon={epsilon!r}")
        root = start is None or (start[0].all() and start[1].all())
        key = None if root else (start[0].tobytes(), start[1].tobytes())
        with self._lock:
            walk = self._walks.get(key)
            if walk is None:
                if start is None:
                    start = (np.ones(self.n, dtype=bool),) * 2
                offsets = None if self._rescan else self._offsets
                if not self._rescan and self._degrees is None:
                    out = (np.bincount(self._bag[0], minlength=self.n) if offsets is None
                           else np.diff(offsets))
                    self._degrees = out, np.bincount(self._bag[1], minlength=self.n)
                walk = self._walks[key] = _Walk(_exact_bag_peels(
                    *self._bag, self.n, self.guesses, self.epsilon, *start,
                    degrees=self._degrees, offsets=offsets, rescan=self._rescan))
        return self._read(walk, self.guesses.index(c))

    def inside(self, n: int, m: int, s_mask, t_mask, limit: int):
        """E(S, T) of the bag, a bag of ``m`` edges on ``n`` vertices, as
        ``_inside`` leaves it, read from the by-source rows of S's members;
        None when the bag's sources decrease somewhere or those rows hold
        ``limit`` edges or more. Raises ValueError unless n and m are the
        bag's."""
        if (n, m) != (self.n, self.m):
            raise ValueError(f"the shared peel's bag is not one of n={n}, m={m}")
        with self._lock:
            offsets = self._offsets
        return _inside_rows(*self._bag, offsets, s_mask, t_mask, limit)

    @cached_property
    def _offsets(self):
        """The bag's by-source offsets, its edges from v at ``offsets[v]``
        up to ``offsets[v + 1]``, when its sources never decrease, else
        None; read under the lock, so checked once. A short head is checked
        first, so a shuffled bag is declined without a pass over it."""
        src = self._bag[0]
        for ends in (src[:_SORT_PROBE], src):
            if np.any(ends[1:] < ends[:-1]):
                return None
        return np.searchsorted(src, np.arange(self.n + 1))

    def _read(self, walk, i):
        """Guess ``i``'s steps: the walked ones, then the walk's as it advances."""
        walked, k = walk.walked, 0
        while True:
            with self._lock:
                if k == len(walked):
                    if walk.error is not None:
                        raise walk.error
                    try:
                        walked.append(next(walk.steps))
                    except StopIteration:
                        return
                    except BaseException as exc:
                        walk.error = exc
                        raise
                step = walked[k]
            k += 1
            if i in step.guesses:
                yield step


class _Walk:
    """One lazily advanced walk: its step generator, the steps it has
    yielded, and the exception it raised, if any."""

    def __init__(self, steps):
        self.steps, self.walked, self.error = steps, [], None


def baseline_peel(g: DirectedGraph, c, epsilon: float, *, shared: SharedPeel | None = None):
    """Full-information peel from (V, V) with ratio guess ``c`` and slack
    ``epsilon``; returns (best pair, its density, ledger): the peel
    iterations, and all m edges as the peak.

    Restricted degrees are recomputed from the whole edge set on every
    iteration, matching a pass-per-iteration streaming execution: nothing is
    cached or compacted between iterations. ``shared`` is a rescanning
    ``SharedPeel`` over g's edges that covers ``c``; None builds a
    one-guess one. The result and iteration count are the peel's own.
    """
    c = _ratio_guess(c)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    everyone = np.ones(g.n, dtype=bool)
    if g.n == 1:
        # single-vertex graph: only candidate is ({0}, {0}); edges are self-loops
        return VertexSetPair(everyone, everyone), float(g.m), RoundLedger(peak_edges=g.m)
    if shared is None:
        shared = SharedPeel(g.src, g.dst, g.n, (c,), epsilon, rescan=True)
    steps = list(shared.steps(c, g.n, g.m, epsilon))
    best_s, best_t, rho = _peel_best(steps, everyone, everyone, g.m)
    return VertexSetPair(best_s, best_t), rho, RoundLedger(rounds=len(steps), peak_edges=g.m)


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

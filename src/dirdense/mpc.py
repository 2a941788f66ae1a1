"""Round-accounted simulator of memory-bounded phased execution.

A coordinator machine runs the single-pass engine; the rest of the cluster
only stores the pool of still-relevant edges and serves machine-sized
uniform samples of it. The engine reads those samples through the same
``EdgeStream`` type the streaming runners use, fed in installments by the
phase controller. The cost model is one round per global primitive
(relevance filtering, uniform sampling, removal of a drawn batch, the exact
degree tally used by the near-linear mode, and the final fetch) and nothing
for coordinator-local work: round counts, not wall time, are the quantity
under study.

The pool starts as the graph's edges in one uniform order, every draw takes
the head of the pool, and relevance filters keep the survivors in order.
Nothing the engine has seen depends on the order of the edges not drawn
yet, so that order stays uniform through every filter, and each head is a
uniform sample in uniform order: within a run, the law of a fresh
permutation per draw, at no permutation's cost. A sweep orders the pool
once, with its "stream" seed, and every cell starts from that shared
read-only order, so across cells the order is shared, as the sweep's one
stream is for the streaming runners; a runner called on its own permutes
the edges itself. An mpc-super sweep whose cells all end their first step
at (V, V) in the exact peel skips the order: those cells keep every edge
before they peel, so the pool is g's own arrays. Consecutive head draws
are adjacent views, which the stream joins as views, so at (V, V) the
coordinator's bag is the pool itself, g's arrays included.
A filter of that whole shared order to a pair depends on nothing else, so
the sweep's ``SharedPool`` computes it once per pair for every cell whose
first draw phase starts there, and the sweep's ``SharedPeel`` likewise
walks the exact peel from each start pair once for every near-linear
flip-peel that starts there. Rounds stay charged per cell.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, density
from .peeling import RoundLedger, SharedPeel, _density, _inside, _ratio_prefers_sources
from .streaming import _EMPTY, EdgeStream, SampleParams, SinglePassEngine, _shuffled_edges

__all__ = [
    "MpcConfig",
    "PhaseRecord",
    "RelevantEdgeSet",
    "SharedPool",
    "mpc_nearlinear_run",
    "mpc_superlinear_run",
]

SUPERLINEAR_MU = 0.3  # memory exponent of the default superlinear config


@dataclass(frozen=True)
class MpcConfig:
    """Machine-memory regime.

    superlinear: per-machine word budget n**(1+mu), mu in (0, 1).
    nearlinear: budget n * polylog_budget, a positive number of words per
    vertex; the default budget is ln(n)^2 / epsilon^3.
    """

    regime: str
    mu: float | None = None
    polylog_budget: float | None = None

    def __post_init__(self):
        if self.regime not in ("superlinear", "nearlinear"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "superlinear" and (self.mu is None or not 0.0 < self.mu < 1.0):
            raise ValueError("superlinear regime needs mu in (0, 1)")
        if self.polylog_budget is not None and not 0 < self.polylog_budget < math.inf:
            raise ValueError("polylog_budget must be positive and finite")

    def machine_memory(self, n: int, epsilon: float) -> int:
        if self.regime == "superlinear":
            mem = int(n ** (1.0 + self.mu))
        else:
            budget = self.polylog_budget
            if budget is None:
                budget = math.log(max(n, 2)) ** 2 / epsilon**3 if epsilon**3 else math.inf
            mem = int(min(n * budget, 2.0**63))  # a larger budget already holds any pool
        return max(mem, n)


@dataclass
class PhaseRecord:
    edges_fetched: int
    e_rel_before: int
    e_rel_after: int
    s_size: int
    t_size: int
    local_finish: bool
    flip_peels: int = 0


class RelevantEdgeSet:
    """Edges still available to feed the coordinator; shrinks monotonically.

    The pool is held as ``src``/``dst`` arrays that start as a graph's edges
    in uniform order; they are never written, so pools may share them.
    ``intersect_pair`` keeps the survivors in their order and ``draw``
    removes the head. The engine has seen only drawn edges, so nothing it
    did, the filters included, depends on the order of the undrawn ones:
    that order stays uniform, and each head is a uniform k-subset in uniform
    order, as a fresh permutation per draw would give.
    """

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.shared = None  # the SharedPool whose arrays the set started as, if any

    @property
    def size(self) -> int:
        return int(self.src.size)

    def intersect_pair(self, s_mask, t_mask):
        """Keep the edges inside (S, T), in their current order. While the
        set still holds its ``shared`` pool's own arrays, nothing drawn or
        filtered yet, the filter is that pool's one filter to the pair."""
        if s_mask.all() and t_mask.all():
            return  # (V, V) keeps every edge, with no memo key of its masks built
        pool = self.shared
        if pool is not None and self.src is pool.src and self.dst is pool.dst:
            self.src, self.dst = pool.filtered(s_mask, t_mask)
        else:
            self.src, self.dst = _inside(self.src, self.dst, s_mask, t_mask)

    def draw(self, k):
        """Remove and return the head's k edges: uniformly chosen, in uniform
        order. Consecutive draws are adjacent views of the pool's arrays, so
        at (V, V) the coordinator's bag is the pool itself."""
        k = max(0, min(int(k), self.src.size))
        taken = self.src[:k], self.dst[:k]
        if k == self.src.size:
            # an empty view would keep the pool's arrays alive
            self.src = self.dst = _EMPTY
        else:
            self.src = self.src[k:]
            self.dst = self.dst[k:]
        return taken


class SharedPool:
    """A sweep's MPC pool: the graph's edges in one uniform order, as the
    read-only ``src``/``dst`` arrays every cell's ``RelevantEdgeSet``
    starts as, and the filters of that whole pool that the cells share.
    A sweep whose cells cannot observe the order (see ``csweep``) passes
    g's own arrays, in their given order.

    Cells whose first draw phase starts at the same pair filter the same
    whole pool to it, as near-linear cells leaving (V, V) alike do: the
    first computes ``filtered``, the others read its result. One filtered
    copy is kept per distinct pair, 16 bytes per edge inside the pair (up
    to about 16 MB at m = 10**6), until the pool is dropped, as a sweep
    does when it returns.
    It iterates as (src, dst), and threads may share it.
    """

    def __init__(self, src, dst):
        self.src, self.dst = src, dst
        self._filtered = {}  # pair's mask bytes -> (src, dst) inside it
        self._lock = threading.Lock()

    def __iter__(self):
        return iter((self.src, self.dst))

    def filtered(self, s_mask, t_mask):
        """The whole pool's edges inside (S, T), in pool order."""
        key = s_mask.tobytes(), t_mask.tobytes()
        with self._lock:
            if key not in self._filtered:
                self._filtered[key] = _inside(self.src, self.dst, s_mask, t_mask)
            return self._filtered[key]


class _PhaseController:
    """Owns the relevant-edge pool and the per-phase bookkeeping.

    It is the installment source of the engine's stream: ``size`` is the
    pool not fetched yet, and every ``fetch`` runs one phase. The ratio
    guess, epsilon, xi and a near-linear phase's draw size, one engine
    batch, are the engine's own; the regime is ``cfg``'s; ``pool`` is g's
    edges in uniform order, as (src, dst) or a sweep's ``SharedPool``.
    """

    def __init__(self, g, cfg, engine, pool, ledger):
        self.g = g
        self.nearlinear = cfg.regime == "nearlinear"
        self.engine = engine
        self.ledger = ledger
        self.rel = RelevantEdgeSet(*pool)
        if isinstance(pool, SharedPool):
            self.rel.shared = pool
        self.mem = cfg.machine_memory(g.n, engine.params.epsilon)

    @property
    def size(self) -> int:
        return self.rel.size

    def fetch(self):
        """Run one phase and return its draw, or None once the pool is empty.

        Once a side of the pair is empty, as a near-linear flip-peel may
        leave it, no pool edge can lie inside the pair: the phase ends, and
        the pool is released unfiltered with nothing charged past the flip
        tally.
        """
        if not self.rel.size:
            return None
        engine, ledger = self.engine, self.ledger
        flip_peels = 0
        if self.nearlinear and engine.s_count and engine.t_count:
            flip_peels = self._flip_peel()
        before = self.rel.size
        if not (engine.s_count and engine.t_count):
            self.rel = RelevantEdgeSet(_EMPTY, _EMPTY)
            ledger.log.append(PhaseRecord(0, before, 0, engine.s_count, engine.t_count, True,
                                          flip_peels))
            return None
        self.rel.intersect_pair(engine.s_mask, engine.t_mask)
        ledger.rounds += 1
        after = self.rel.size
        local_finish = after <= self.mem
        if local_finish:
            want = after  # the whole pool: nothing is left to fetch
            ledger.rounds += 1  # final fetch onto the coordinator
        else:
            want = self.mem
            if self.nearlinear:  # one engine batch, at most a machine-load
                want = min(engine.batch_size(engine.s_count, engine.t_count), want)
            ledger.rounds += 2  # sampling + removal
        drawn_src, drawn_dst = self.rel.draw(want)
        ledger.log.append(PhaseRecord(int(drawn_src.size), before, after, engine.s_count,
                                      engine.t_count, local_finish, flip_peels))
        return drawn_src, drawn_dst

    def _flip_peel(self) -> int:
        """Peel the over-ratio side with exact degrees until the ratio test flips.

        One charged tally supplies every degree needed: while only one side
        shrinks, the other side's cross-degrees stay valid, so the first run
        of the engine's exact peel of the graph's edges needs no new data.
        The run stops before the kernel would compact the bag for the other
        side. With the sweep's shared peel it reads only the first runs of
        the walk from the phase's start pair, which every cell that
        flip-peels from that pair reads; the tally is still charged to each.
        Each step's density is exact.
        """
        g, engine = self.g, self.engine
        self.ledger.rounds += 1
        peels = 0
        for step in engine.peels(g.src, g.dst, filtered=False):
            peels += 1
            if not (step.s_count and step.t_count):
                break
            engine.offer_best(step.s_mask, step.t_mask,
                              _density(step.cross, step.s_count, step.t_count), exact=True)
            if _ratio_prefers_sources(step.s_count, step.t_count, engine.c) != (step.side == "S"):
                break
        engine.set_pair(step.s_mask, step.t_mask)
        return peels


def _mpc_run(g, c, params, cfg, rng, pool, shared):
    if pool is not None and not all(edges.size == g.m for edges in pool):
        raise ValueError(f"pool must hold the graph's {g.m} edges")
    if rng is None:
        rng = np.random.default_rng(0)
    seeds = rng.integers(0, (1 << 63) - 1, size=2)
    engine_rng = np.random.default_rng(int(seeds[0]))
    if pool is None:
        pool = _shuffled_edges(g, int(seeds[1]))
    ledger = RoundLedger()
    batch_fn = None
    if cfg.regime == "nearlinear":
        # the batch size of the engine and the draw size of each phase
        xi = params.xi
        batch_fn = lambda s_count, t_count: (s_count + t_count) * xi  # noqa: E731
    engine = SinglePassEngine(g.n, c, params, engine_rng, batch_size_fn=batch_fn, shared=shared)
    controller = _PhaseController(g, cfg, engine, pool, ledger)
    engine.run(EdgeStream(g.n, _EMPTY, _EMPTY, source=controller))
    ledger.peak_edges = engine.peak_edges
    pair = engine.best_pair()
    return pair, engine.best_value if engine.best_exact else density(g, pair), ledger


def mpc_superlinear_run(g: DirectedGraph, c, params: SampleParams, cfg: MpcConfig | None = None,
                        *, rng=None, pool=None, shared: SharedPeel | None = None):
    """Phased run with machine memory n**(1+mu); returns (pair, density, ledger).

    Each phase refilters the relevant pool to the engine's current pair,
    draws a machine-load uniformly, and feeds it to the engine as the next
    stream installment; once the pool fits one machine it is fetched whole
    and the engine finishes locally. ``pool`` is g's edges as (src, dst)
    arrays in uniform order, or a sweep's ``SharedPool`` of them, which the
    run only reads; None permutes them here with a seed drawn from ``rng``.
    A run whose first step at (V, V) ends in the exact peel
    (``SinglePassEngine.order_blind``) returns the same for any order.
    Each draw takes the pool's head: the undrawn edges' order is
    independent of everything the engine has seen, so after the
    order-keeping filters the head is a uniform sample in uniform order,
    the law of a fresh permutation per draw; runs given one pool read the
    same order, as a sweep's cells read its one stream.
    The reported density is exact: the engine's own count when an exact
    peel gave its best, else a recount on the input graph.
    ``params`` holds the slack epsilon and the threshold xi; None for ``cfg``
    means mu = ``SUPERLINEAR_MU``.
    ``shared``, a ``SharedPeel`` over g's edges (in any order) with
    ``params.epsilon`` that covers ``c``, supplies the coordinator's
    finishing peel's steps when it starts from (V, V): then no sampled step
    happened, no filter removed an edge, and the bag holds every edge of
    g, so the steps are guess c's in the walk every such cell of a sweep
    reads. The pool is still drained in full and every round charged; the
    result and the ledger are the run's own.
    """
    cfg = cfg or MpcConfig("superlinear", mu=SUPERLINEAR_MU)
    if cfg.regime != "superlinear":
        raise ValueError("config regime must be 'superlinear'")
    return _mpc_run(g, c, params, cfg, rng, pool, shared)


def mpc_nearlinear_run(g: DirectedGraph, c, params: SampleParams, cfg: MpcConfig | None = None,
                       *, rng=None, pool=None, shared: SharedPeel | None = None):
    """Phased run with machine memory n * polylog_budget.

    On top of the superlinear phase body, each phase first tallies exact
    cross-degrees and peels the over-ratio side until the ratio test flips
    (no fresh data needed while only one side shrinks), and fetched samples
    scale with (|S| + |T|) * xi instead of the full machine budget. ``pool``
    is read as in ``mpc_superlinear_run``: a uniform order of g's edges,
    drawn from its head, or None to permute them here. A ``SharedPool``
    supplies the first draw phase's filter of the whole pool, which every
    cell of a sweep that starts that phase at the same pair shares.
    ``shared``, a ``SharedPeel`` as there, supplies every flip-peel
    instead: a flip-peel's steps are guess c's first run in the walk from
    its start pair over g's edges, in any order, and every cell of a sweep
    reads only that far into each walk. The finishing peel, which never
    starts from (V, V), runs on its own; every round is still charged.
    """
    cfg = cfg or MpcConfig("nearlinear")
    if cfg.regime != "nearlinear":
        raise ValueError("config regime must be 'nearlinear'")
    return _mpc_run(g, c, params, cfg, rng, pool, shared)

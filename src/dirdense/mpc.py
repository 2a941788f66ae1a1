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

The pool starts as g's edges in one uniform order, and every phase narrows
it to the edges inside the engine's current pair and draws its head.
Nothing the engine has seen depends on the order of the edges not drawn
yet, so that order stays uniform through every narrowing, and each head is
a uniform sample in uniform order: within a run, the law of a fresh
permutation per draw, at no permutation's cost. A pair only shrinks, so
after any run of narrowings and draws the pool is exactly the edges after
a cursor in that order that lie inside the current pair: a
``RelevantEdgeSet`` is that cursor, the pair and the pool's size, and
copies no edge. Its count after a near-linear flip-peel reads only the
cursor's prefix: the flip-peel's last step counts |E_g(S, T)|, and as the
order is a permutation of g's edges, the pool holds that many less the
prefix's edges inside the pair. A sweep orders the pool once, with its
"stream" seed, and every cell reads that shared read-only order, or g's
own arrays where the order-blind skip holds (see the ``streaming`` module
docstring); a runner called on its own permutes the edges itself. Head
draws at (V, V) are adjacent views, which the stream joins as views, so
there the coordinator's bag is the pool itself. Every exact peel of g's
edges reads the run's ``SharedPeel`` (who reads it, and how far: the
``csweep`` module docstring); rounds stay charged per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, _count_inside, density
from .peeling import RoundLedger, SharedPeel, _density, _ratio_prefers_sources
from .streaming import _EMPTY, EdgeStream, SampleParams, SinglePassEngine, _shuffled_edges

__all__ = [
    "MpcConfig",
    "PhaseRecord",
    "RelevantEdgeSet",
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
    """A run's pool (see the module docstring): a replay of the pool order,
    read only, with the current pair and ``size``, the edges after the
    replay's cursor that lie inside the pair."""

    def __init__(self, src, dst):
        self._src, self._dst = src, dst
        self._edges = EdgeStream(0, src, dst)  # no runner reads it, so no vertex count
        self._pair = None  # (S mask, T mask), None at (V, V)
        self.size = int(src.size)

    def intersect_pair(self, s_mask, t_mask, cross=None):
        """Narrow the pool to (S, T), inside the current pair, and count it:
        ``cross``, |E_g(S, T)| when known, less the read prefix's edges
        inside the pair, else the unread rest's."""
        if s_mask.all() and t_mask.all():
            return  # (V, V) keeps every edge
        if self._pair is not None and self._pair[0] is s_mask and self._pair[1] is t_mask:
            return  # the same pair: masks are never written, so the count stands
        self._pair = s_mask, t_mask
        read = self._edges.edges_read  # the replay is never reset: its prefix
        if cross is None:
            self.size = _count_inside(self._src[read:], self._dst[read:], s_mask, t_mask)
        else:
            self.size = cross - _count_inside(self._src[:read], self._dst[:read], s_mask, t_mask)

    def draw(self, k):
        """Remove and return the pool's head of k edges; at (V, V) they are
        views of the order, adjacent to the previous draw's."""
        k = max(0, min(int(k), self.size))
        if self._pair is None:
            src, dst = self._edges.take(k)
        else:
            src, dst, _ = self._edges.take_qualifying(k, *self._pair)
        self.size -= k
        return src, dst


class _PhaseController:
    """Owns the relevant-edge pool and the per-phase bookkeeping.

    It is the installment source of the engine's stream: ``size`` is the
    pool not fetched yet, and every ``fetch`` runs one phase. The ratio
    guess, epsilon, xi and a near-linear phase's draw size, one engine
    batch, are the engine's own; the regime is ``cfg``'s; ``pool`` is g's
    edges in uniform order, as (src, dst).
    """

    def __init__(self, g, cfg, engine, pool, ledger):
        self.g = g
        self.nearlinear = cfg.regime == "nearlinear"
        self.engine = engine
        self.ledger = ledger
        self.rel = RelevantEdgeSet(*pool)
        self.mem = cfg.machine_memory(g.n, engine.params.epsilon)

    @property
    def size(self) -> int:
        return self.rel.size

    def fetch(self):
        """Run one phase and return its draw, or None once the pool is empty.

        Once a side of the pair is empty, as a near-linear flip-peel may
        leave it, no pool edge can lie inside the pair: the phase ends, and
        the pool is emptied uncounted with nothing charged past the flip
        tally.
        """
        if not self.rel.size:
            return None
        engine, ledger = self.engine, self.ledger
        flip_peels, cross = 0, None
        if self.nearlinear and engine.s_count and engine.t_count:
            flip_peels, cross = self._flip_peel()
        before = self.rel.size
        if not (engine.s_count and engine.t_count):
            self.rel.size = 0
            ledger.log.append(PhaseRecord(0, before, 0, engine.s_count, engine.t_count, True,
                                          flip_peels))
            return None
        self.rel.intersect_pair(engine.s_mask, engine.t_mask, cross)
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

    def _flip_peel(self):
        """Peel the over-ratio side with exact degrees until the ratio test
        flips; returns the peels and the last step's cross count.

        One charged tally supplies every degree needed: while only one side
        shrinks, the other side's cross-degrees stay valid, so the first run
        of guess c's exact peel of g's edges from the pair, read from the
        engine's ``shared`` walk, needs no new data; its densities are exact.
        """
        g, engine = self.g, self.engine
        self.ledger.rounds += 1
        steps = engine.shared.steps(engine.c, g.n, g.m, engine.params.epsilon,
                                    (engine.s_mask, engine.t_mask))
        for peels, step in enumerate(steps, 1):
            if not (step.s_count and step.t_count):
                break
            engine.offer_best(step.s_mask, step.t_mask,
                              _density(step.cross, step.s_count, step.t_count), exact=True)
            if _ratio_prefers_sources(step.s_count, step.t_count, engine.c) != (step.side == "S"):
                break
        engine.set_pair(step.s_mask, step.t_mask)
        return peels, step.cross


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
    # the engine cannot build the peel over a source-fed stream
    shared = shared or SharedPeel(g.src, g.dst, g.n, (c,), params.epsilon)
    engine = SinglePassEngine(g.n, c, params, engine_rng, batch_size_fn=batch_fn, shared=shared)
    controller = _PhaseController(g, cfg, engine, pool, ledger)
    engine.run(EdgeStream(g.n, _EMPTY, _EMPTY, source=controller))
    ledger.peak_edges = engine.peak_edges
    pair = engine.best_pair()
    return pair, engine.best_value if engine.best_exact else density(g, pair), ledger


def mpc_superlinear_run(g: DirectedGraph, c, params: SampleParams, cfg: MpcConfig | None = None,
                        *, rng=None, pool=None, shared: SharedPeel | None = None):
    """Phased run with machine memory n**(1+mu); returns (pair, density, ledger).

    Each phase narrows the relevant pool to the engine's current pair,
    draws a machine-load uniformly, and feeds it to the engine as the next
    stream installment; once the pool fits one machine it is fetched whole
    and the engine finishes locally. ``pool`` is g's edges as (src, dst)
    arrays in uniform order (see the module docstring); None permutes them
    here with a seed drawn from ``rng``. The reported density is exact: the
    engine's own count when an exact peel gave its best, else a recount on
    g. None for ``cfg`` means mu = ``SUPERLINEAR_MU``. ``shared`` is a
    ``SharedPeel`` over g's edges, in any order, with ``params.epsilon``,
    that covers ``c``; None builds a one-guess one. Every round is still
    charged; the result and the ledger are the run's own.
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
    and ``shared`` are read as in ``mpc_superlinear_run``, and each
    flip-peel's count makes the pool's.
    """
    cfg = cfg or MpcConfig("nearlinear")
    if cfg.regime != "nearlinear":
        raise ValueError("config regime must be 'nearlinear'")
    return _mpc_run(g, c, params, cfg, rng, pool, shared)

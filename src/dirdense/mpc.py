"""Round-accounted simulator of memory-bounded phased execution.

A coordinator machine runs the single-pass engine; the rest of the cluster
only stores the pool of still-relevant edges and serves machine-sized
uniform samples of it, which the engine reads as installments of a
source-fed ``EdgeStream``. One round is charged per global primitive
(relevance filtering, uniform sampling, removal of a drawn batch, the
near-linear mode's exact degree tally, and the final fetch) and nothing for
coordinator-local work: round counts, not wall time, are under study.

The uniform-order argument. The pool starts as g's edges in one uniform
order, and each phase narrows it to the edges inside the engine's pair and
draws its head. Nothing the engine has seen depends on the order of the
edges not drawn yet, so each head is a uniform sample in uniform order: the
law of a fresh permutation per draw. The order is placed lazily, in two
stages: a head, a uniform ordered sample of g's edges without replacement,
then a uniform permutation of the other edges. Together they are a uniform
permutation, so however far the order is placed it is a prefix of one
(``_PoolOrder``). A pair only shrinks, so the pool is the edges after a
cursor in that order that lie inside the pair, as many as |E_g(S, T)|, a
flip-peel's last count or a count of g's edges, less the read prefix's
edges inside the pair. A sweep's cells share one order, or g's own arrays
where the order-blind skip holds (see the ``streaming`` module docstring);
a runner called on its own orders g's edges itself. Draws at (V, V) are
adjacent views of the order, which the stream joins as views. Every exact
peel of g's edges reads the run's ``SharedPeel`` (see the ``csweep`` module
docstring); rounds stay charged per cell.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, _count_inside, density
from .peeling import RoundLedger, SharedPeel, _density, _ratio_prefers_sources
from .streaming import _EMPTY, EdgeStream, SampleParams, SinglePassEngine

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
    vertex; the default budget is ln(n)^2 / epsilon^3. Each regime takes
    only its own knob.
    """

    regime: str
    mu: float | None = None
    polylog_budget: float | None = None

    def __post_init__(self):
        if self.regime not in ("superlinear", "nearlinear"):
            raise ValueError(f"unknown regime {self.regime!r}")
        superlinear = self.regime == "superlinear"
        if superlinear and (self.mu is None or not 0.0 < self.mu < 1.0):
            raise ValueError("superlinear regime needs mu in (0, 1)")
        ignored = "polylog_budget" if superlinear else "mu"
        if getattr(self, ignored) is not None:
            raise ValueError(f"a {self.regime} config takes no {ignored}")
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


# an order's first extension places its head: this many slots, a uniform
# ordered sample of g's edges drawn in O(head) time whatever m is
_FIRST_CHUNK = 1 << 14
# a head past this share of m is not drawn: the first extension then
# shuffles every edge, as ``_shuffled_edges`` orders them
_SHUFFLE_SHARE = 1 / 16


class _PoolOrder:
    """g's edges, ``src`` and ``dst``, in one order that pools read: with
    no ``seed`` the given one, every slot placed, else a uniform one drawn
    from ``seed`` and placed as readers need it (see the module docstring).

    ``src`` and ``dst`` are then m-slot buffers, of which the first
    ``placed`` are placed, in at most two extensions under the lock: the
    head, ``_FIRST_CHUNK`` draws without replacement, then the rest, one
    shuffle of the edges not in the head, in index order. Where the head
    would pass ``_SHUFFLE_SHARE`` of m, the first extension shuffles all m
    edges instead. Each extension depends only on m and the seed, so the
    order is the seed's whatever reads it, and in whatever order. A slot is
    written once, before ``placed`` covers it.
    """

    def __init__(self, src, dst, seed=None):
        self.m = int(src.size)
        self.edges = src, dst
        if seed is None:
            self.src, self.dst, self.placed = src, dst, self.m
            return
        self.src, self.dst = np.empty_like(src), np.empty_like(dst)
        self.placed = 0
        self._head = np.empty(0, dtype=np.intp)  # which of g's edges the head placed
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def after(self, lo):
        """Read-only views of the placed slots from ``lo`` on, for ``lo`` < m;
        if none is placed there, one extension places some first."""
        if lo >= self.placed:
            with self._lock:
                if lo >= self.placed:
                    self._extend()
        hi = self.placed
        views = self.src[lo:hi], self.dst[lo:hi]
        for view in views:
            view.flags.writeable = False
        return views

    def _extend(self):
        lo, m = self.placed, self.m
        if not lo and _FIRST_CHUNK <= m * _SHUFFLE_SHARE:
            picked = self._head = self._rng.choice(m, _FIRST_CHUNK, replace=False)
        else:
            picked = np.delete(np.arange(m), self._head)
            self._rng.shuffle(picked)
        hi = lo + picked.size
        for edges, slots in zip(self.edges, (self.src, self.dst)):
            np.take(edges, picked, out=slots[lo:hi], mode="clip")  # in range: unbuffered
        self.placed = hi


class _OrderReader:
    """One pool's installment source over its order (see ``EdgeStream``):
    each fetch hands out the placed slots after those already handed."""

    __slots__ = ("order", "handed")

    def __init__(self, order):
        self.order, self.handed = order, 0

    @property
    def size(self) -> int:
        return self.order.m - self.handed

    def fetch(self):
        if self.handed == self.order.m:
            return None
        installment = self.order.after(self.handed)
        self.handed += installment[0].size
        return installment


class RelevantEdgeSet:
    """A run's pool (see the module docstring): a cursor over ``order``, a
    ``_PoolOrder`` of g's edges, read only, with the current pair and
    ``size``, the edges after the cursor that lie inside the pair."""

    def __init__(self, order):
        self._order = order
        # a source-fed stream is never reset, so it has read exactly its prefix;
        # no runner reads it, so it needs no vertex count
        self._edges = EdgeStream(0, _EMPTY, _EMPTY, source=_OrderReader(order))
        self._pair = None  # (S mask, T mask), None at (V, V)
        self.size = order.m

    def intersect_pair(self, s_mask, t_mask, cross=None):
        """Narrow the pool to (S, T), inside the current pair, and count it:
        |E_g(S, T)|, ``cross`` when known, less the read prefix's edges
        inside the pair."""
        if s_mask.all() and t_mask.all():
            return  # (V, V) keeps every edge
        if self._pair is not None and self._pair[0] is s_mask and self._pair[1] is t_mask:
            return  # the same pair: masks are never written, so the count stands
        self._pair = s_mask, t_mask
        order, read = self._order, self._edges.edges_read
        if cross is None:
            cross = _count_inside(*order.edges, s_mask, t_mask)
        self.size = cross - _count_inside(order.src[:read], order.dst[:read], s_mask, t_mask)

    def draw(self, k):
        """Remove and return the pool's head of k edges; at (V, V) they are
        views of the order, adjacent to the previous draw's."""
        k = max(0, min(int(k), self.size))
        if self._pair is None:
            src, dst = self._edges.take(k)
        else:
            src, dst = self._edges.take_qualifying(k, *self._pair)
        self.size -= k
        return src, dst


class _PhaseController:
    """Owns the relevant-edge pool and the per-phase bookkeeping.

    It is the installment source of the engine's stream: ``size`` is the
    pool not fetched yet, and every ``fetch`` runs one phase, where
    ``EdgeStream._unread`` says a read starts one. The ratio guess,
    epsilon, xi and a near-linear phase's draw size, one engine batch, are
    the engine's own; the regime is ``cfg``'s; ``order`` is a
    ``_PoolOrder`` of g's edges.
    """

    def __init__(self, g, cfg, engine, order, ledger):
        self.g = g
        self.nearlinear = cfg.regime == "nearlinear"
        self.engine = engine
        self.ledger = ledger
        self.rel = RelevantEdgeSet(order)
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
    if pool is not None and not isinstance(pool, _PoolOrder):
        if not all(edges.size == g.m for edges in pool):
            raise ValueError(f"pool must hold the graph's {g.m} edges")
        pool = _PoolOrder(*pool)
    if rng is None:
        rng = np.random.default_rng(0)
    seeds = rng.integers(0, (1 << 63) - 1, size=2)
    engine_rng = np.random.default_rng(int(seeds[0]))
    if pool is None:
        pool = _PoolOrder(g.src, g.dst, int(seeds[1]))
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
    and the engine finishes locally. ``pool`` is g's edges in uniform order
    (see the module docstring): (src, dst) arrays, or a sweep's shared
    ``_PoolOrder``; None orders them here, lazily, with a seed drawn from
    ``rng``. The reported density is exact: the engine's own count when an
    exact peel gave its best, else a recount on g. None for ``cfg`` means
    mu = ``SUPERLINEAR_MU``. ``shared`` is a
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

"""Edge streams plus the sampled peeling runners.

Every runner reads one stream type, ``EdgeStream``. A static stream holds
the graph's edges in input or shuffled order; a source-fed one appends
installments as reads run short, which is how the phased MPC simulator hands
the single-pass engine its machine-sized samples. The multi-pass runner
resets and rescans a static stream once per sampling step and once per
exact recount. The single-pass engine reads every edge at most once and
keeps only a bounded working set: the retained cross edges of the current
pair, thinned samples of them, and one batch in flight.

The finish invariant. When the stream dries up, or the rest of it fits the
sample budget, the engine reads the rest and peels E(S, T) exactly from
its current pair. The stream hands out a graph's m edges in some order,
less only edges outside the pair (an MPC pool skips such edges), and every
edge read so far inside the pair is in ``seen``. So ``seen`` and the
rest's edges inside the pair hold E(S, T) as a multiset, and a peel
depends on its bag only through that multiset: at (V, V) the steps are
guess c's in the run's ``SharedPeel`` walk, and elsewhere the bag may be
read from the rows of S (``SharedPeel.inside``).

The order-blind skip. At (V, V) every edge read is a cross edge, so n, m,
xi, epsilon and the batch size alone decide whether a run's first step
ends in the exact finishing peel (``SinglePassEngine.order_blind``). Then
every edge is kept before the peel, nothing the run returns depends on
the order, and a sweep of such cells reads g's edges as given.

Nothing here writes a vertex mask in place, or an edge array once it is
handed out: streams hand out views of their buffers, the retained set and
every sample are new arrays or such views, and each peel builds new masks;
an MPC pool order writes each slot of its buffers once, before any reader
is handed it. So an array, once handed out, may be kept or shared without
a copy. Joining two views that lie end to end in one buffer, as an
installment after the unread edges or new edges after the retained ones
may, gives a view of that buffer again.

Each sampled step of the engine runs the three public estimators, the same
functions the tests check: ``estimate_cross_edges`` scales a batch's cross
count up to the unseen population, ``set_sample`` draws the rate-p sample
from the retained buffer and the stream, and ``sampled_density_estimate``
scores a pair from its sampled cross count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import VertexSetPair, _count_inside, _inside_mask
from .peeling import (RoundLedger, SharedPeel, _exact_bag_peels, _inside, _kept, _peel_best,
                      _ratio_guess)

__all__ = [
    "EdgeStream",
    "SampleParams",
    "SeenSet",
    "SinglePassEngine",
    "estimate_cross_edges",
    "make_stream",
    "multi_pass_run",
    "sample_params",
    "sampled_density_estimate",
    "set_sample",
    "single_pass_run",
]

STREAM_ORDERS = ("given", "shuffled")

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)

# the fewest edges ``take_qualifying`` tests per read, unless fewer are left
_QUALIFYING_BLOCK = 65536


@dataclass(frozen=True)
class SampleParams:
    """Sampling knobs: slack epsilon and per-vertex degree threshold xi."""

    epsilon: float
    xi: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.xi < 1:
            raise ValueError("xi must be at least 1")


def sample_params(n: int, epsilon: float, f: float = 1.0) -> SampleParams:
    """Build params with xi = ceil(f * 60 * ln(n) / epsilon^2), at least 1.

    f = 1 gives the analysis threshold xi = 60 ln(n) / epsilon^2; experiments
    shrink it by orders of magnitude to trade accuracy for speed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < epsilon < 1.0 and 0.0 < f < math.inf):
        raise ValueError(f"need epsilon in (0, 1) and a finite f > 0, got {epsilon!r} and {f!r}")
    xi = f * 60.0 * math.log(n) / epsilon**2 if epsilon**2 else math.inf
    if not math.isfinite(xi):
        raise ValueError(f"xi = f * 60 ln(n) / epsilon^2 is not finite (f={f!r}, epsilon={epsilon!r})")
    return SampleParams(epsilon=epsilon, xi=max(1, math.ceil(xi)))


class EdgeStream:
    """Edge sequence with a consumption cursor, optionally fed in installments.

    A static stream holds all of its edges from the start. A source-fed
    stream starts from the given buffer and appends installments from
    ``source`` whenever a read runs short (see ``_unread``): the source has
    ``size``, the edges it has not handed out yet, and ``fetch()``, which
    returns the next ``(src, dst)`` installment or None when it has none.

    A stream is single-consumer. ``reset`` restarts a pass for multi-pass
    use; single-pass consumers never call it, which the ``resets`` and
    ``edges_read`` counters let tests assert. ``replay`` hands out another
    stream over the same edge order, so consumers of one order share its
    arrays instead of each building them. Only static streams can be reset
    or replayed: fetched installments are gone from their source.
    """

    __slots__ = ("n", "order", "_src", "_dst", "_cursor", "_source", "edges_read", "resets")

    def __init__(self, n, src, dst, order="given", source=None):
        self.n = int(n)
        self._src = src
        self._dst = dst
        self._cursor = 0
        self._source = source
        self.edges_read = 0
        self.resets = 0
        self.order = order

    @property
    def m(self) -> int:
        """Edges in the buffer: every edge of a static stream."""
        return int(self._src.size)

    @property
    def remaining(self) -> int:
        unfetched = self._source.size if self._source is not None else 0
        return int(self._src.size - self._cursor) + unfetched

    def replay(self) -> "EdgeStream":
        """A fresh stream over the same arrays: own cursor, zeroed counters."""
        if self._source is not None:
            raise ValueError("cannot replay a source-fed stream")
        return EdgeStream(self.n, self._src, self._dst, order=self.order)

    def reset(self):
        """Restart a pass (multi-pass consumers only)."""
        if self._source is not None:
            raise ValueError("cannot reset a source-fed stream")
        self.resets += 1
        self._cursor = 0

    def _unread(self, k) -> int:
        """Fetch installments while fewer than ``k`` edges are unread, and
        return how many are. Reads fetch only here, so a read starts an MPC
        phase only where it runs short: ``take(k)`` with fewer than k
        unread, ``take_qualifying`` wanting more with none unread (so also
        inside a sampled step's fresh draw, in ``set_sample``), and
        ``take_all``, which fetches until the source returns None."""
        while self._src.size - self._cursor < k:
            installment = self._source.fetch() if self._source is not None else None
            if installment is None:
                break
            lo = self._cursor
            self._src = _joined(self._src[lo:], installment[0])
            self._dst = _joined(self._dst[lo:], installment[1])
            self._cursor = 0
        return int(self._src.size - self._cursor)

    def _consume(self, k):
        """Consume the next ``k`` unread edges and return them as views."""
        lo = self._cursor
        self._cursor = hi = lo + k
        self.edges_read += k
        return self._src[lo:hi], self._dst[lo:hi]

    def take(self, k):
        """Consume and return the next k edges (fewer if the stream ends)."""
        k = max(0, int(k))
        return self._consume(min(k, self._unread(k)))

    def take_all(self):
        return self._consume(self._unread(math.inf))

    def take_qualifying(self, want, s_mask, t_mask):
        """Consume and return, as (src, dst), the next `want` edges inside
        (S, T), fewer if the stream ends first.

        Edges read along the way that fall outside the pair are consumed and
        dropped. At (V, V) every edge qualifies, so this is ``take(want)``.
        """
        want = int(want)
        if want <= 0:
            return _EMPTY, _EMPTY
        if s_mask.all() and t_mask.all():
            return self.take(want)
        out_src, out_dst = [], []
        got = 0
        while got < want and (left := self._unread(1)):
            view = min(max(_QUALIFYING_BLOCK, 4 * (want - got)), left)
            lo = self._cursor
            vs, vd = self._src[lo : lo + view], self._dst[lo : lo + view]
            hits = np.flatnonzero(_inside_mask(vs, vd, s_mask, t_mask))
            if got + hits.size >= want:  # through the last edge it takes
                hits = hits[: want - got]
                view = int(hits[-1]) + 1
            out_src.append(vs[hits])
            out_dst.append(vd[hits])
            got += int(hits.size)
            self._consume(view)
        src = np.concatenate(out_src) if out_src else _EMPTY
        dst = np.concatenate(out_dst) if out_dst else _EMPTY
        return src, dst


def make_stream(g, order: str = "shuffled", seed: int = 0) -> EdgeStream:
    """Stream over g's edges: "given" keeps input order, "shuffled" applies a
    seed-deterministic uniform permutation, by a packed in-place shuffle that
    raises ValueError for n > 2**31 (see ``_shuffled_edges``).

    The stream's arrays are read-only (the graph's own ones for "given"), so
    streams made from it by ``replay`` may be consumed from several threads.
    """
    if order == "given":
        return EdgeStream(g.n, g.src, g.dst, order="given")
    if order == "shuffled":
        return EdgeStream(g.n, *_shuffled_edges(g, seed), order="shuffled")
    raise ValueError(f"unknown stream order {order!r}")


def _shuffled_edges(g, seed: int):
    """g's edges in the seed's uniform order, as read-only (src, dst) arrays:
    the order of ``make_stream(g, "shuffled", seed)``.

    Each edge is packed into one int64, ``src << 32 | dst``, and shuffled in
    place. ``Generator.permutation(m)`` is ``shuffle(arange(m))`` and the
    shuffle's draws depend on neither the values nor their size, so every
    edge lands where ``permutation(m)`` puts it, with no index array or
    gather: the peak is two m-long int64 arrays. Packing needs ids below
    2**31, so n > 2**31 raises ValueError.
    """
    if g.n > 2**31:
        raise ValueError(f"a shuffled order needs at most 2**31 vertices, got n={g.n}")
    edges = g.src << 32
    edges |= g.dst
    np.random.default_rng(seed).shuffle(edges)
    dst = edges & 0xFFFFFFFF
    edges >>= 32
    edges.setflags(write=False)
    dst.setflags(write=False)
    return edges, dst


def _joined(a, b):
    """``a`` then ``b``: a view of the contiguous buffer they are both flat
    slices of, of any shape, when ``b`` starts where ``a`` ends in it, else
    a new array; read-only if either is."""
    if not (a.size and b.size):
        return b if b.size else a
    base, start = a.base, a.__array_interface__["data"][0]
    if (isinstance(base, np.ndarray) and base is b.base and base.flags.c_contiguous
            and base.dtype == a.dtype == b.dtype and a.strides == b.strides == (a.itemsize,)
            and b.__array_interface__["data"][0] == start + a.nbytes):
        lo = (start - base.__array_interface__["data"][0]) // a.itemsize
        out = base.reshape(-1)[lo : lo + a.size + b.size]
    else:
        out = np.concatenate([a, b])
    if not (a.flags.writeable and b.flags.writeable):
        out.flags.writeable = False
    return out


class SeenSet:
    """Retained cross-edges for the current pair, with a high-water mark.

    Holds two arrays it never writes: ``add`` joins the new edges after the
    retained ones, and ``refilter`` keeps the survivors in new arrays. Edges
    added right where the retained ones end in the same buffer extend the
    view instead of being copied. ``peak_size`` additionally counts batches
    noted as in flight via ``note_extra``, so it reflects the most edges
    simultaneously held.
    """

    __slots__ = ("_src", "_dst", "peak_size")

    def __init__(self):
        self._src = self._dst = _EMPTY
        self.peak_size = 0

    @property
    def size(self) -> int:
        return int(self._src.size)

    def add(self, src, dst):
        self._src, self._dst = _joined(self._src, src), _joined(self._dst, dst)
        self.peak_size = max(self.peak_size, self.size)

    def note_extra(self, k):
        self.peak_size = max(self.peak_size, self.size + int(k))

    def refilter(self, s_mask, t_mask):
        """Drop retained edges outside the (shrunken) current pair."""
        self._src, self._dst = _inside(self._src, self._dst, s_mask, t_mask)

    def arrays(self):
        return self._src, self._dst


def set_sample(seen: SeenSet, s_mask, t_mask, p: float, size_estimate: int, stream, rng):
    """Sample the current cross-edge population of (S, T) without a second pass.

    Already-retained edges are thinned independently at rate p; a binomially
    sized count of fresh qualifying edges is then pulled off the stream
    (skipping and discarding non-qualifying ones), fewer if the stream
    ends first. Returns (src, dst, fresh): the sampled batch and the fresh
    edges as (src, dst).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    size_estimate = int(size_estimate)
    if size_estimate < seen.size:
        raise ValueError("size estimate below retained edge count; clamp before sampling")
    kept_src, kept_dst = seen.arrays()
    if p < 1.0:
        kept_src, kept_dst = _kept(rng.random(seen.size) < p, kept_src, kept_dst)
    extra = size_estimate - seen.size
    draws = int(rng.binomial(extra, p)) if extra > 0 else 0
    fresh_src, fresh_dst = stream.take_qualifying(draws, s_mask, t_mask)
    src = np.concatenate([kept_src, fresh_src])
    dst = np.concatenate([kept_dst, fresh_dst])
    return src, dst, (fresh_src, fresh_dst)


def estimate_cross_edges(batch_size: int, batch_matching: int, stream_remaining: int,
                         n_xi: int, seen_size: int, epsilon: float) -> int:
    """Scale a batch's qualifying fraction up to the unseen population.

    ``batch_matching`` of the batch's ``batch_size`` edges lie inside the
    pair. Floored, then clamped so the estimate never drops below the
    evidence already in hand (retained edges plus the batch's qualifying
    edges).
    """
    if batch_size < 1:
        raise ValueError("estimate needs a nonempty batch")
    raw = (1.0 - epsilon) * (batch_matching / batch_size) * (stream_remaining + n_xi) + seen_size
    return max(int(math.floor(raw)), seen_size + batch_matching)


def sampled_density_estimate(cross: int, p: float, s_count: int, t_count: int) -> float:
    """Density of a pair with ``cross`` edges in a rate-p sample, scaled back
    by 1/p; 0 when a side is empty."""
    if p <= 0:
        raise ValueError("p must be positive")
    if not s_count or not t_count:
        return 0.0
    return cross / (p * math.sqrt(s_count * t_count))


def multi_pass_run(stream: EdgeStream, n: int, c, params: SampleParams, *, rng=None):
    """Sampled peeling with one sampling pass and one exact recount pass per step.

    Each step samples the current cross-edges independently at
    p = min(n*xi / ((1-eps) |E(S,T)|), 1), peels once on the sample, then
    recounts the surviving pair exactly. Returns (best pair, best exact
    density, ledger): the passes, and the largest sample as the peak.
    """
    if n != stream.n:
        raise ValueError(f"vertex count n={n} does not match the stream's n={stream.n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    c = _ratio_guess(c)
    eps = params.epsilon
    n_xi = n * params.xi
    s_mask = t_mask = np.ones(n, dtype=bool)  # the kernel never writes a mask in place
    s_count = t_count = n

    def recount(sm, tm):
        stream.reset()
        return _count_inside(*stream.take_all(), sm, tm)

    cross = recount(s_mask, t_mask)
    passes = 1
    best_s, best_t = s_mask, t_mask
    best_rho = cross / n
    peak = 0
    while s_count and t_count:
        p = min(n_xi / ((1.0 - eps) * cross), 1.0) if cross else 1.0
        stream.reset()
        es, ed = stream.take_all()
        passes += 1
        sample_src, sample_dst = _inside(es, ed, s_mask, t_mask)
        if p < 1.0:
            sample_src, sample_dst = _kept(rng.random(sample_src.size) < p, sample_src, sample_dst)
        peak = max(peak, int(sample_src.size))
        # the sample lies inside (S, T), so the kernel's first step is the peel
        step = next(_exact_bag_peels(sample_src, sample_dst, n, (c,), eps, s_mask, t_mask))
        s_mask, t_mask, s_count, t_count = step.s_mask, step.t_mask, step.s_count, step.t_count
        if not (s_count and t_count):
            break
        cross = recount(s_mask, t_mask)
        passes += 1
        rho = cross / math.sqrt(s_count * t_count)
        if rho > best_rho:
            best_s, best_t = s_mask, t_mask
            best_rho = rho
    return VertexSetPair(best_s, best_t), best_rho, RoundLedger(rounds=passes, peak_edges=peak)


class SinglePassEngine:
    """Incremental single-pass peeler over an injected stream.

    The stream may be source-fed (the phased simulator's machine-sized
    loads); ``run`` peels on samples while the cross edges outnumber the
    sample budget, then finishes with an exact peel (see the module
    docstring). ``best_exact`` says whether ``best_value`` is an exact
    density, as the finishing peel's and a flip-peel's are, or a sampled
    estimate. ``shared`` is the ``SharedPeel`` over the graph's edges that
    every exact peel of the whole graph reads; ``run`` builds a one-guess
    one over a static stream's unread edges when there is none.
    """

    def __init__(self, n, c, params: SampleParams, rng, batch_size_fn=None,
                 shared: SharedPeel | None = None):
        self.n = int(n)
        self.c = _ratio_guess(c)
        self.params = params
        self.rng = rng
        self.shared = shared
        self.batch_size = batch_size_fn or (lambda s_count, t_count: n * params.xi)
        self.s_mask = self.t_mask = self.best_s = self.best_t = np.ones(n, dtype=bool)
        self.s_count = n
        self.t_count = n
        self.seen = SeenSet()
        self.best_value = 0.0
        self.best_exact = False  # (V, V) starts at 0.0, not at its density

    # -- hooks used by the phased simulator ---------------------------------
    def set_pair(self, s_mask, t_mask):
        self.s_mask = s_mask
        self.t_mask = t_mask
        self.s_count = int(np.count_nonzero(s_mask))
        self.t_count = int(np.count_nonzero(t_mask))
        self.seen.refilter(s_mask, t_mask)

    def offer_best(self, s_mask, t_mask, value, exact=False):
        """Keep (S, T) as the best if ``value`` beats it; ``exact`` says
        whether ``value`` is the pair's exact density or an estimate."""
        if value > self.best_value:
            self.best_s = s_mask
            self.best_t = t_mask
            self.best_value = value
            self.best_exact = exact

    def best_pair(self) -> VertexSetPair:
        return VertexSetPair(self.best_s, self.best_t)

    @property
    def peak_edges(self) -> int:
        return self.seen.peak_size

    # ------------------------------------------------------------------------
    def _batch(self) -> int:
        return max(1, int(self.batch_size(self.s_count, self.t_count)))

    def _step_rate(self, batch, read, matching, remaining):
        """The sampling rate p and size estimate of a step whose ``batch``
        read ``read`` edges, ``matching`` of them inside the pair, with
        ``remaining`` left in the stream; p is None when the step instead
        keeps every remaining cross edge and finishes with the exact peel:
        the batch is too sparse to estimate from, the stream just ended, or
        the whole remaining population fits the sample budget (p > 1)."""
        if matching < 2 * self.params.xi or remaining == 0:
            return None, None
        eps = self.params.epsilon
        size_estimate = estimate_cross_edges(read, matching, remaining, batch, self.seen.size, eps)
        p = batch / ((1.0 - eps) * size_estimate)
        return (None if p > 1.0 else p), size_estimate

    def order_blind(self, m: int) -> bool:
        """Whether ``run``, from (V, V) over a stream of ``m`` edges, ends
        its first step in the exact finishing peel, so that nothing it
        returns depends on the order (see the module docstring). Asked of
        a fresh engine."""
        batch = self._batch()
        read = min(batch, m)
        return self._step_rate(batch, read, read, m - read)[0] is None

    def run(self, stream):
        eps = self.params.epsilon
        m = stream.remaining  # the edges of the graph the stream orders
        lo = stream._cursor  # a static stream's unread edges are those edges
        self.shared = self.shared or SharedPeel(stream._src[lo:], stream._dst[lo:], self.n,
                                                (self.c,), eps)
        while stream.remaining and self.s_count and self.t_count:
            batch = self._batch()
            bs, bd = stream.take(batch)
            self.seen.note_extra(bs.size)
            qs, qd = _inside(bs, bd, self.s_mask, self.t_mask)
            p, size_estimate = self._step_rate(batch, int(bs.size), int(qs.size),
                                               stream.remaining)
            self.seen.add(qs, qd)
            if p is None:
                break
            pair = self.s_mask, self.t_mask
            h_src, h_dst, fresh = set_sample(self.seen, *pair, p, size_estimate, stream,
                                             self.rng)
            self.seen.note_extra(h_src.size)
            if self.s_mask is pair[0] and self.t_mask is pair[1]:
                # score the pre-peel pair too: the sample is entirely inside
                # (S, T), so |H| / p estimates its cross count
                rho = sampled_density_estimate(h_src.size, p, self.s_count, self.t_count)
                self.offer_best(*pair, rho)
                step = next(_exact_bag_peels(h_src, h_dst, self.n, (self.c,), eps, *pair))
                self.s_mask, self.t_mask = step.s_mask, step.t_mask
                self.s_count, self.t_count = step.s_count, step.t_count
                # a pair with an empty side scores 0, which never beats the best
                rho = sampled_density_estimate(step.cross, p, self.s_count, self.t_count)
                self.offer_best(self.s_mask, self.t_mask, rho)
            # else an installment moved the pair during the draw (an MPC
            # flip-peel), so the sample is another pair's and is not peeled
            self.seen.add(*fresh)
            self.seen.refilter(self.s_mask, self.t_mask)
            # a pair with an empty side has no cross edge left to read
        self._finish(stream, m)

    def _local_peel(self, edge_src, edge_dst):
        """Exact peel of E(S, T), the bag (``edge_src``, ``edge_dst``), from
        the current pair, continuing the streamed peel; at (V, V) its steps
        are guess c's in ``shared``'s walk."""
        if edge_src.size == 0:
            return
        eps, start = self.params.epsilon, (self.s_mask, self.t_mask)
        if self.s_count == self.t_count == self.n:
            steps = self.shared.steps(self.c, self.n, int(edge_src.size), eps, start)
        else:
            steps = _exact_bag_peels(edge_src, edge_dst, self.n, (self.c,), eps, *start)
        self.offer_best(*_peel_best(steps, *start, edge_src.size), exact=True)

    def _finish(self, stream, m):
        """Read the rest of the stream and peel E(S, T) exactly (see the
        module docstring); a pair with an empty side has no cross edge
        left, so then nothing is read. Where S is not V and ``shared``
        hands out S's rows, they are the bag and the rest is read but not
        filtered; otherwise the rest is drained into ``seen``.

        A static stream's rest is charged as one batch in flight, as every
        read before it, and then what the engine keeps: the drained edges
        in ``seen``, or the bag. A source's last fetch (an MPC pool's) sits
        on the coordinator whole, so it is charged whole."""
        bag = None
        if stream.remaining and self.s_count and self.t_count:
            rs, rd = stream.take_all()
            fetched = stream._source is not None
            self.seen.note_extra(rs.size if fetched else min(rs.size, self._batch()))
            if self.s_count < self.n:
                bag = self.shared.inside(self.n, m, self.s_mask, self.t_mask, rs.size)
            if bag is None:
                self.seen.add(*_inside(rs, rd, self.s_mask, self.t_mask))
            else:
                self.seen.note_extra(bag[0].size - self.seen.size)
        self._local_peel(*(self.seen.arrays() if bag is None else bag))


def single_pass_run(stream: EdgeStream, n: int, c, params: SampleParams, *, rng=None,
                    shared: SharedPeel | None = None):
    """One-pass sampled peeling over a (preferably shuffled) stream.

    Returns (best pair, its density estimate, ledger): one round, and the
    engine's ``peak_edges``. The estimate is exact whenever the finishing
    peel produced the best. ``shared`` is a ``SharedPeel`` over the
    stream's edges, in any order, with ``params.epsilon``, that covers
    ``c``; None builds a one-guess one. The stream is still read in full,
    and the result is the run's own.
    """
    if n != stream.n:
        raise ValueError(f"vertex count n={n} does not match the stream's n={stream.n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    engine = SinglePassEngine(n, c, params, rng, shared=shared)
    engine.run(stream)
    return engine.best_pair(), engine.best_value, RoundLedger(rounds=1, peak_edges=engine.peak_edges)

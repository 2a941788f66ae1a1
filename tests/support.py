"""Shared graph builders and reference implementations for the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np
from hypothesis import strategies as st

from dirdense.csweep import build_grid
from dirdense.graph import DirectedGraph, VertexSetPair


def load_perfbench_module(name: str):
    """Import ``perfbench/<name>.py``, which lives beside the package, not in it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def edge_list(g: DirectedGraph) -> list[tuple[int, int]]:
    """g's edges as (u, v) pairs, in order."""
    return list(zip(g.src.tolist(), g.dst.tolist()))


def out_degrees(g: DirectedGraph) -> np.ndarray:
    return np.bincount(g.src, minlength=g.n)


def in_degrees(g: DirectedGraph) -> np.ndarray:
    return np.bincount(g.dst, minlength=g.n)


def run_threads(target, count: int = 8):
    """Run ``target(i)`` for i < ``count`` on as many threads, released at
    once and switching every microsecond; asserts they all finished."""
    start = threading.Barrier(count)

    def run(i):
        start.wait(timeout=60)
        target(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def iteration_cap(n: int, epsilon: float) -> int:
    """Criterion 3's bound: the worst-case peel count before one side must be
    empty, as each peel leaves at most a 1/(1 + epsilon) share of its side."""
    if n <= 1:
        return 0
    return math.ceil(2.0 * math.log(n) / math.log(1.0 + epsilon))


def gnp_directed(n: int, p: float, seed: int) -> DirectedGraph:
    """Random directed graph: each ordered pair (u, v), u != v, independently with prob p."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_arrays(n, src.astype(np.int64), dst.astype(np.int64))


def star_plus_triangle() -> DirectedGraph:
    """10 vertices: center 0 -> leaves 1..6, plus a bidirected triangle 7,8,9.

    The best pair is ({0}, leaves) with density 6/sqrt(6); the triangle only
    reaches 6/3 = 2.
    """
    edges = [(0, leaf) for leaf in range(1, 7)]
    for a, b in ((7, 8), (8, 9), (7, 9)):
        edges.append((a, b))
        edges.append((b, a))
    return DirectedGraph(10, edges)


def star_with_fragment(n: int = 200, leaves: int = 120, fragment: int = 40,
                       width: int = 4) -> DirectedGraph:
    """Star center->leaves plus a denser-looking but losing bidirected fragment.

    The fragment is a circulant with `width` successors per vertex in both
    directions, so its self-pair density is 2*width (8 by default), below the
    star's sqrt(leaves) (~10.95 by default). Remaining vertices are isolated.
    """
    assert 1 + leaves + fragment <= n
    edges = [(0, i) for i in range(1, leaves + 1)]
    base = leaves + 1
    for i in range(fragment):
        for off in range(1, width + 1):
            a = base + i
            b = base + (i + off) % fragment
            edges.append((a, b))
            edges.append((b, a))
    return DirectedGraph(n, edges)


@st.composite
def multigraphs_with_ratio(draw):
    """A directed multigraph on at most 24 vertices with at most 79 edges
    (self-loops and parallel edges allowed) and a ratio guess c: a value of
    its delta = 2 grid or a fraction in [1/64, 64]."""
    n = draw(st.integers(min_value=1, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    g = DirectedGraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=79)))
    c = draw(st.sampled_from(build_grid(n, 2.0))
             | st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64))
    return g, c


def placed_in_full(order):
    """Place the rest of an MPC pool order; returns its slots as (src, dst)."""
    while order.placed < order.m:
        order.after(order.placed)
    return order.src, order.dst


def relabeled(g: DirectedGraph, perm) -> DirectedGraph:
    """Copy of g with vertex v renamed to perm[v]."""
    perm = np.asarray(perm, dtype=np.int64)
    return DirectedGraph.from_arrays(g.n, perm[g.src], perm[g.dst])


def naive_best_pair(g: DirectedGraph):
    """Reference oracle: literal maximum over all 4^n - ish (S, T) pairs.

    Uses a subset-sum table per S so it stays usable up to n ~ 8. Kept
    deliberately independent of the library's search.
    """
    n = g.n
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    sizes = [bin(mask).count("1") for mask in range(1 << n)]
    inv_gm = [[0.0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            inv_gm[a][b] = 1.0 / math.sqrt(a * b)
    best_rho = -1.0
    best = None
    for s_mask in range(1, 1 << n):
        cnt = [0] * n
        for u, v in edges:
            if s_mask >> u & 1:
                cnt[v] += 1
        cross = [0] * (1 << n)
        for t_mask in range(1, 1 << n):
            low = t_mask & -t_mask
            cross[t_mask] = cross[t_mask ^ low] + cnt[low.bit_length() - 1]
            rho = cross[t_mask] * inv_gm[sizes[s_mask]][sizes[t_mask]]
            if rho > best_rho:
                best_rho = rho
                best = (s_mask, t_mask)
    s_mask, t_mask = best
    pair = VertexSetPair.of((i for i in range(n) if s_mask >> i & 1),
                            (i for i in range(n) if t_mask >> i & 1), n)
    return pair, best_rho


def reference_pref_attach(n: int, edges_per_node: int, seed: int) -> DirectedGraph:
    """Frozen per-vertex reference of ``bench.gen_pref_attach``.

    Vertex v draws its targets as uniform indices into a pool that holds one
    entry per existing vertex plus one per received edge, then appends its
    targets and itself. The acceptance constants were calibrated on this
    output, so the library's generator must stay bit-identical to it.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if edges_per_node < 1:
        raise ValueError("edges_per_node must be at least 1")
    rng = np.random.default_rng(seed)
    k = edges_per_node
    m = k * (n - 1)
    pool = np.empty(n + m, dtype=np.int64)
    pool[0] = 0
    pool_len = 1
    src = np.empty(m, dtype=np.int64)
    dst = np.empty(m, dtype=np.int64)
    at = 0
    for v in range(1, n):
        targets = pool[rng.integers(0, pool_len, size=k)]
        src[at : at + k] = v
        dst[at : at + k] = targets
        at += k
        pool[pool_len : pool_len + k] = targets
        pool_len += k
        pool[pool_len] = v
        pool_len += 1
    return DirectedGraph.from_arrays(n, src, dst)


def reference_parse_edgelist(text) -> tuple[DirectedGraph, list[int]]:
    """Frozen line-by-line reference of ``bench.parse_snap_edgelist``.

    ``text`` is a str (cut by ``str.splitlines``) or any iterable of lines,
    such as a text file.
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    remap: dict[int, int] = {}
    labels: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        for orig in (u, v):
            if orig not in remap:
                remap[orig] = len(labels)
                labels.append(orig)
        src.append(remap[u])
        dst.append(remap[v])
    g = DirectedGraph.from_arrays(len(labels), np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
    return g, labels


class NeverIndexed(np.ndarray):
    """A vertex mask that fails the test that indexes it; its reductions,
    such as ``all``, still work. View a mask of all of V as one to check
    that a membership test gathers only the other side."""

    def __getitem__(self, key):
        raise AssertionError("a mask of all of V was indexed")


def reference_shuffled_edges(g: DirectedGraph, seed: int):
    """Frozen reference of the shuffled edge order: the seed's permutation
    of the edge indices, then one gather per endpoint array."""
    perm = np.random.default_rng(seed).permutation(g.m)
    return g.src[perm], g.dst[perm]


def reference_peel_once(src, dst, n, c, epsilon, s_mask, t_mask):
    """Frozen reference of one threshold peel over any edge bag, restricted to (S, T).

    Rescans the bag for membership, peels the side the exact ratio test picks
    (all of its members at or below (1 + epsilon) times the average
    cross-degree, or one minimum-degree member if float rounding leaves none)
    and returns (side, removed, new_s_mask, new_t_mask, cross_after). The
    untouched side's mask is returned as-is.
    """
    qualifying = s_mask[src] & t_mask[dst]
    cross = int(np.count_nonzero(qualifying))
    s_count = int(np.count_nonzero(s_mask))
    t_count = int(np.count_nonzero(t_mask))
    peel_sources = s_count * c.denominator >= t_count * c.numerator
    side_mask, side_count, ends = (s_mask, s_count, src) if peel_sources else (t_mask, t_count, dst)
    deg = np.bincount(ends[qualifying], minlength=n)
    drop = side_mask & (deg <= (1.0 + epsilon) * cross / side_count)
    if not drop.any():
        members = np.flatnonzero(side_mask)
        drop = np.zeros(side_mask.size, dtype=bool)
        drop[members[int(np.argmin(deg[members]))]] = True
    kept = side_mask & ~drop
    cross_after = int(deg[kept].sum())
    if peel_sources:
        return "S", int(np.count_nonzero(drop)), kept, t_mask, cross_after
    return "T", int(np.count_nonzero(drop)), s_mask, kept, cross_after


def step_key(step):
    """A peel kernel step as plain values, for comparing steps."""
    return step.side, step.removed, step.s_mask.tolist(), step.t_mask.tolist(), step.cross


def record_shared_walks(monkeypatch, *, fail_after=None):
    """Record every walk of the peel kernel that a ``SharedPeel`` makes.

    Returns a list that gets one (args, kwargs, steps) per walk when the
    walk yields its first step; ``steps`` holds every step it yielded. The
    runners' own peels call the kernel through ``streaming``, so only shared
    walks are recorded. With ``fail_after``, a walk raises MemoryError once
    it has yielded that many steps.
    """
    import dirdense.peeling as peeling

    walks = []
    kernel = peeling._exact_bag_peels

    def walk(*args, **kwargs):
        steps = []
        walks.append((args, kwargs, steps))
        for step in kernel(*args, **kwargs):
            if len(steps) == fail_after:
                raise MemoryError("the walk ran out of memory")
            steps.append(step)
            yield step

    monkeypatch.setattr(peeling, "_exact_bag_peels", walk)
    return walks

"""Immutable directed multigraph storage and the cross-edge density objective."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "DirectedGraph",
    "VertexSetPair",
    "count_cross_edges",
    "density",
    "member_mask",
]


def _vertex_ids(values) -> np.ndarray:
    """int64 array of the ids in ``values``; float and bool ids raise instead
    of being truncated, and an empty array of any dtype is accepted."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {arr.dtype} values")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _pair_arrays(edges):
    """(src, dst) int64 arrays of an iterable of (u, v) pairs."""
    pairs = list(edges)
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = _vertex_ids(pairs)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _checked_arrays(n, src, dst):
    """Return (src, dst) unchanged after checking them against vertices 0..n-1;
    a float or bool vertex count raises instead of being truncated."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError("source/target arrays must be 1-D and of equal length")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise ValueError(f"edge endpoint out of range [0, {n})")
    return src, dst


class DirectedGraph:
    """Directed multigraph over vertices ``0..n-1``, frozen after construction.

    ``src[i] -> dst[i]`` is the i-th edge. Parallel edges and self-loops are
    kept with multiplicity. The backing arrays are read-only, so instances
    are safe to share across threads.
    """

    __slots__ = ("n", "src", "dst")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """``edges`` holds (u, v) pairs; (src, dst) arrays go to ``from_arrays``."""
        self._freeze(n, *_pair_arrays(edges))

    @classmethod
    def from_arrays(cls, n: int, src, dst) -> "DirectedGraph":
        g = cls.__new__(cls)
        g._freeze(n, _vertex_ids(src), _vertex_ids(dst))
        return g

    def _freeze(self, n, src, dst):
        src, dst = _checked_arrays(n, src, dst)
        src.setflags(write=False)
        dst.setflags(write=False)
        self.n = int(n)
        self.src = src
        self.dst = dst

    @property
    def m(self) -> int:
        """Number of edges, counting multiplicity."""
        return int(self.src.size)

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False, init=False)
class VertexSetPair:
    """Candidate (S, T) pair: S holds tail endpoints, T head endpoints.

    The pair is two equal-length boolean masks over 0..n-1, kept as private
    read-only copies; the sets may overlap (the undirected special case is
    S == T). The ``S`` and ``T`` frozensets are built when first read, and
    equality and hashing are on (S, T). ``of`` builds a pair from vertex
    ids.
    """

    s_mask: np.ndarray
    t_mask: np.ndarray

    def __init__(self, s_mask, t_mask, *, S=None, T=None):
        """``S`` or ``T`` by keyword replaces that side by its vertex ids, so
        ``dataclasses.replace(pair, S=ids)`` is the same pair with another S."""
        masks = (np.array(s_mask), np.array(t_mask))
        if any(mask.dtype != bool for mask in masks):
            raise ValueError("masks must be boolean arrays; build a pair of vertex ids with of()")
        if masks[0].ndim != 1 or masks[0].shape != masks[1].shape:
            raise ValueError("masks must be 1-D and of equal length")
        n = masks[0].size
        masks = [mask if ids is None else member_mask(ids, n) for mask, ids in zip(masks, (S, T))]
        for name, mask in zip(("s_mask", "t_mask"), masks):
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @classmethod
    def of(cls, S, T, n: int) -> "VertexSetPair":
        """Pair of the vertex ids in S and T over 0..n-1; raises on bad ids."""
        return cls(member_mask(S, n), member_mask(T, n))

    @cached_property
    def S(self) -> frozenset:
        return frozenset(np.flatnonzero(self.s_mask).tolist())

    @cached_property
    def T(self) -> frozenset:
        return frozenset(np.flatnonzero(self.t_mask).tolist())

    def __eq__(self, other):
        if not isinstance(other, VertexSetPair):
            return NotImplemented
        return (self.S, self.T) == (other.S, other.T)

    def __hash__(self):
        return hash((self.S, self.T))

    def sizes(self) -> tuple[int, int]:
        return int(np.count_nonzero(self.s_mask)), int(np.count_nonzero(self.t_mask))


def member_mask(vertices, n: int) -> np.ndarray:
    """Boolean membership mask over 0..n-1; raises on out-of-range or non-integer ids."""
    mask = np.zeros(n, dtype=bool)
    idx = _vertex_ids(list(vertices))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"vertex id out of range [0, {n})")
    mask[idx] = True
    return mask


def _check_spans(g, pair: VertexSetPair):
    if pair.s_mask.size != g.n:
        raise ValueError(f"pair spans {pair.s_mask.size} vertices, the graph {g.n}")


def _inside_mask(src, dst, s_mask, t_mask) -> np.ndarray:
    """Which of the edges (``src``, ``dst``) lie inside (S, T), as a new
    boolean array: the one membership test of edges. A side that is all of
    V admits every edge, so only the other side's mask is gathered."""
    if s_mask.all():
        return t_mask[dst]
    if t_mask.all():
        return s_mask[src]
    return s_mask[src] & t_mask[dst]


def _count_inside(src, dst, s_mask, t_mask) -> int:
    """How many of the edges (``src``, ``dst``) lie inside (S, T): the one
    membership count of an edge bag; at (V, V) every edge, with no mask
    built."""
    if s_mask.all() and t_mask.all():
        return int(src.size)
    return int(np.count_nonzero(_inside_mask(src, dst, s_mask, t_mask)))


def count_cross_edges(g, pair: VertexSetPair) -> int:
    """Number of edges from S into T, counting parallel edges with multiplicity;
    raises unless the pair's masks span g's vertices."""
    _check_spans(g, pair)
    return _count_inside(g.src, g.dst, pair.s_mask, pair.t_mask)


def density(g, pair: VertexSetPair) -> float:
    """Cross-edge count over the geometric mean of set sizes; 0 on empty sets."""
    _check_spans(g, pair)
    s_size, t_size = pair.sizes()
    return count_cross_edges(g, pair) / math.sqrt(s_size * t_size) if s_size and t_size else 0.0

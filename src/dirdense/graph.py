"""Immutable directed multigraph storage and the cross-edge density objective."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n)

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexSetPair:
    """Candidate (S, T) pair: S holds tail endpoints, T head endpoints.

    The sets may overlap (the undirected special case is S == T). The
    ``cross_edges`` cache, when present, must equal a fresh recount. Runners
    build pairs with ``from_masks``: such a pair keeps read-only boolean
    masks, answers ``sizes`` and the density helpers from them, and builds
    the ``S`` and ``T`` frozensets only when they are first read. Equality
    and hashing are on (S, T, cross_edges) either way.
    """

    S: frozenset
    T: frozenset
    cross_edges: int | None = None
    _masks = None  # (s_mask, t_mask) of a pair built by from_masks

    @classmethod
    def of(cls, S, T, cross_edges=None) -> "VertexSetPair":
        return cls(frozenset(_vertex_ids(list(S)).tolist()),
                   frozenset(_vertex_ids(list(T)).tolist()), cross_edges)

    @classmethod
    def from_masks(cls, s_mask, t_mask, cross_edges=None) -> "VertexSetPair":
        """Pair of the vertices set in two equal-length boolean masks (copied)."""
        masks = (np.array(s_mask, dtype=bool), np.array(t_mask, dtype=bool))
        if masks[0].ndim != 1 or masks[0].shape != masks[1].shape:
            raise ValueError("masks must be 1-D and of equal length")
        for mask in masks:
            mask.setflags(write=False)
        pair = cls.__new__(cls)
        object.__setattr__(pair, "_masks", masks)
        object.__setattr__(pair, "cross_edges", cross_edges)
        return pair

    def __getattr__(self, name):
        # reached only for attributes not set yet: S and T of a mask-built pair
        if self._masks is None or name not in ("S", "T"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        members = frozenset(np.flatnonzero(self._masks[name == "T"]).tolist())
        object.__setattr__(self, name, members)
        return members

    def sizes(self) -> tuple[int, int]:
        if self._masks is not None:
            return int(np.count_nonzero(self._masks[0])), int(np.count_nonzero(self._masks[1]))
        return len(self.S), len(self.T)

    def masks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(s_mask, t_mask) over 0..n-1; raises on out-of-range ids.

        The carried masks are returned as they are (read-only) when they
        span n vertices; otherwise the masks are built from S and T.
        """
        if self._masks is not None and self._masks[0].size == n:
            return self._masks
        return member_mask(self.S, n), member_mask(self.T, n)


def member_mask(vertices, n: int) -> np.ndarray:
    """Boolean membership mask over 0..n-1; raises on out-of-range or non-integer ids."""
    mask = np.zeros(n, dtype=bool)
    idx = _vertex_ids(list(vertices))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"vertex id out of range [0, {n})")
    mask[idx] = True
    return mask


def count_cross_edges(g, pair: VertexSetPair) -> int:
    """Number of edges from S into T, counting parallel edges with multiplicity."""
    s_mask, t_mask = pair.masks(g.n)
    return int(np.count_nonzero(s_mask[g.src] & t_mask[g.dst]))


def density(g, pair: VertexSetPair) -> float:
    """Cross-edge count over the geometric mean of set sizes; 0 on empty sets."""
    s_size, t_size = pair.sizes()
    if not s_size or not t_size:
        return 0.0
    return count_cross_edges(g, pair) / math.sqrt(s_size * t_size)

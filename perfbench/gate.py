"""Correctness gate: checks every sweep cell of a run outside the timed region.

The checks read the sweep's own rows (not a CSV round trip, which drops the
error text) and recount densities on the loaded graph.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import BOUND_FACTOR, Workload


# fromiter straight off the set: graph.member_mask converts every id through a
# generator, which takes most of a second per 35-cell sweep at n=1e5
def _mask(vertices, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.int64, count=len(vertices))] = True
    return mask


def _recount(g, s_mask, t_mask) -> float:
    cross = int(np.count_nonzero(s_mask[g.src] & t_mask[g.dst]))
    return cross / math.sqrt(int(s_mask.sum()) * int(t_mask.sum()))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def reference(g) -> tuple[float, dict]:
    """The exact-peel sweep over the workload grid: (best density, c -> (S, T))."""
    from dirdense.csweep import build_grid, sweep
    from workloads import DELTA, EPSILON

    result = sweep("baseline", g, build_grid(g.n, DELTA), epsilon=EPSILON)
    pairs = {row.c: (np.array(sorted(row.pair.S)), np.array(sorted(row.pair.T)))
             for row in result.rows}
    return result.best_density, pairs


def save_reference(path, best: float, pairs: dict | None) -> None:
    arrays = {"best_density": np.float64(best)}
    if pairs is not None:
        arrays["c"] = np.array([str(c) for c in pairs])
        for i, (s, t) in enumerate(pairs.values()):
            arrays[f"S{i}"], arrays[f"T{i}"] = s, t
    np.savez(path, **arrays)


def load_reference(path) -> tuple[float, dict | None]:
    from fractions import Fraction

    with np.load(path) as z:
        if "c" not in z:
            return float(z["best_density"]), None
        return float(z["best_density"]), {Fraction(str(c)): (z[f"S{i}"], z[f"T{i}"])
                                          for i, c in enumerate(z["c"])}


def check_cell(w: Workload, g, row, stream_stats, ref_pair) -> str | None:
    """Why one sweep row is wrong, or None when it passes."""
    if row.error is not None:
        return f"error row: {row.error}"
    s_size, t_size = len(row.pair.S), len(row.pair.T)
    if not (1 <= s_size <= g.n and 1 <= t_size <= g.n):
        return f"|S|={s_size}, |T|={t_size} outside [1, {g.n}]"
    if w.single_pass:
        if stream_stats is None:
            return "no stream counters recorded"
        resets, edges_read, m = stream_stats
        if resets != 0:
            return f"single pass reset its stream {resets} times"
        if edges_read > m:
            return f"read {edges_read} edges of a {m}-edge stream"
    if ref_pair is not None or w.mpc:
        s_mask, t_mask = _mask(row.pair.S, g.n), _mask(row.pair.T, g.n)
        if ref_pair is not None:
            ref_s, ref_t = _mask(ref_pair[0], g.n), _mask(ref_pair[1], g.n)
            if not (np.array_equal(s_mask, ref_s) and np.array_equal(t_mask, ref_t)):
                return "pair differs from baseline_peel's pair for this c"
        recount = _recount(g, s_mask, t_mask)
        if not _same(row.density, recount):
            return f"reported density {row.density!r} != exact recount {recount!r}"
    return None


def check_run(w: Workload, g, result, cells: dict, ref_best: float, ref_pairs: dict | None):
    """Gate a whole sweep: (failed cell count, messages, recounted best density)."""
    from dirdense.graph import density

    messages = []
    for row in result.rows:
        ref_pair = ref_pairs[row.c] if ref_pairs is not None else None
        why = check_cell(w, g, row, cells.get(row.c), ref_pair)
        if why is not None:
            messages.append(f"c={row.c}: {why}")
    failed = len(messages)
    best = density(g, result.best_pair) if result.best_pair is not None else 0.0
    if best < ref_best / BOUND_FACTOR:
        messages.append(f"best density {best!r} < exact-peel best {ref_best!r} / {BOUND_FACTOR:.4f}")
        failed = max(failed, 1)
    return failed, messages, best

"""Geometric sweep over the side-ratio guess c.

The optimal |S|/|T| is unknown, so runners are executed once per grid value
delta^i / n from 1/n up to the first value >= n. A streaming sweep builds its
edge stream once, before the first cell, and every cell reads its own replay
of those shared read-only arrays; an MPC sweep builds one uniform edge order
from its stream seed, placed only as far as its cells read it, and every
cell draws from its own cursor over it (see the ``mpc`` module docstring).
A single-pass or mpc-super sweep whose cells cannot observe the order reads
g's own arrays instead (the order-blind skip, see the ``streaming`` module
docstring). Multi-pass and mpc-near sweeps always order, as their first
read depends on the order. Sampling randomness is split per grid cell, so
per-c results are seed-deterministic regardless of scheduling.

Every runner returns (pair, density, ``RoundLedger``), and a row's
``peak_edges`` and ``passes_or_rounds`` are its ledger's.

Who reads the shared walk, and how far. A peel step depends on c only
through the side it peels, so cells whose guesses make the same side
choices share their peel steps. Every sweep but a multi-pass one hands
every cell one ``SharedPeel`` over the graph's edges (a runner called on
its own builds a one-guess one): from each start pair a cell peels the
whole graph from, one walk of every guess's exact peel, which walks each
step once. A baseline cell, and a single-pass or mpc-super cell that did
not sample, reads its guess's steps from (V, V) to the end, so the first
such cell drains the (V, V) walk; a cell that sampled never reads it.
Every flip-peel of an mpc-near cell reads only its guess's first run from
the phase's start pair, which copies no edge (``peeling._exact_bag_peels``
states the bag contract). A cell that finishes away from (V, V) may read
its bag from the graph's by-source rows (``SharedPeel.inside``). The walks
live until the sweep returns. A cell's ``wall_ms`` holds the shared work
it was the first to do and, with several workers, its waits for it.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import DirectedGraph, VertexSetPair
from .mpc import MpcConfig, _PoolOrder, mpc_nearlinear_run, mpc_superlinear_run
from .peeling import SharedPeel, baseline_peel
from .streaming import (STREAM_ORDERS, SinglePassEngine, make_stream, multi_pass_run,
                        sample_params, single_pass_run)

__all__ = ["SweepResult", "SweepRow", "build_grid", "sweep"]

RUNNERS = ("baseline", "multi-pass", "single-pass", "mpc-super", "mpc-near")

# each id is part of every seed derived under its label, so it is fixed;
# the two MPC runners share one
_LABEL_IDS = {"stream": 1, "multi-pass": 2, "single-pass": 3, "mpc-super": 4, "mpc-near": 4}
_SEED_LIMIT = 1 << 63  # run seeds lie in [0, 2**63)


def _check_seed(seed: int) -> None:
    """Raise unless ``seed`` is a run seed: an integer in [0, 2**63)."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")


def _derived_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    entropy = (int(seed), _LABEL_IDS[label], int(index))
    return np.random.default_rng(np.random.SeedSequence(entropy))


# Bound on grid denominators: a float delta is a binary fraction with up to 52
# denominator bits, so exact products would gain that many bits per value.
# Values that already fit, e.g. every delta=2 grid, are left unchanged.
_MAX_DENOMINATOR = 1 << 62


def build_grid(n: int, delta: float) -> tuple[Fraction, ...]:
    """Ascending ratio guesses delta^i / n; first is 1/n, last is >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 < delta < math.inf:
        raise ValueError("grid factor delta must be finite and exceed 1")
    step = Fraction(delta)
    values = [Fraction(1, n)]
    while values[-1] < n:
        values.append((values[-1] * step).limit_denominator(_MAX_DENOMINATOR))
    return tuple(values)


@dataclass
class SweepRow:
    """One cell's result. ``wall_ms`` is its runner call's time (see the
    module docstring)."""

    c: Fraction
    pair: VertexSetPair | None
    density: float | None
    s_size: int | None
    t_size: int | None
    peak_edges: int | None
    passes_or_rounds: int | None
    wall_ms: float
    error: str | None = None


@dataclass
class SweepResult:
    """Every row of one run of ``algo``; ``dataset`` names its graph."""

    algo: str
    seed: int
    rows: list[SweepRow]
    dataset: str = ""

    @property
    def best_row(self) -> SweepRow | None:
        """The densest row without an error; ties go to the earlier row."""
        best = None
        for row in self.rows:
            if row.error is None and (best is None or row.density > best.density):
                best = row
        return best

    @property
    def best_pair(self) -> VertexSetPair | None:
        best = self.best_row
        return None if best is None else best.pair

    @property
    def best_density(self) -> float:
        best = self.best_row
        return 0.0 if best is None else best.density


def sweep(algo: str, g: DirectedGraph, grid: Sequence[Fraction], *, epsilon: float,
          f: float = 1.0, seed: int = 0, stream_order: str = "shuffled",
          mpc_config: MpcConfig | None = None, workers: int = 1) -> SweepResult:
    """Run one algorithm per grid c and report every row.

    Per-c failures become error rows; the sweep itself never aborts.
    ``SweepResult.best_row`` names the argmax. ``mpc_config`` goes to the MPC
    runners as given, so None means the runner's default. The MPC runners
    need uniform samples, so their pool is a uniform order drawn from the
    stream seed, and ``stream_order`` orders only the streaming runners'
    stream; it is checked for every runner, and ignored where the
    order-blind skip holds (see the module docstring).
    """
    if algo not in RUNNERS:
        raise ValueError(f"unknown runner {algo!r}; expected one of {RUNNERS}")
    if stream_order not in STREAM_ORDERS:
        raise ValueError(f"unknown stream order {stream_order!r}; expected one of {STREAM_ORDERS}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_seed(seed)
    values = tuple(grid)
    params = sample_params(g.n, epsilon, f)
    stream_seed = int(_derived_rng(seed, "stream").integers(0, _SEED_LIMIT - 1))
    # no cell of a blind sweep can observe the order: read g's own arrays
    blind = (algo in ("single-pass", "mpc-super")
             and SinglePassEngine(g.n, 1, params, None).order_blind(g.m))
    stream = mpc_pool = None
    if algo in ("multi-pass", "single-pass"):
        stream = make_stream(g, "given" if blind else stream_order, stream_seed)
    elif algo in ("mpc-super", "mpc-near"):
        mpc_pool = _PoolOrder(g.src, g.dst, None if blind else stream_seed)
    shared = None
    if algo != "multi-pass":
        shared = SharedPeel(g.src, g.dst, g.n, values, params.epsilon, rescan=algo == "baseline")

    def run_cell(index: int) -> SweepRow:
        c = values[index]
        try:
            rng = None if algo == "baseline" else _derived_rng(seed, algo, index)
            started = time.perf_counter()
            if algo == "baseline":
                result = baseline_peel(g, c, epsilon, shared=shared)
            elif algo == "multi-pass":
                result = multi_pass_run(stream.replay(), g.n, c, params, rng=rng)
            elif algo == "single-pass":
                result = single_pass_run(stream.replay(), g.n, c, params, rng=rng, shared=shared)
            else:
                run = mpc_superlinear_run if algo == "mpc-super" else mpc_nearlinear_run
                result = run(g, c, params, mpc_config, rng=rng, pool=mpc_pool, shared=shared)
            wall = (time.perf_counter() - started) * 1000.0
            pair, rho, ledger = result
            return SweepRow(c, pair, rho, *pair.sizes(), ledger.peak_edges, ledger.rounds, wall)
        except Exception as exc:  # noqa: BLE001 - row-level isolation is the contract
            # a message-less exception still names itself, so the row stays an error row
            error = str(exc) or type(exc).__name__
            return SweepRow(c, None, None, None, None, None, None, 0.0, error=error)

    indices = range(len(values))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, indices))
    else:
        rows = [run_cell(i) for i in indices]

    return SweepResult(algo, seed, rows)

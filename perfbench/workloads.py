"""The four benchmark workloads, their inputs and their regime guards.

Every workload sweeps the default grid (epsilon 0.2, delta 2) through the
dirdense command line with ``--workers`` left at 1. The seed argument picks
both the graph and the run: for generated graphs the command line feeds one
``--seed`` to the generator and to the sweep; for the edge-list workloads the
benchmark generates the graph with that seed, writes it as a SNAP edge list,
and hands the program only the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

EPSILON = 0.2
DELTA = 2.0
# the acceptance suite's sweep bound: threshold peel over a c grid with
# slack epsilon and grid factor delta (Bahmani-Kumar-Vassilvitskii)
BOUND_FACTOR = 2 * (1 + EPSILON) ** 3 * math.sqrt(DELTA)

PREF100K = (100_000, 10)  # --gen pref:n=..,k=.. ; m = 999,990
DENSE2K = (2_000, 500)    # written as an edge list ; m = 999,500


class RegimeError(RuntimeError):
    """The seed put a workload outside the runner regime it exists to measure."""


@dataclass(frozen=True)
class Workload:
    name: str
    graph: tuple[int, int]  # (n, k) of the preferential-attachment graph
    from_file: bool         # write the graph as an edge list and pass --input
    algo: str
    f: float
    flags: tuple[str, ...]  # further command-line flags
    why: str

    def argv(self, seed: int, input_path: Path | None, out_path: Path) -> list[str]:
        if self.from_file:
            source = ["--input", str(input_path)]
        else:
            n, k = self.graph
            source = ["--gen", f"pref:n={n},k={k}"]
        return [*source, "--algo", self.algo, "--epsilon", str(EPSILON), "--delta", str(DELTA),
                "--f", repr(self.f), "--seed", str(seed), *self.flags, "--out", str(out_path)]

    @property
    def single_pass(self) -> bool:
        return self.algo == "single-pass"

    @property
    def mpc(self) -> bool:
        return self.algo.startswith("mpc-")


WORKLOADS = {w.name: w for w in (
    Workload("exact-pref100k", PREF100K, False, "single-pass", 1 / 30, (),
             "single-pass where n*xi >> m, so every cell collapses to an exact peel; "
             "stream builds, peel steps and mask materialization at n=1e5"),
    Workload("sampled-dense2k", DENSE2K, True, "single-pass", 1 / 3000, (),
             "single-pass where n*xi << m, so it really samples (take_qualifying, SeenSet); "
             "set-up is the edge-list parser"),
    Workload("mpcsuper-pref100k", PREF100K, False, "mpc-super", 1 / 2000, ("--mpc-mu", "0.1"),
             "superlinear MPC with machine memory n^1.1 < m: several phases per cell, "
             "machine-sized pool draws, exact recount at n=1e5"),
    Workload("mpcnear-dense2k", DENSE2K, True, "mpc-near", 1 / 2000, ("--mpc-budget", "20"),
             "near-linear MPC: exact-degree flip-peels and small (|S|+|T|)*xi draws "
             "from the same edge list as sampled-dense2k"),
)}


def check_regime(w: Workload, n: int, m: int) -> None:
    """Raise RegimeError unless an (n, m) graph keeps ``w`` in its regime."""
    from dirdense.mpc import MpcConfig
    from dirdense.streaming import sample_params

    n_xi = n * sample_params(n, EPSILON, w.f).xi
    if w.name == "exact-pref100k":
        ok, rule = n_xi >= m, f"n*xi = {n_xi} >= m = {m}"
    elif w.name == "sampled-dense2k":
        ok, rule = 100 * n_xi <= m, f"n*xi = {n_xi} <= m/100 = {m / 100:g}"
    elif w.name == "mpcsuper-pref100k":
        mem = MpcConfig("superlinear", mu=float(w.flags[1])).machine_memory(n, EPSILON)
        ok, rule = mem < m, f"n^(1+mu) = {mem} < m = {m}"
    else:
        mem = MpcConfig("nearlinear", polylog_budget=float(w.flags[1])).machine_memory(n, EPSILON)
        ok, rule = mem < m, f"n*budget = {mem} < m = {m}"
    if not ok:
        raise RegimeError(f"{w.name}: regime needs {rule} (n={n}, m={m})")


def check_traced_regime(w: Workload, layers: dict) -> None:
    """Raise RegimeError if a traced run reached code its regime excludes."""
    zero = []
    if w.name == "exact-pref100k":
        zero.append("streaming.take_qualifying_calls")
    if w.mpc:
        zero.append("streaming.make_stream_calls")
    if w.single_pass:
        zero.append("mpc.draw_calls")
    for name in zero:
        if layers[name] != 0:
            raise RegimeError(f"{w.name}: expected {name} = 0, traced {layers[name]}")

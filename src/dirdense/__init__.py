"""Directed densest-subgraph toolkit.

Peeling with a ratio guess, sampled multi-pass and single-pass streaming
runners, a geometric sweep over the guess, a round-accounted simulator of
memory-bounded phased execution, and a small exact oracle for validation.
"""

from .bench import (
    RunConfig,
    gen_pref_attach,
    parse_report_csv,
    parse_snap_edgelist,
    run_experiment,
    write_report_csv,
)
from .graph import DirectedGraph, VertexSetPair, count_cross_edges, density
from .mpc import MpcConfig, mpc_nearlinear_run, mpc_superlinear_run
from .peeling import RoundLedger, baseline_peel, exact_oracle
from .streaming import (
    EdgeStream,
    SampleParams,
    SeenSet,
    estimate_cross_edges,
    make_stream,
    multi_pass_run,
    sample_params,
    sampled_density_estimate,
    set_sample,
    single_pass_run,
)
from .csweep import SweepResult, build_grid, sweep

__all__ = [
    "DirectedGraph",
    "EdgeStream",
    "MpcConfig",
    "RoundLedger",
    "RunConfig",
    "SampleParams",
    "SeenSet",
    "SweepResult",
    "VertexSetPair",
    "baseline_peel",
    "build_grid",
    "count_cross_edges",
    "density",
    "estimate_cross_edges",
    "exact_oracle",
    "gen_pref_attach",
    "make_stream",
    "mpc_nearlinear_run",
    "mpc_superlinear_run",
    "multi_pass_run",
    "parse_report_csv",
    "parse_snap_edgelist",
    "run_experiment",
    "sample_params",
    "sampled_density_estimate",
    "set_sample",
    "single_pass_run",
    "sweep",
    "write_report_csv",
]

__version__ = "0.1.0"

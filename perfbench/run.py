"""End-to-end and per-layer benchmark of dirdense sweeps.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Before timing, the benchmark builds the workload's inputs from the seed,
checks that they keep the workload in its runner regime, and computes the
gate's reference, the exact-peel sweep of the same graph. It then runs
repetitions, each a fresh process running the dirdense command line, for
``--seconds`` and at least three times. ``--trace 0`` reports the
end-to-end metrics as medians over untraced repetitions. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics from the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exit codes: 2 without dirdense sources, 3 when the seed leaves
the workload's regime, 1 when a repetition fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_REPS = 3

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "best_density_ratio": "ratio",
    "passes_or_rounds": "count",
    "ok_share": "share",
}


def write_edge_list(g, path: Path) -> None:
    """SNAP format: one "u v" line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated pref attach graph\n")
        fh.write("\n".join(map("{} {}".format, g.src.tolist(), g.dst.tolist())))
        fh.write("\n")


def prepare(w, seed: int, tmp: Path):
    """Inputs, regime guard and gate reference; returns the input path or None."""
    from dirdense.bench import gen_pref_attach, parse_snap_edgelist

    import gate
    from workloads import check_regime

    n, k = w.graph
    g = gen_pref_attach(n, k, seed)
    input_path = None
    if w.from_file:
        input_path = tmp / "graph.txt"
        write_edge_list(g, input_path)
        with open(input_path, encoding="utf-8") as fh:
            g, _ = parse_snap_edgelist(fh)
    check_regime(w, g.n, g.m)
    best, pairs = gate.reference(g)
    gate.save_reference(tmp / "reference.npz", best, pairs if w.name == "exact-pref100k" else None)
    return input_path, best


def run_rep(w, rep: int, trace: bool, seed: int, input_path, tmp: Path, deadline: float) -> dict:
    job = {
        "workload": w.name,
        "rep": rep,
        "trace": trace,
        "src": str(SRC),
        "argv": w.argv(seed, input_path, tmp / "report.csv"),
        "reference": str(tmp / "reference.npz"),
        "result": str(tmp / f"result{rep}.json"),
        "spans": str(WORK / f"spans-{w.name}-{seed}.jsonl"),
    }
    job_path = tmp / f"job{rep}.json"
    job_path.write_text(json.dumps(job))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(job_path)],
                          cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def upper_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[dict], ref_best: float, ok_share: float) -> dict[str, list[float]]:
    """Each end-to-end metric's values over the repetitions."""
    values = {name: [r[name] for r in reps]
              for name in ("setup_s", "sweep_s", "total_s", "peak_rss_mb", "passes_or_rounds")}
    values["best_density_ratio"] = [r["best_density"] / ref_best for r in reps]
    values["ok_share"] = [ok_share]
    return values


def measure(w, seed: int, seconds: float, trace: bool):
    """Prepare the inputs, then run repetitions for ``seconds``."""
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir()
    try:
        input_path, ref_best = prepare(w, seed, tmp)
        untraced, traced, walls = [], [], []
        started = time.monotonic()
        # at least MIN_REPS repetitions; then start another only while it is
        # expected to end within the measuring window
        while (len(walls) < MIN_REPS or (trace and not traced)
               or time.monotonic() - started + statistics.median(walls) <= seconds):
            traced_rep = trace and len(traced) < len(untraced)
            rep_started = time.monotonic()
            rep = run_rep(w, len(walls), traced_rep, seed, input_path, tmp, deadline)
            walls.append(time.monotonic() - rep_started)
            (traced if traced_rep else untraced).append(rep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return untraced, traced, ref_best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dirdense" / "__init__.py").is_file():
        print(f"error: no dirdense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import LAYER_UNITS
    from workloads import WORKLOADS, RegimeError, check_traced_regime

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    try:
        untraced, traced, ref_best = measure(w, args.seed, args.seconds, bool(args.trace))
        if traced:
            layers = {name: statistics.median(r["layers"][name] for r in traced)
                      for name in traced[0]["layers"]}
            check_traced_regime(w, layers)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    reps = untraced + traced
    attempted = sum(r["cells"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for rep in reps:
        for message in rep["messages"]:
            print(f"gate: {message}", file=sys.stderr)
    deterministic = len({r["best_density"] for r in reps}) == 1
    if not deterministic:
        print("gate: best density differs between repetitions of one seed", file=sys.stderr)

    print(f"{w.name} seed={args.seed}: {len(untraced)} untraced, {len(traced)} traced repetitions; "
          f"best density {reps[0]['best_density']:.6g}, exact-peel sweep {ref_best:.6g}")
    if traced:
        layers["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced)
                                      - statistics.median(r["total_s"] for r in untraced))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    else:
        values = end_to_end(untraced, ref_best, 1.0 - failed / attempted)
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            vals = values[name]
            upper = upper_percentile(vals)
            tail = f"p{upper[0]} {upper[1]:.6g}" if upper else f"max {max(vals):.6g}"
            print(f"  {name:<20} median {m['value']:.6g} {m['unit']}  "
                  f"(min {min(vals):.6g}, {tail}, n={len(vals)})")
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One repetition of a workload, in a process of its own.

Usage: python3 perfbench/rep.py JOB.json

The job names the workload, the command-line arguments, whether to trace,
and where the reference and the result live. The repetition runs the
dirdense command line in-process, reads this process's peak resident memory
as soon as the command returns, then gates the sweep and writes a JSON
result. Owning the process is what makes the peak memory the run's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run(job: dict) -> dict:
    from dirdense import cli

    import gate
    from spans import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[job["workload"]]
    tracer = Tracer(run=job["rep"])
    with tracer.installed(full=job["trace"]), contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(job["argv"])
        total_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0:
        raise RuntimeError(f"dirdense exited with {code}")

    ref_best, ref_pairs = gate.load_reference(job["reference"])
    result = tracer.sweep_result
    failed, messages, best = gate.check_run(w, tracer.graph, result, tracer.cells,
                                            ref_best, ref_pairs)
    out = {
        "total_s": total_s,
        "setup_s": tracer.total("bench.gen_pref_attach") + tracer.total("bench.parse_snap_edgelist"),
        "sweep_s": tracer.total("bench.sweep"),
        "peak_rss_mb": peak_rss_mb,
        "best_density": best,
        "passes_or_rounds": sum(r.passes_or_rounds or 0 for r in result.rows),
        "cells": len(result.rows),
        "failed": failed,
        "messages": messages,
        "layers": tracer.layer_metrics() if job["trace"] else None,
    }
    if job["trace"]:
        tracer.write(job["spans"])
    return out


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, job["src"])
    Path(job["result"]).write_text(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

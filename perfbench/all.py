"""Run every workload, untraced and traced, at one or more seeds.

Usage (from the repository root):

    python3 perfbench/all.py [--seeds 0 1] [--seconds 24] [--out FILE.json]

Prints each run's report as it goes and, with ``--out``, writes every run's
report lines and result object keyed by workload, seed and mode
("end_to_end" or "per_layer"). Exits non-zero if any run fails or its
gate does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results: dict = {}
    ok = True
    for name in WORKLOADS:
        for seed in args.seeds:
            for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed={seed} trace={trace}: failed", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                results.setdefault(name, {}).setdefault(str(seed), {})[mode] = {
                    "report": lines[:-1], "result": result}
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

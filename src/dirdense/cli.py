"""Command-line experiment driver."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bench import ALGOS, RunConfig, report_csv_text, run_experiment
from .streaming import STREAM_ORDERS


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``; a zero denominator is a bad value like any other."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds only the given flags, each under its
    ``RunConfig`` field name, so every default is stated once, in ``RunConfig``."""
    parser = argparse.ArgumentParser(
        prog="dirdense",
        description="Directed densest-subgraph experiments: sweep c, emit a CSV of per-c results.",
        argument_default=argparse.SUPPRESS,
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", dest="input_path", metavar="PATH",
                        help="edge-list file ('u v' lines, '#' comments)")
    source.add_argument("--gen", metavar="SPEC", help="synthetic graph, e.g. pref:n=1000,k=10")
    parser.add_argument("--algo", required=True, choices=ALGOS)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--delta", type=float, help="sweep grid factor (> 1)")
    parser.add_argument("--f", type=float, help="sample-threshold scale (1 = analysis setting)")
    parser.add_argument("--c", type=_fraction,
                        help="single ratio guess (e.g. 0.25 or 1/8); overrides the sweep")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--stream", dest="stream_order", choices=STREAM_ORDERS)
    parser.add_argument("--mpc-mu", type=float, help="superlinear memory exponent")
    parser.add_argument("--mpc-budget", type=float,
                        help="nearlinear words-per-vertex budget (default ln(n)^2/eps^3)")
    parser.add_argument("--out", metavar="PATH", help="write the report CSV here")
    parser.add_argument("--workers", type=int, help="parallel sweep cells")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        report = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    best = report.best_row
    if best is None:
        print("no successful rows", file=sys.stderr)
        return 1
    print(f"best: density={best.density:.6g} at c={best.c} "
          f"(|S|={best.s_size}, |T|={best.t_size})")
    if cfg.out:
        print(f"wrote {len(report.rows)} rows to {cfg.out}")
    else:
        sys.stdout.write(report_csv_text(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Dataset loading, synthetic graph generation, and the experiment driver."""

from __future__ import annotations

import csv
import io
import math
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .graph import DirectedGraph
from .mpc import SUPERLINEAR_MU, MpcConfig
from .peeling import _ratio_guess, exact_oracle
from .csweep import RUNNERS, SweepResult, SweepRow, _check_seed, build_grid, sweep
from .streaming import STREAM_ORDERS

__all__ = [
    "ALGOS",
    "CSV_HEADER",
    "RunConfig",
    "gen_pref_attach",
    "parse_report_csv",
    "parse_snap_edgelist",
    "report_csv_text",
    "run_experiment",
    "write_report_csv",
]

ALGOS = (*RUNNERS, "exact")  # what a run's algo may name: a sweep runner or the oracle
CSV_HEADER = "dataset,algo,c,density,s_size,t_size,peak_edges,passes_or_rounds,wall_ms,seed,error"


# the bytes a comment body on the bulk path may hold: printable ASCII and tab
_BULK_BYTES = bytes(range(0x20, 0x7F)) + b"\t"
# the bytes the rest of a bulk text may hold
_DATA_BYTES = b"0123456789+- \t\n"
_INT64 = np.iinfo(np.int64)


def parse_snap_edgelist(text) -> tuple[DirectedGraph, list[int]]:
    """Parse a SNAP edge list: one "u v" line per edge, '#' starting a comment line.

    ``text`` is the whole list as a str, or a text file, which is read here
    to its end. A str is cut into lines by ``str.splitlines``; a file into
    the lines that iterating it yields in the default newline mode ('\n',
    '\r' and '\r\n'). Each line, stripped of whitespace, is blank, starts
    with '#', or holds exactly two ``int()``-parsable ids separated by
    whitespace. Vertex ids are remapped densely in first-appearance order;
    the returned label list maps new id -> original id (Python ints).
    Malformed lines raise ValueError carrying the 1-based line number.

    The bulk path reads the text's ASCII bytes with NumPy when all of these
    hold: the text is ASCII; each '#' that is the first non-blank byte of
    its line starts a comment whose body holds only printable ASCII and
    tabs, and no other '#' occurs; outside those comment lines the text
    holds only digits, '+', '-', spaces, tabs and '\n'; every sign starts
    an id and is followed by a digit; every line holds zero or two ids;
    ``np.fromstring`` reads them all without a warning; and no id sits at
    an int64 limit, where fromstring clamps an id that overflows. Ids then
    get their first-appearance rank in O(m) by indexing on the id itself,
    or, when the ids span 2 * (2m) values or more, on its rank from
    ``np.unique``. Every other text goes to the line-by-line parser, which
    alone decides what is accepted outside the bulk path and words every
    error message.
    """
    data = text if isinstance(text, str) else text.read()
    ids = _bulk_ids(data)
    parsed = None if ids is None else _first_appearance(ids)
    if parsed is None:
        lines = data.splitlines() if isinstance(text, str) else io.StringIO(data, newline="")
        parsed = _parse_lines(lines)
    return parsed


def _bulk_ids(data: str) -> np.ndarray | None:
    """The flat int64 ids of ``data``, two per edge, if the bulk path reads
    it exactly as the line parser would, else None."""
    if not data.isascii():
        return None
    raw = _without_comment_lines(data.encode("ascii"))
    if raw is None or raw.translate(None, _DATA_BYTES):
        return None
    count = _id_count(raw)
    if not count:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = np.fromstring(raw, dtype=np.int64, sep=" ")
    except (ValueError, Warning):
        return None
    return ids if ids.size == count else None


def _without_comment_lines(raw: bytes) -> bytes | None:
    """``raw`` with each comment line's bytes cut out (its '\n' kept); None
    if a '#' follows data on its line or a comment body holds a byte outside
    ``_BULK_BYTES``, which may be a line break to ``str.splitlines``."""
    cuts = [0]
    at = raw.find(b"#")
    while at >= 0:
        start = raw.rfind(b"\n", 0, at) + 1
        end = raw.find(b"\n", at)
        end = len(raw) if end < 0 else end
        if raw[start:at].strip(b" \t") or raw[at:end].translate(None, _BULK_BYTES):
            return None
        cuts += (start, end)
        at = raw.find(b"#", end)
    if len(cuts) == 1:
        return raw
    cuts.append(len(raw))
    return b"".join(raw[a:b] for a, b in zip(cuts[0::2], cuts[1::2]))


def _id_count(raw: bytes) -> int | None:
    """The number of ids in ``raw``, which holds only ``_DATA_BYTES``, if
    every sign starts an id and is followed by a digit and every line holds
    zero or two ids; else None."""
    b = np.frombuffer(raw, dtype=np.uint8)
    word = b > ord(" ")  # a digit or sign
    starts = np.empty_like(word)
    starts[:1] = word[:1]
    np.greater(word[1:], word[:-1], out=starts[1:])
    if b"+" in raw or b"-" in raw:
        sign = np.flatnonzero((b == ord("+")) | (b == ord("-")))
        # a digit follows each sign: the other data bytes sort below '0'
        if sign[-1] == b.size - 1 or not starts[sign].all() or (b[sign + 1] < ord("0")).any():
            return None
    # id starts (2) and newlines (1) in text order; the ids of a line sit next
    # to each other there, so ids 2k and 2k + 1 must be adjacent and a newline
    # must separate ids 2k + 1 and 2k + 2
    marks = starts.view(np.uint8)
    marks <<= 1
    marks |= np.equal(b, ord("\n"), out=word)
    order = np.frombuffer(marks.tobytes().translate(None, b"\0"), dtype=np.uint8)
    at = np.flatnonzero(order == 2)
    if at.size % 2:
        return None
    pairs = at.reshape(-1, 2)
    if (pairs[:, 1] - pairs[:, 0] != 1).any() or (pairs[1:, 0] - pairs[:-1, 1] < 2).any():
        return None
    return at.size


def _first_appearance(ids: np.ndarray) -> tuple[DirectedGraph, list[int]] | None:
    """The graph and labels of the flat ids ``ids``, vertices numbered in
    first-appearance order; None if an id sits at an int64 limit."""
    lo, hi = int(ids.min()), int(ids.max())
    if lo == _INT64.min or hi == _INT64.max:
        return None
    if hi - lo < 2 * ids.size:
        keys = ids - lo
    else:  # sparse ids: only they pay for a sort
        keys = np.unique(ids, return_inverse=True)[1]
    first = np.full(int(keys.max()) + 1, ids.size, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(ids.size))
    is_first = np.zeros(ids.size, dtype=bool)
    is_first[first[first < ids.size]] = True
    pos = np.flatnonzero(is_first)  # where each vertex first appears, in text order
    rank = np.empty_like(first)
    rank[keys[pos]] = np.arange(pos.size)
    g = DirectedGraph.from_arrays(pos.size, rank[keys[0::2]], rank[keys[1::2]])
    return g, ids[pos].tolist()


def _parse_lines(lines: Iterable[str]) -> tuple[DirectedGraph, list[int]]:
    """The line-by-line parser: all text outside the bulk path, and every error."""
    remap: dict[int, int] = {}
    labels: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        for orig in (u, v):
            if orig not in remap:
                remap[orig] = len(labels)
                labels.append(orig)
        src.append(remap[u])
        dst.append(remap[v])
    g = DirectedGraph.from_arrays(len(labels), np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
    return g, labels


def gen_pref_attach(n: int, edges_per_node: int, seed: int) -> DirectedGraph:
    """Seeded growth graph: each arriving vertex sends `edges_per_node` edges
    to existing vertices drawn proportionally to in-degree + 1.

    Exactly edges_per_node * (n - 1) edges are produced (the first vertex
    sends none). Parallel edges can and do occur.

    The law is that of a pool with one slot per existing vertex plus one per
    received edge, grown vertex by vertex: vertex v (1 <= v < n) draws its k
    = edges_per_node targets as k uniform slot indices of the pool, appends
    the k targets, then appends itself. So the pool holds 1 + (v - 1)(k + 1)
    slots before v's draw, whatever was drawn; slot v(k + 1) holds v; and
    every other slot copies the target of an earlier draw. Because the pool
    lengths are fixed in advance, all k(n - 1) slot indices come from one
    ``rng.integers`` call, which returns the same numbers as one call per
    vertex. The copies are then resolved in doubling vertex blocks [a, 2a):
    one gather from the resolved pool, then re-gathers of the entries that
    copy a slot inside the block until none is left.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if edges_per_node < 1:
        raise ValueError("edges_per_node must be at least 1")
    rng = np.random.default_rng(seed)
    k = edges_per_node
    width = k + 1
    draws = rng.integers(0, np.repeat(1 + np.arange(n - 1) * width, k))
    # row v of the pool: v's self slot, then the k targets vertex v + 1 drew;
    # -1 marks a slot not resolved yet
    pool = np.full(n * width, -1, dtype=np.int64)
    rows = pool.reshape(n, width)
    rows[:, 0] = np.arange(n)
    a = 1
    while a < n:
        b = min(2 * a, n)
        got = pool[draws[(a - 1) * k : (b - 1) * k]]
        rows[a - 1 : b - 1, 1:] = got.reshape(b - a, k)
        d = np.flatnonzero(got < 0) + (a - 1) * k
        slots, want = d + d // k + 1, draws[d]
        while slots.size:
            got = pool[want]
            pool[slots] = got
            pending = got < 0
            slots, want = slots[pending], want[pending]
        a = b
    return DirectedGraph.from_arrays(n, np.repeat(np.arange(1, n), k), rows[:-1, 1:].reshape(-1))


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs: input, algorithm, knobs, output.

    The algo and every knob, the MPC ones included, are checked here,
    before any graph is loaded; an MPC knob is rejected for any other algo,
    and a pinned c for the exact oracle, which sweeps no c.
    """

    algo: str
    input_path: str | None = None
    gen: str | None = None
    epsilon: float = 0.2
    delta: float = 2.0
    f: float = 1.0
    c: Fraction | None = None
    seed: int = 0
    stream_order: str = "shuffled"
    mpc_mu: float | None = None  # None: mpc.SUPERLINEAR_MU
    mpc_budget: float | None = None
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        if (self.input_path is None) == (self.gen is None):
            raise ValueError("exactly one of input_path / gen must be set")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 1 < self.delta < math.inf:
            raise ValueError("delta must be finite and exceed 1")
        if not 0 < self.f < math.inf:
            raise ValueError("f must be positive and finite")
        if self.stream_order not in STREAM_ORDERS:
            raise ValueError(f"unknown stream order {self.stream_order!r}; "
                             f"expected one of {STREAM_ORDERS}")
        if self.c is not None:
            if self.algo == "exact":
                raise ValueError("c applies only to a sweep algo, not 'exact'")
            object.__setattr__(self, "c", _ratio_guess(self.c))
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _check_seed(self.seed)
        for knob, owner in (("mpc_mu", "mpc-super"), ("mpc_budget", "mpc-near")):
            if getattr(self, knob) is not None and self.algo != owner:
                raise ValueError(f"{knob} applies only to algo {owner!r}, not {self.algo!r}")
        self.mpc_config  # noqa: B018 - builds the config, so MpcConfig checks mu and the budget now

    @cached_property
    def mpc_config(self) -> MpcConfig | None:
        """The machine-memory config of an MPC algo; None for the others."""
        if self.algo == "mpc-super":
            return MpcConfig("superlinear", mu=SUPERLINEAR_MU if self.mpc_mu is None else self.mpc_mu)
        if self.algo == "mpc-near":
            return MpcConfig("nearlinear", polylog_budget=self.mpc_budget)
        return None


def _parse_gen_spec(spec: str) -> dict:
    kind, _, args = spec.partition(":")
    if kind != "pref":
        raise ValueError(f"unknown generator {kind!r}; expected 'pref:n=..,k=..'")
    out = {}
    for item in filter(None, args.split(",")):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("n", "k"):
            raise ValueError(f"unknown pref generator key {key!r}; expected n and k")
        if key in out:
            raise ValueError(f"pref generator key {key!r} given twice")
        out[key] = int(value)
    if "n" not in out or "k" not in out:
        raise ValueError("pref generator needs n=.. and k=..")
    return out


def _load_graph(cfg: RunConfig) -> tuple[DirectedGraph, str]:
    if cfg.input_path is not None:
        with open(cfg.input_path, "r", encoding="utf-8") as fh:
            try:
                g, _labels = parse_snap_edgelist(fh)
            except ValueError as exc:
                raise ValueError(f"{cfg.input_path}: {exc}") from exc
        return g, cfg.input_path.rsplit("/", 1)[-1]
    spec = _parse_gen_spec(cfg.gen)
    g = gen_pref_attach(spec["n"], spec["k"], cfg.seed)
    return g, f"pref_n{spec['n']}_k{spec['k']}"


def run_experiment(cfg: RunConfig) -> SweepResult:
    """Build or load the graph, sweep c (unless pinned), and emit a report.

    Per-c algorithm failures become error rows; the run keeps going. A CSV
    is written when cfg.out is set. Rerunning the same config reproduces
    every column except wall_ms.
    """
    g, label = _load_graph(cfg)
    if cfg.algo == "exact":
        started = time.perf_counter()
        pair, rho = exact_oracle(g)
        wall = (time.perf_counter() - started) * 1000.0
        s_size, t_size = pair.sizes()
        row = SweepRow(Fraction(s_size, t_size), pair, rho, s_size, t_size, g.m, 1, wall)
        report = SweepResult("exact", cfg.seed, [row])
    else:
        grid = (cfg.c,) if cfg.c is not None else build_grid(g.n, cfg.delta)
        report = sweep(cfg.algo, g, grid, epsilon=cfg.epsilon, f=cfg.f, seed=cfg.seed,
                       stream_order=cfg.stream_order, mpc_config=cfg.mpc_config,
                       workers=cfg.workers)
        for row in report.rows:
            if row.error is not None:
                print(f"warning: c={row.c}: {row.error}", file=sys.stderr)
    report.dataset = label
    if cfg.out:
        write_report_csv(report, cfg.out)
    return report


def _write_report(report: SweepResult, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        density = "" if r.density is None else repr(r.density)
        counts = ("" if v is None else v
                  for v in (r.s_size, r.t_size, r.peak_edges, r.passes_or_rounds))
        writer.writerow([report.dataset, report.algo, r.c, density, *counts,
                         format(r.wall_ms, ".3f"), report.seed, r.error or ""])


def write_report_csv(report: SweepResult, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_report(report, fh)


def report_csv_text(report: SweepResult) -> str:
    buf = io.StringIO()
    _write_report(report, buf)
    return buf.getvalue()


def parse_report_csv(text: str) -> SweepResult:
    """Parse report CSV text back into one run's rows; an empty error field
    means none, and no row carries a pair.

    Every row must hold exactly one of a density and an error, a finite
    wall_ms, an algo in ``ALGOS`` and a run seed in [0, 2**63), and all rows
    must name the same dataset, algo and seed. A success row, as a run
    writes it, has c > 0, |S| and |T| of at least 1, a finite density of at
    least 0, and a peak, a round count and a wall_ms of at least 0. A
    malformed CSV raises ValueError naming its line.
    """
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CSV_HEADER.split(","):
        raise ValueError(f"line 1: expected the header {CSV_HEADER}")
    run = None
    rows = []
    for rec in reader:
        where = f"line {reader.line_num}"
        if len(rec) != 11:
            raise ValueError(f"{where}: expected 11 fields, got {len(rec)}")
        dataset, algo, c, dens, s_size, t_size, peak, rounds, wall, seed, error = rec
        if bool(dens) == bool(error):
            raise ValueError(f"{where}: a row holds exactly one of density and error")
        try:
            if algo not in ALGOS:
                raise ValueError(f"unknown algo {algo!r}; expected one of {ALGOS}")
            run_seed = int(seed)
            _check_seed(run_seed)
            key = (dataset, algo, run_seed)
            counts = [int(v) if v else None for v in (s_size, t_size, peak, rounds)]
            row = SweepRow(Fraction(c), None, float(dens) if dens else None, *counts,
                           float(wall), error or None)
            if not math.isfinite(row.wall_ms):
                raise ValueError(f"wall_ms must be finite, got {wall!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.error is None:
            problem = _success_row_problem(row)
            if problem:
                raise ValueError(f"{where}: a success row needs {problem}")
        rows.append(row)
        if run is None:
            run = key
        elif key != run:
            raise ValueError(f"{where}: dataset, algo or seed differs from the first row's")
    if run is None:
        raise ValueError("line 2: the report has no rows")
    dataset, algo, seed = run
    return SweepResult(algo, seed, rows, dataset)


def _success_row_problem(row: SweepRow) -> str | None:
    """What a parsed success row lacks that every run's success row has."""
    if not row.c > 0:
        return "c > 0"
    if None in (row.s_size, row.t_size, row.peak_edges, row.passes_or_rounds):
        return "|S|, |T|, peak_edges and passes_or_rounds"
    if not (row.s_size >= 1 and row.t_size >= 1):
        return "|S| and |T| of at least 1"
    if not (math.isfinite(row.density) and row.density >= 0):
        return "a finite density of at least 0"
    if not (row.peak_edges >= 0 and row.passes_or_rounds >= 0 and row.wall_ms >= 0):
        return "peak_edges, passes_or_rounds and wall_ms of at least 0"
    return None

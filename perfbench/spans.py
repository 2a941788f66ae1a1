"""Span tracer that wraps dirdense's public callables from outside the package.

Each wrapped call records a span (id, name, start, end, parent, run id) in
memory. Wrappers are installed where the callers look the names up, e.g.
``dirdense.csweep.make_stream`` or the methods of ``EdgeStream``, and are
removed again when the ``installed`` context exits. Hooks read counters off
the arguments and results at the same boundaries, so ratios are measured
where the work happens.

An untraced run installs only the probes marked ``light``: the set-up and
sweep spans the end-to-end metrics need, and the per-cell stream counters
the correctness gate checks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

RUNNERS = ("single_pass_run", "mpc_superlinear_run", "mpc_nearlinear_run")

# name -> unit of every per-layer metric the traced run reports
LAYER_UNITS = {
    "bench.gen_s": "s",
    "bench.parse_s": "s",
    "bench.edges_loaded": "count",
    "bench.report_s": "s",
    "csweep.cells": "count",
    "csweep.runner_s": "s",
    "csweep.self_s": "s",
    "streaming.make_stream_s": "s",
    "streaming.make_stream_calls": "count",
    "streaming.edges_permuted": "count",
    "streaming.take_qualifying_s": "s",
    "streaming.take_qualifying_calls": "count",
    "streaming.qualify_ratio": "ratio",
    "streaming.take_s": "s",
    "streaming.seen_add_s": "s",
    "streaming.seen_refilter_s": "s",
    "streaming.engine_self_s": "s",
    "streaming.best_pair_s": "s",
    "streaming.edges_read": "count",
    "streaming.resets": "count",
    "streaming.peak_edges": "count",
    "mpc.intersect_s": "s",
    "mpc.pool_edges_filtered": "count",
    "mpc.draw_s": "s",
    "mpc.draw_calls": "count",
    "mpc.edges_drawn": "count",
    "mpc.draw_useful_ratio": "ratio",
    "mpc.phases": "count",
    "mpc.rounds": "count",
    "mpc.flip_peels": "count",
    "mpc.edges_fetched": "count",
    "graph.density_s": "s",
    "graph.density_calls": "count",
    "graph.member_mask_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, counters and captured results of one run."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.graph = None          # the graph the command line loaded
        self.sweep_result = None   # the SweepResult behind the report
        self.cells: dict = {}      # c -> (resets, edges_read, m) of its stream
        self._stack: list[int] = []

    def wrap(self, owner, attr, name, *, before=None, after=None):
        """Return a span-recording stand-in for ``owner.attr``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(tracer, args, result, state)`` once the call returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, name, start, end, parent, self.run)
            if after:
                after(self, args, result, state)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, full: bool):
        """Patch the probes into dirdense for the duration of the block."""
        patches = []
        try:
            for owner, attr, name, light, before, after in _probes():
                if full or light:
                    patches.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, self.wrap(owner, attr, name, before=before, after=after))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def self_total(self, name: str) -> float:
        selfs = self.self_times()
        return sum(selfs[s.id] for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        c = self.counts
        runner_s = sum(self.total(f"csweep.{r}") for r in RUNNERS)
        return {
            "bench.gen_s": self.total("bench.gen_pref_attach"),
            "bench.parse_s": self.total("bench.parse_snap_edgelist"),
            "bench.edges_loaded": c["edges_loaded"],
            "bench.report_s": self.total("bench.write_report_csv"),
            "csweep.cells": len(self.sweep_result.rows),
            "csweep.runner_s": runner_s,
            "csweep.self_s": self.self_total("bench.sweep"),
            "streaming.make_stream_s": self.total("csweep.make_stream"),
            "streaming.make_stream_calls": self.calls("csweep.make_stream"),
            "streaming.edges_permuted": c["edges_permuted"],
            "streaming.take_qualifying_s": self.total("EdgeStream.take_qualifying"),
            "streaming.take_qualifying_calls": self.calls("EdgeStream.take_qualifying"),
            "streaming.qualify_ratio": _ratio(c["qualifying_returned"], c["qualifying_scanned"]),
            "streaming.take_s": self.total("EdgeStream.take"),
            "streaming.seen_add_s": self.total("SeenSet.add"),
            "streaming.seen_refilter_s": self.total("SeenSet.refilter"),
            "streaming.engine_self_s": self.self_total("SinglePassEngine.run"),
            "streaming.best_pair_s": self.total("SinglePassEngine.best_pair"),
            "streaming.edges_read": c["edges_read"],
            "streaming.resets": c["resets"],
            "streaming.peak_edges": c["peak_edges"],
            "mpc.intersect_s": self.total("RelevantEdgeSet.intersect_pair"),
            "mpc.pool_edges_filtered": c["pool_edges_filtered"],
            "mpc.draw_s": self.total("RelevantEdgeSet.draw"),
            "mpc.draw_calls": self.calls("RelevantEdgeSet.draw"),
            "mpc.edges_drawn": c["edges_drawn"],
            "mpc.draw_useful_ratio": _ratio(c["edges_drawn"], c["pool_edges_permuted"]),
            "mpc.phases": c["phases"],
            "mpc.rounds": c["rounds"],
            "mpc.flip_peels": c["flip_peels"],
            "mpc.edges_fetched": c["edges_fetched"],
            "graph.density_s": self.total("mpc.density"),
            "graph.density_calls": self.calls("mpc.density"),
            "graph.member_mask_s": self.total("graph.member_mask"),
        }


def _ratio(numer, denom) -> float:
    return numer / denom if denom else 0.0


# -- hooks -------------------------------------------------------------------

def _loaded(t, args, result, state):
    t.graph = result[0] if isinstance(result, tuple) else result
    t.counts["edges_loaded"] += t.graph.m


def _swept(t, args, result, state):
    t.sweep_result = result


def _stream_built(t, args, result, state):
    if result.order == "shuffled":
        t.counts["edges_permuted"] += result.m


def _single_pass_done(t, args, result, state):
    stream, c = args[0], args[2]
    t.cells[c] = (stream.resets, stream.edges_read, stream.m)


def _edges_read(args):
    return args[0].edges_read


def _qualified(t, args, result, state):
    t.counts["qualifying_returned"] += int(result[0].size)
    t.counts["qualifying_scanned"] += args[0].edges_read - state


def _engine_done(t, args, result, state):
    engine, stream = args[0], args[1]
    t.counts["edges_read"] += stream.edges_read
    t.counts["resets"] += getattr(stream, "resets", 0)
    t.counts["peak_edges"] = max(t.counts["peak_edges"], engine.peak_edges)


def _pool_size(args):
    return args[0].size


def _pool_filtered(t, args, result, state):
    t.counts["pool_edges_filtered"] += state


def _drawn(t, args, result, state):
    t.counts["pool_edges_permuted"] += state
    t.counts["edges_drawn"] += int(result[0].size)


def _mpc_done(t, args, result, state):
    ledger = result[2]
    t.counts["phases"] += ledger.phases
    t.counts["rounds"] += ledger.rounds
    t.counts["flip_peels"] += sum(p.flip_peels for p in ledger.log)
    t.counts["edges_fetched"] += sum(p.edges_fetched for p in ledger.log)


def _probes():
    """(owner, attribute, span name, light, before, after) of every probe."""
    from dirdense import bench, csweep, graph, mpc, streaming

    return [
        (bench, "gen_pref_attach", "bench.gen_pref_attach", True, None, _loaded),
        (bench, "parse_snap_edgelist", "bench.parse_snap_edgelist", True, None, _loaded),
        (bench, "sweep", "bench.sweep", True, None, _swept),
        (bench, "write_report_csv", "bench.write_report_csv", False, None, None),
        (csweep, "make_stream", "csweep.make_stream", False, None, _stream_built),
        (csweep, "single_pass_run", "csweep.single_pass_run", True, None, _single_pass_done),
        (csweep, "mpc_superlinear_run", "csweep.mpc_superlinear_run", False, None, _mpc_done),
        (csweep, "mpc_nearlinear_run", "csweep.mpc_nearlinear_run", False, None, _mpc_done),
        (streaming.EdgeStream, "take", "EdgeStream.take", False, None, None),
        (streaming.EdgeStream, "take_qualifying", "EdgeStream.take_qualifying", False,
         _edges_read, _qualified),
        (streaming.SeenSet, "add", "SeenSet.add", False, None, None),
        (streaming.SeenSet, "refilter", "SeenSet.refilter", False, None, None),
        (streaming.SinglePassEngine, "run", "SinglePassEngine.run", False, None, _engine_done),
        (streaming.SinglePassEngine, "best_pair", "SinglePassEngine.best_pair", False, None, None),
        (mpc.RelevantEdgeSet, "intersect_pair", "RelevantEdgeSet.intersect_pair", False,
         _pool_size, _pool_filtered),
        (mpc.RelevantEdgeSet, "draw", "RelevantEdgeSet.draw", False, _pool_size, _drawn),
        (mpc, "density", "mpc.density", False, None, None),
        (graph, "member_mask", "graph.member_mask", False, None, None),
    ]

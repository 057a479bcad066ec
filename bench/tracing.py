"""Span tracing from outside the program.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` with a
wrapper, on the module attribute its callers look up at call time (for
example ``flowground.cli.graph_drop_dtw``, which ``cli.ground`` calls, and
``flowground.graph_drop_dtw``, which the benchmark's library workload
calls). ``restore`` puts the originals back. A missing entry point raises:
a layer that cannot be traced is an error, never a zero.

Spans (name, start, end, parent, op id) stay in memory. Self time is a
span's duration minus the part its child spans cover; calls on one thread
nest, so that part is the sum of the direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1e6


def _graph_key(g) -> tuple:
    return (g.n_nodes, tuple(sorted(g.edges)))


def _tsort_info(args, kwargs, out) -> dict:
    return {"states": len(out.nodes), "edges": len(out.edges), "graph": _graph_key(args[0])}


def _hard_info(args, kwargs, out) -> dict:
    meta, _, drops = args[:3]
    cells = len(meta.nodes) * len(drops)
    return {"cells": cells, "table": 17 * cells}  # float64 dp + int8 codes + int64 preds


def _soft_info(args, kwargs, out) -> dict:
    meta, _, drops = args[:3]
    n_states, n_edges, n_clips = len(meta.nodes), len(meta.edges), len(drops)
    return {"cells": n_states * n_clips, "table": 8 * (6 * n_states + n_edges) * (n_clips + 1)}


def _read_info(args, kwargs, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, info hook). Info is taken after the span ends.
ENTRY_POINTS = [
    ("flowground.cli", "main", "cli.main", None),
    ("flowground.cli", "read_matrix", "matio.read", _read_info),
    ("flowground.synth", "read_matrix", "matio.read", _read_info),
    ("flowground", "parse_flow_graph", "graph.parse", None),
    ("flowground", "normalize", "graph.parse", None),
    ("flowground.cli", "parse_flow_graph", "graph.parse", None),
    ("flowground.cli", "normalize", "graph.parse", None),
    ("flowground.synth", "parse_flow_graph", "graph.parse", None),
    ("flowground.soft", "normalize", "graph.parse", None),
    ("flowground", "build_tsort_forward", "tsort.build", _tsort_info),
    ("flowground.cli", "build_tsort_forward", "tsort.build", _tsort_info),
    ("flowground.soft", "build_tsort_forward", "tsort.build", _tsort_info),
    ("flowground", "compute_cost_matrix", "align.cost", None),
    ("flowground.cli", "compute_cost_matrix", "align.cost", None),
    ("flowground.soft", "compute_cost_matrix", "align.cost", None),
    ("flowground", "compute_drop_costs", "align.drop", None),
    ("flowground.cli", "compute_drop_costs", "align.drop", None),
    ("flowground", "graph_drop_dtw", "align.hard", _hard_info),
    ("flowground.cli", "graph_drop_dtw", "align.hard", _hard_info),
    ("flowground.soft", "soft_graph_drop_dtw", "soft.dp", _soft_info),
    ("flowground.soft", "combined_loss", "soft.loss", None),
    ("flowground.cli", "train_projection", "soft.train", None),
    ("flowground.cli", "load_dataset", "synth.load", None),
    ("flowground.cli", "framewise_accuracy", "metrics", None),
]
MEMORY_SPANS = ("align.hard", "soft.dp")  # peak bytes via tracemalloc on memory ops


class TraceError(Exception):
    """An entry point to wrap does not exist."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None  # spans are recorded only while an op id is set
        self.memory = False  # measure peak bytes of MEMORY_SPANS (their times are not used)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        missing = []
        for mod_name, attr, name, info in ENTRY_POINTS:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))
        if missing:
            self.restore()
            raise TraceError("entry points not found: " + ", ".join(missing))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, info_hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            memory = tracer.memory and name in MEMORY_SPANS
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    span.info["peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if info_hook is not None:
                span.info.update(info_hook(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             "info": {k: v for k, v in s.info.items() if k != "graph"}}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, timed_ops: dict[int, float], memory_ops: set[int]) -> dict[str, float]:
    """Per-layer numbers: times and counts per timed op, memory as the maximum call.

    ``timed_ops`` maps each timed op to the factor that puts its times at the
    nominal host speed (speed.py). A layer a workload never calls reads 0
    calls and 0 time; its ratios (per cell, useful share) then read 0 as well.
    """
    own = tracer.self_times()
    n_ops = max(1, len(timed_ops))
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    per_op_graphs: dict[int, set] = {}
    peaks: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        if s.op in memory_ops:
            if "peak" in s.info:
                peaks[s.name] = max(peaks.get(s.name, 0.0), s.info["peak"] / MB)
            continue
        if s.op not in timed_ops:
            continue
        busy[s.name] = busy.get(s.name, 0.0) + t * timed_ops[s.op]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key in ("bytes", "cells", "states", "edges"):
            if key in s.info:
                sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0.0) + s.info[key]
        if "table" in s.info:
            key = f"{s.name}.table"
            peaks[key] = max(peaks.get(key, 0.0), s.info["table"] / MB)
        if s.name == "tsort.build":
            per_op_graphs.setdefault(s.op, set()).add(s.info["graph"])

    def per_op(value: float) -> float:
        return value / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    builds = calls.get("tsort.build", 0)
    hard_cells = sums.get("align.hard.cells", 0.0)
    soft_cells = sums.get("soft.dp.cells", 0.0)
    return {
        "matio.read_s": per_op(busy.get("matio.read", 0.0)),
        "matio.read_mb": per_op(sums.get("matio.read.bytes", 0.0) / MB),
        "matio.calls": per_op(calls.get("matio.read", 0)),
        "graph.parse_s": per_op(busy.get("graph.parse", 0.0)),
        "graph.calls": per_op(calls.get("graph.parse", 0)),
        "tsort.build_s": per_op(busy.get("tsort.build", 0.0)),
        "tsort.builds": per_op(builds),
        "tsort.useful_ratio": ratio(sum(len(g) for g in per_op_graphs.values()), builds),
        "tsort.states": ratio(sums.get("tsort.build.states", 0.0), builds),
        "tsort.edges": ratio(sums.get("tsort.build.edges", 0.0), builds),
        "align.cost_s": per_op(busy.get("align.cost", 0.0)),
        "align.drop_s": per_op(busy.get("align.drop", 0.0)),
        "align.hard_s": per_op(busy.get("align.hard", 0.0)),
        "align.hard_calls": per_op(calls.get("align.hard", 0)),
        "align.hard_cells": per_op(hard_cells),
        "align.hard_ns_per_cell": ratio(busy.get("align.hard", 0.0) * 1e9, hard_cells),
        "align.hard_table_mb": peaks.get("align.hard.table", 0.0),
        "align.hard_peak_mb": peaks.get("align.hard", 0.0),
        "soft.dp_s": per_op(busy.get("soft.dp", 0.0)),
        "soft.calls": per_op(calls.get("soft.dp", 0)),
        "soft.cells": per_op(soft_cells),
        "soft.ns_per_cell": ratio(busy.get("soft.dp", 0.0) * 1e9, soft_cells),
        "soft.table_mb": peaks.get("soft.dp.table", 0.0),
        "soft.peak_mb": peaks.get("soft.dp", 0.0),
        "soft.loss_self_s": per_op(busy.get("soft.loss", 0.0)),
        "soft.train_self_s": per_op(busy.get("soft.train", 0.0)),
        "synth.load_s": per_op(busy.get("synth.load", 0.0)),
        "metrics.s": per_op(busy.get("metrics", 0.0)),
        "cli.self_s": per_op(busy.get("cli.main", 0.0)),
        "cli.calls": per_op(calls.get("cli.main", 0)),
    }

"""Span recording for the traced run.

For a traced op the benchmark replaces the program's public functions,
under the module attributes their callers look up (``dpdfg.bench.disclose``,
``dpdfg.pipeline.NoiseStream``, ...), with wrappers that record spans. A span
is named after the layer that defines the function, so a layer's time is the
summed self time of its spans.

Functions called once per edge and run (noise draws, APE, priors) would
cost more to record as spans than they take. They are *folded*: their calls
and summed duration are kept on the enclosing span, and count as covered by
a child when that span's self time is taken. Inside a folded call nothing
else is timed, only counted, so no interval is subtracted twice.

Of a span's result only a few counts (events, edges, cells) are taken,
right when the call returns; the result itself is not kept, so a traced op
frees the same data at the same moment as an untraced one. The time the
counting takes is folded into the enclosing span as ``harness.counts``.

Spans are kept in memory and written out once the run ends. A wrapped name
(or module) that the program no longer has is skipped, so its counts read 0.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute the caller looks up, span name)
SPANNED = (
    ("eventlog", "parse_csv", "eventlog.parse_csv"),
    ("bench", "parse_csv", "eventlog.parse_csv"),
    ("dfg", "build_dfg", "dfg.build_dfg"),
    ("bench", "build_dfg", "dfg.build_dfg"),
    ("pipeline", "filter_for_disclosure", "dfg.filter_for_disclosure"),
    ("pipeline", "choose_time_unit", "dfg.choose_time_unit"),
    ("pipeline", "convert_unit", "dfg.convert_unit"),
    ("pipeline", "edge_epsilon_time", "risk.edge_epsilon_time"),
    ("pipeline", "disclose", "pipeline.disclose"),
    ("bench", "disclose", "pipeline.disclose"),
    ("pipeline", "emit_json", "pipeline.emit_json"),
    ("bench", "run_sweep", "bench.run_sweep"),
)
FOLDED = (
    ("pipeline", "aggregate", "dfg.aggregate"),
    ("pipeline", "edge_range", "dfg.edge_range"),
    ("risk", "edge_range", "dfg.edge_range"),
    ("pipeline", "empirical_prior", "risk.empirical_prior"),
    ("risk", "empirical_prior", "risk.empirical_prior"),
    ("pipeline", "epsilon_freq", "risk.epsilon_freq"),
    ("pipeline", "delta_from_epsilon_time", "risk.delta_from_epsilon_time"),
    ("pipeline", "delta_from_epsilon_freq", "risk.delta_from_epsilon_freq"),
    ("pipeline", "worst_case_delta_time", "risk.worst_case_delta_time"),
    ("pipeline", "NoiseStream", "noise.NoiseStream"),
    ("pipeline", "sample_laplace", "noise.sample_laplace"),
    ("pipeline", "post_process", "noise.post_process"),
    ("pipeline", "sensitivity", "noise.sensitivity"),
    ("pipeline", "ape", "utility.ape"),
    ("pipeline", "alpha_per_edge", "utility.alpha_per_edge"),
    ("pipeline", "epsilon_from_alpha", "utility.epsilon_from_alpha"),
)


def result_counts(name: str, result) -> dict[str, int]:
    """The per-op counts that the result of a ``name`` span carries."""
    if name == "eventlog.parse_csv":
        return {"eventlog.events": result.event_count()}
    if name == "dfg.build_dfg":
        edges = result.edges.values()
        return {"dfg.edges": len(edges), "dfg.max_occurrences": max((e.frequency for e in edges), default=0)}
    if name == "pipeline.disclose":
        edges = result[1].edges
        return {
            "pipeline.edges_disclosed": len(edges),
            "pipeline.degenerate_edges": sum(e.degenerate for e in edges),
            "pipeline.unbounded_edges": sum(e.epsilon == float("inf") for e in edges),
        }
    if name == "bench.run_sweep":
        return {"bench.cells": result.count("\n") - 1}
    return {}


COUNTS = (
    "eventlog.events", "dfg.edges", "dfg.max_occurrences", "pipeline.edges_disclosed",
    "pipeline.degenerate_edges", "pipeline.unbounded_edges", "bench.cells",
)
# Summed over an op's calls, except these, which take the largest.
MAX_COUNTS = {"dfg.max_occurrences"}

ROOT = "harness.op"
LAYERS = ("eventlog", "dfg", "risk", "utility", "noise", "pipeline", "bench", "harness")


@dataclass(eq=False)
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    folded: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]

    def to_dict(self) -> dict:
        return {
            "op": self.op, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "folded": self.folded,
        }


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op, the self seconds of each span name and folded name. A span's
    self time is its duration minus what its child spans and folded calls
    cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, span in enumerate(spans):
        per_op = out[span.op]
        folded_s = 0.0
        for name, (_, seconds) in span.folded.items():
            per_op[name] += seconds
            folded_s += seconds
        child_s = covered(children[idx], span.start, span.end)
        per_op[span.name] += span.end - span.start - child_s - folded_s
    return out


def call_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Per op, how often each span name and folded name was called."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        out[span.op][span.name] += 1
        for name, (calls, _) in span.folded.items():
            out[span.op][name] += calls
    return out


class Recorder:
    """Installs the wrappers for one traced op at a time and keeps its spans."""

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: dict.fromkeys(COUNTS, 0))
        self._clock = clock
        self._stack: list[int] = []
        self._in_folded = False
        self._op = -1
        self._patches = []
        for table, wrap in ((SPANNED, self._spanned), (FOLDED, self._folded)):
            for module_name, attr, name in table:
                original = getattr(modules.get(module_name), attr, None)
                if original is not None:
                    self._patches.append((modules[module_name], attr, original, wrap(name, original)))

    def _fold(self, name: str) -> list:
        """The [calls, seconds] entry of ``name`` on the enclosing span."""
        return self.spans[self._stack[-1]].folded.setdefault(name, [0, 0.0])

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._in_folded:
                return fn(*args, **kwargs)
            span = Span(self._op, name, 0.0, parent=self._stack[-1])
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            counts = result_counts(name, result)
            if counts:
                totals = self.counts[self._op]
                for key, value in counts.items():
                    totals[key] = max(totals[key], value) if key in MAX_COUNTS else totals[key] + value
                entry = self._fold("harness.counts")
                entry[0] += 1
                entry[1] += self._clock() - span.end
            return result

        return wrapper

    def _folded(self, name: str, fn):
        def wrapper(*args, **kwargs):
            entry = self._fold(name)
            entry[0] += 1
            if self._in_folded:
                return fn(*args, **kwargs)
            self._in_folded = True
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1] += self._clock() - start
                self._in_folded = False

        return wrapper

    def run(self, op_id: int, fn):
        """Run ``fn`` as traced op ``op_id`` under a root span; return its
        result and the root span's duration."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._op = op_id
        root = Span(op_id, ROOT, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root.start = self._clock()
        try:
            result = fn()
        finally:
            root.end = self._clock()
            self._stack.pop()
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
        return result, root.end - root.start

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


PER_LAYER = (
    ("eventlog.parse_csv_s", "s"),
    ("eventlog.events", "count"),
    ("eventlog.us_per_event", "us"),
    ("dfg.build_dfg_s", "s"),
    ("dfg.edges", "count"),
    ("dfg.max_occurrences", "count"),
    ("dfg.unit_s", "s"),
    ("dfg.aggregate_s", "s"),
    ("risk.calibrate_s", "s"),
    ("risk.empirical_prior_calls", "count"),
    ("utility.s", "s"),
    ("noise.s", "s"),
    ("noise.streams", "count"),
    ("noise.draws", "count"),
    ("pipeline.disclose_self_s", "s"),
    ("pipeline.emit_s", "s"),
    ("pipeline.edges_disclosed", "count"),
    ("pipeline.degenerate_edges", "count"),
    ("pipeline.unbounded_edges", "count"),
    ("bench.run_sweep_self_s", "s"),
    ("bench.cells", "count"),
    ("harness.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"share.{layer}", "ratio") for layer in LAYERS)


def op_metrics(recorder: Recorder) -> dict[int, dict[str, float]]:
    """Per traced op id, every per-layer metric except
    ``trace.overhead_ratio``, which needs the untraced ops too."""
    selfs, calls = self_times(recorder.spans), call_counts(recorder.spans)
    roots = {s.op: s.end - s.start for s in recorder.spans if s.name == ROOT}
    out = {}
    for op, op_s in roots.items():
        t, n = selfs[op], calls[op]
        layer_s = defaultdict(float)
        for name, seconds in t.items():
            layer_s[name.split(".", 1)[0]] += seconds
        m = {
            "eventlog.parse_csv_s": t["eventlog.parse_csv"],
            "dfg.build_dfg_s": t["dfg.build_dfg"],
            "dfg.unit_s": t["dfg.filter_for_disclosure"] + t["dfg.choose_time_unit"] + t["dfg.convert_unit"],
            "dfg.aggregate_s": t["dfg.aggregate"] + t["dfg.edge_range"],
            "risk.calibrate_s": layer_s["risk"],
            "risk.empirical_prior_calls": n["risk.empirical_prior"],
            "utility.s": layer_s["utility"],
            "noise.s": layer_s["noise"],
            "noise.streams": n["noise.NoiseStream"],
            "noise.draws": n["noise.sample_laplace"],
            "pipeline.disclose_self_s": t["pipeline.disclose"],
            "pipeline.emit_s": t["pipeline.emit_json"],
            "bench.run_sweep_self_s": t["bench.run_sweep"],
            "harness.self_s": t[ROOT],
            "trace.op_s": op_s,
            **recorder.counts[op],
        }
        events = m["eventlog.events"]
        m["eventlog.us_per_event"] = m["eventlog.parse_csv_s"] / events * 1e6 if events else 0.0
        for layer in LAYERS:
            m[f"share.{layer}"] = layer_s[layer] / op_s
        out[op] = m
    return out

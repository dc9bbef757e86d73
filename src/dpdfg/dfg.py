"""Directly-follows graph construction and edge aggregation.

Edges keep the full list of per-occurrence time differences so that risk
calibration can inspect the duration distribution, not just the aggregate.
"""
from __future__ import annotations

import enum
import functools
import operator
from collections import defaultdict
from typing import Iterable, NamedTuple

from .eventlog import NS_PER_UNIT, START_END, EventLog, _check_choice, collector_paused


class AggregationKind(enum.Enum):
    FREQUENCY = "frequency"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    @classmethod
    def parse(cls, text: str) -> "AggregationKind":
        value = text.lower()
        _check_choice("aggregation", value, [kind.value for kind in cls])
        return cls(value)

    @property
    def is_time(self) -> bool:
        return self is not AggregationKind.FREQUENCY


class DfgEdge(NamedTuple):
    source: str
    target: str
    durations: tuple[float, ...]

    @property
    def frequency(self) -> int:
        return len(self.durations)

    @property
    def is_boundary(self) -> bool:
        return self.source == START_END or self.target == START_END


class Dfg(NamedTuple):
    """Activities plus edges keyed by (source, target); durations are in
    ``time_unit``.
    """

    activities: frozenset[str]
    edges: dict[tuple[str, str], DfgEdge]
    time_unit: str = "ns"

    def trace_count(self) -> int:
        return sum(e.frequency for (s, _), e in self.edges.items() if s == START_END)

    def sorted_edges(self) -> list[DfgEdge]:
        return [self.edges[k] for k in sorted(self.edges)]


class AnnotatedDfg(NamedTuple):
    """A DFG together with one released weight per edge."""

    dfg: Dfg
    kind: AggregationKind
    weights: dict[tuple[str, str], float]


@collector_paused
def build_dfg(log: EventLog) -> Dfg:
    """Build the DFG of an event log, in nanosecond durations.

    Each consecutive event pair in a trace contributes one occurrence; each
    trace also contributes a zero-duration occurrence to the virtual
    ("--", first) and (last, "--") edges.
    """
    occurrences: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    traces = log.traces
    for case_id in sorted(traces):
        events = traces[case_id]
        if not events:
            continue
        # The first event pairs with the virtual start at a zero gap.
        prev_activity, prev_ts = START_END, events[0][1]
        for activity, ts in events:
            if ts < prev_ts:
                raise ValueError(f"trace {case_id!r}: events not sorted by timestamp")
            occurrences[prev_activity, activity].append(float(ts - prev_ts))
            prev_activity, prev_ts = activity, ts
        occurrences[prev_activity, START_END].append(0.0)

    edges = {key: DfgEdge(key[0], key[1], tuple(vals)) for key, vals in occurrences.items()}
    # Each event is the target of exactly one edge.
    activities = frozenset(target for _, target in occurrences) - {START_END}
    return Dfg(activities, edges, time_unit="ns")


def aggregate(edge: DfgEdge, kind: AggregationKind) -> float:
    """Evaluate the annotation weight of an edge under one aggregation."""
    if not edge.durations:
        raise ValueError("edge has no occurrences")
    if kind is AggregationKind.FREQUENCY:
        return float(edge.frequency)
    if kind is AggregationKind.SUM:
        return ordered_sum(edge.durations)
    if kind is AggregationKind.MIN:
        return min(edge.durations)
    if kind is AggregationKind.MAX:
        return max(edge.durations)
    return ordered_sum(edge.durations) / len(edge.durations)


def ordered_sum(values: Iterable[float]) -> float:
    """Sum floats left to right. ``sum()`` compensates float error since
    Python 3.12, which can move the last bit of a seeded output.
    """
    return functools.reduce(operator.add, values, 0.0)


def median(values: Iterable[float]) -> float:
    """The middle of the sorted values, or the mean ``(a + b) / 2`` of the
    middle two: ``statistics.median``'s arithmetic, bit for bit, without
    importing ``statistics``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no median for empty data")
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def edge_range(edge: DfgEdge, kind: AggregationKind) -> float:
    """Maximum possible value of the guessed attribute for this edge: the
    largest observed duration for time aggregations, 1 for frequencies.
    """
    if kind is AggregationKind.FREQUENCY:
        return 1.0
    if not edge.durations:
        raise ValueError("edge has no occurrences")
    return max(edge.durations)


def convert_unit(dfg: Dfg, unit: str) -> Dfg:
    """Re-express all durations in ``unit``."""
    _check_choice("time unit", unit, NS_PER_UNIT)
    src_factor = NS_PER_UNIT[dfg.time_unit]
    dst_factor = NS_PER_UNIT[unit]
    if src_factor == dst_factor:
        return Dfg(dfg.activities, dict(dfg.edges), time_unit=unit)
    edges = {
        key: DfgEdge(e.source, e.target, tuple([d * src_factor / dst_factor for d in e.durations]))
        for key, e in dfg.edges.items()
    }
    return Dfg(dfg.activities, edges, time_unit=unit)


def choose_time_unit(dfg: Dfg, kind: AggregationKind) -> str:
    """Pick the largest unit that the maximum aggregated edge value reaches,
    else ``ns``. Adjacent units differ by at most 1000x, so that value is in
    [1, 1000] of the unit picked, unless the unit is ``d``. A DFG with no
    edges, or whose maximum is not positive, gets ``h``.
    """
    if not dfg.edges:
        return "h"
    to_ns = NS_PER_UNIT[dfg.time_unit]
    peak_ns = max([aggregate(e, kind) * to_ns for e in dfg.edges.values()])
    if peak_ns <= 0:
        return "h"
    reached = (unit for unit, factor in NS_PER_UNIT.items() if peak_ns >= factor)
    return max(reached, key=NS_PER_UNIT.get, default="ns")


def filter_for_disclosure(dfg: Dfg, kind: AggregationKind, include_boundary_time: bool) -> Dfg:
    """Drop virtual start/end edges from time-annotated disclosure unless
    explicitly included; frequency disclosure always keeps them.
    """
    if kind is AggregationKind.FREQUENCY or include_boundary_time:
        return dfg
    edges = {k: e for k, e in dfg.edges.items() if not e.is_boundary}
    return Dfg(dfg.activities, edges, time_unit=dfg.time_unit)

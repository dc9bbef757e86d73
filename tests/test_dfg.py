import math
import random
import statistics
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfg import CANONICAL_MAPPING, START_END, AggregationKind, build_dfg, parse_csv, read_log
from dpdfg.dfg import (
    Dfg,
    DfgEdge,
    aggregate,
    choose_time_unit,
    convert_unit,
    edge_range,
    filter_for_disclosure,
    median,
)
from dpdfg.eventlog import NS_PER_UNIT, EventLog

F = AggregationKind.FREQUENCY
DATA = Path(__file__).parent / "data"


def _log(rows: str) -> "EventLog":
    return parse_csv("case,activity,timestamp\n" + rows)


def test_build_dfg_two_traces():
    dfg = build_dfg(_log("t1,A,0\nt1,B,2\nt2,A,0\nt2,C,5\n"))
    hours = convert_unit(dfg, "h")
    assert hours.edges[(START_END, "A")].frequency == 2
    assert hours.edges[("A", "B")].durations == (2.0,)
    assert hours.edges[("A", "C")].durations == (5.0,)
    assert hours.edges[("B", START_END)].frequency == 1
    assert hours.edges[("C", START_END)].frequency == 1
    assert hours.activities == frozenset({"A", "B", "C"})


def test_build_dfg_single_event_trace():
    dfg = build_dfg(_log("t1,A,3\n"))
    assert set(dfg.edges) == {(START_END, "A"), ("A", START_END)}


def test_build_dfg_rejects_unsorted_trace():
    with pytest.raises(ValueError, match="bad"):
        build_dfg(EventLog({"bad": (("A", 100), ("B", 50))}))


def _dfg_by_definition(log: EventLog):
    """build_dfg as its docstring states it: (start, first), each
    consecutive pair, (last, end), over the traces in case order."""
    occurrences = {}
    for case_id in sorted(log.traces):
        events = log.traces[case_id]
        if not events:
            continue
        pairs = [(START_END, events[0][0], 0.0)]
        for (prev, prev_ts), (cur, cur_ts) in zip(events, events[1:]):
            if cur_ts < prev_ts:
                return f"ValueError: trace {case_id!r}: events not sorted by timestamp"
            pairs.append((prev, cur, float(cur_ts - prev_ts)))
        pairs.append((events[-1][0], START_END, 0.0))
        for src, dst, gap in pairs:
            occurrences.setdefault((src, dst), []).append(gap)
    activities = frozenset(a for events in log.traces.values() for a, _ in events)
    return activities, {key: tuple(gaps) for key, gaps in occurrences.items()}


EVENTS = st.lists(
    st.tuples(st.sampled_from("ABC"), st.integers(0, 5) | st.integers(-(2**63), 2**63 - 1)), max_size=6
)


@given(st.dictionaries(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]), st.tuples(st.booleans(), EVENTS)))
@settings(max_examples=300)
def test_build_dfg_equals_definition(cases):
    # Traces sorted by time (with ties) or in drawn order (maybe unsorted),
    # some empty.
    traces = {}
    for case_id, (keep_order, rows) in cases.items():
        rows = rows if keep_order else sorted(rows, key=lambda row: row[1])
        traces[case_id] = tuple(rows)
    log = EventLog(traces)
    expected = _dfg_by_definition(log)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            build_dfg(log)
        assert f"ValueError: {exc.value}" == expected
        return
    dfg = build_dfg(log)
    assert (dfg.activities, {key: e.durations for key, e in dfg.edges.items()}) == expected
    assert list(dfg.edges) == list(expected[1])
    assert dfg.time_unit == "ns"


def test_activities_are_the_logged_labels(clinic_log):
    logs = [clinic_log] + [read_log(path, mapping=CANONICAL_MAPPING) for path in sorted(DATA.glob("*.csv"))]
    assert len(logs) == 6
    for log in logs:
        assert build_dfg(log).activities == {a for events in log.traces.values() for a, _ in events}


def test_clinic_ac_durations(clinic_dfg_hours):
    assert sorted(clinic_dfg_hours.edges[("A", "C")].durations) == pytest.approx([1.0, 6.0, 15.0])


def test_aggregate_on_clinic_ac(clinic_dfg_hours):
    edge = clinic_dfg_hours.edges[("A", "C")]
    assert aggregate(edge, AggregationKind.MAX) == pytest.approx(15.0)
    assert aggregate(edge, F) == 3
    assert aggregate(edge, AggregationKind.SUM) == pytest.approx(22.0)
    assert aggregate(edge, AggregationKind.MIN) == pytest.approx(1.0)
    assert aggregate(edge, AggregationKind.AVG) == pytest.approx(22.0 / 3)


def test_clinic_frequencies(clinic_dfg):
    freq = {k: e.frequency for k, e in clinic_dfg.edges.items()}
    assert freq == {
        (START_END, "A"): 11,
        ("A", "B"): 5,
        ("A", "C"): 3,
        ("A", "D"): 1,
        ("B", "C"): 5,
        ("C", "D"): 8,
        ("D", START_END): 9,
        ("A", START_END): 2,
    }


def test_edge_range(clinic_dfg_hours):
    ac = clinic_dfg_hours.edges[("A", "C")]
    assert edge_range(ac, AggregationKind.MAX) == pytest.approx(15.0)
    assert edge_range(ac, F) == 1.0
    assert edge_range(clinic_dfg_hours.edges[("A", "D")], AggregationKind.SUM) == pytest.approx(7.0)


def test_boundary_frequencies_match_trace_count(clinic_dfg):
    starts = sum(e.frequency for (s, _), e in clinic_dfg.edges.items() if s == START_END)
    ends = sum(e.frequency for (_, t), e in clinic_dfg.edges.items() if t == START_END)
    assert starts == ends == 11 == clinic_dfg.trace_count()


def test_total_frequency_is_events_plus_traces(clinic_log, clinic_dfg):
    total = sum(e.frequency for e in clinic_dfg.edges.values())
    assert total == clinic_log.event_count() + len(clinic_log)


def test_min_avg_max_ordering(clinic_dfg_hours):
    for edge in clinic_dfg_hours.edges.values():
        lo = aggregate(edge, AggregationKind.MIN)
        mid = aggregate(edge, AggregationKind.AVG)
        hi = aggregate(edge, AggregationKind.MAX)
        assert lo <= mid <= hi


def test_build_dfg_invariant_under_trace_permutation(clinic_csv):
    header, *rows = clinic_csv.strip().split("\n")
    rng = random.Random(11)
    rng.shuffle(rows)
    shuffled = build_dfg(parse_csv("\n".join([header, *rows]) + "\n"))
    original = build_dfg(parse_csv(clinic_csv))
    assert shuffled == original


def test_choose_time_unit_clinic(clinic_dfg):
    # peak max 20 h (0.83 d) -> hours; peak sum 52 h (2.2 d) fits in days
    assert choose_time_unit(clinic_dfg, AggregationKind.MAX) == "h"
    assert choose_time_unit(clinic_dfg, AggregationKind.SUM) == "d"
    assert choose_time_unit(clinic_dfg, AggregationKind.AVG) == "h"


def test_choose_time_unit_scales_down_for_short_gaps():
    dfg = build_dfg(parse_csv(
        "case,activity,timestamp\nt,A,0\nt,B,2.5\n",
        mapping=None,
    ))
    # 2.5 h -> in days 0.104, hours 2.5: hours is the largest unit in range
    assert choose_time_unit(dfg, AggregationKind.MAX) == "h"
    tiny = build_dfg(_log("t,A,0\nt,B,0.0005\n"))  # 1.8 s
    assert choose_time_unit(tiny, AggregationKind.MAX) == "s"


def test_choose_time_unit_saturates_at_days():
    dfg = build_dfg(_log("t,A,0\nt,B,48000\n"))  # 2000 days
    assert choose_time_unit(dfg, AggregationKind.MAX) == "d"


def test_choose_time_unit_degenerate_defaults_to_hours():
    dfg = build_dfg(_log("t,A,1\n"))
    assert choose_time_unit(dfg, AggregationKind.MAX) == "h"


def _window_scan_unit(peak_ns: float) -> str:
    """The oracle: the largest unit that keeps ``peak_ns`` in [1, 1000] of
    it, else the nearest end of the unit scale; ``h`` for no positive peak."""
    if peak_ns <= 0:
        return "h"
    for unit in ("d", "h", "min", "s", "ms", "us", "ns"):
        if 1.0 <= peak_ns / NS_PER_UNIT[unit] <= 1000.0:
            return unit
    return "d" if peak_ns / NS_PER_UNIT["d"] > 1000.0 else "ns"


# Each unit's factor times 1 and 1000, just inside and outside 1000, and the
# floats either side of each.
UNIT_BOUNDARIES = [
    nearby
    for factor in NS_PER_UNIT.values()
    for multiple in (1, 1000, 999.9999999, 1000.0000001)
    for peak in (factor * multiple,)
    for nearby in (math.nextafter(peak, 0.0), peak, math.nextafter(peak, math.inf))
]


def _peak_dfg(peak_ns: float) -> Dfg:
    return Dfg(frozenset("AB"), {("A", "B"): DfgEdge("A", "B", (peak_ns,))}, time_unit="ns")


@given(peak_ns=st.floats() | st.floats(1e-5, 1e22))
@settings(max_examples=2000)
@example(peak_ns=0.0)
@example(peak_ns=-1.0)
@example(peak_ns=5e-324)
@example(peak_ns=math.inf)
@example(peak_ns=math.nan)
def test_choose_time_unit_equals_the_window_scan(peak_ns):
    assert choose_time_unit(_peak_dfg(peak_ns), AggregationKind.MAX) == _window_scan_unit(peak_ns)


def test_choose_time_unit_equals_the_window_scan_at_every_unit_boundary():
    assert len(UNIT_BOUNDARIES) == 7 * 4 * 3
    for peak_ns in UNIT_BOUNDARIES:
        assert choose_time_unit(_peak_dfg(peak_ns), AggregationKind.MAX) == _window_scan_unit(peak_ns), peak_ns


def test_convert_unit_rejects_an_unknown_unit():
    message = "^unknown time unit 'weeks'; expected one of ns, us, ms, s, min, h, d$"
    with pytest.raises(ValueError, match=message):
        convert_unit(_peak_dfg(1.0), "weeks")


def test_convert_unit_round_trips():
    dfg = build_dfg(_log("t,A,0\nt,B,36\n"))
    days = convert_unit(dfg, "d")
    assert days.edges[("A", "B")].durations == pytest.approx((1.5,))
    assert convert_unit(days, "min").edges[("A", "B")].durations == pytest.approx((2160.0,))


def test_filter_for_disclosure(clinic_dfg):
    kept = filter_for_disclosure(clinic_dfg, F, include_boundary_time=False)
    assert len(kept.edges) == 8
    trimmed = filter_for_disclosure(clinic_dfg, AggregationKind.MAX, include_boundary_time=False)
    assert len(trimmed.edges) == 5
    assert all(not e.is_boundary for e in trimmed.edges.values())
    assert trimmed.activities == clinic_dfg.activities
    full = filter_for_disclosure(clinic_dfg, AggregationKind.MAX, include_boundary_time=True)
    assert len(full.edges) == 8


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=12))
@example(values=[3.0, 1.0, 2.0])
@example(values=[0.1, 0.2, 0.3, 0.4])
@example(values=[1.0, math.inf])
@example(values=[math.inf, 2.0, -math.inf])
@example(values=[-math.inf, math.inf])
@example(values=[1.7976931348623157e308, 1.7976931348623157e308])
@example(values=[-0.0, 0.0])
def test_median_matches_statistics_bit_for_bit(values):
    # statistics.median is the oracle: odd and even lengths, infinities,
    # an overflowing middle pair and signed zeros give its bits.
    assert _bits(median(iter(values))) == _bits(statistics.median(values))


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError, match="^no median for empty data$"):
        median([])


def test_aggregation_parse_names_the_allowed_values():
    assert AggregationKind.parse("MAX") is AggregationKind.MAX
    with pytest.raises(ValueError, match="^unknown aggregation 'bogus'; expected one of frequency, sum, min, max, avg$"):
        AggregationKind.parse("bogus")

import random

import pytest

from dpdfg import (
    CANONICAL_MAPPING,
    ColumnMapping,
    IngestError,
    parse_csv,
    parse_xes,
    to_canonical_csv,
)
from dpdfg.eventlog import NS_PER_UNIT, parse_timestamp_ns

HOUR_NS = NS_PER_UNIT["h"]


def test_parse_csv_decimal_hours_single_case():
    text = "case,activity,timestamp\nP1,A,1\nP1,B,1.2\nP1,C,2.2\nP1,D,2.4\n"
    log = parse_csv(text)
    assert list(log.traces) == ["P1"]
    events = log.traces["P1"].events
    assert [e.activity for e in events] == ["A", "B", "C", "D"]
    gaps = [b.timestamp_ns - a.timestamp_ns for a, b in zip(events, events[1:])]
    assert gaps == [round(0.2 * HOUR_NS), HOUR_NS, round(0.2 * HOUR_NS)]


def test_parse_csv_header_only_gives_empty_log():
    log = parse_csv("case,activity,timestamp\n")
    assert len(log) == 0


def test_parse_csv_sorts_out_of_order_rows():
    text = "case,activity,timestamp\nP9,B,5\nP9,A,2\n"
    log = parse_csv(text)
    assert [e.activity for e in log.traces["P9"].events] == ["A", "B"]


def test_parse_csv_keeps_source_order_on_timestamp_ties():
    text = "case,activity,timestamp\nP1,X,3\nP1,Y,3\nP1,Z,3\n"
    log = parse_csv(text)
    assert [e.activity for e in log.traces["P1"].events] == ["X", "Y", "Z"]


def test_parse_csv_missing_mapped_column():
    with pytest.raises(IngestError, match=r"row 1.*timestamp"):
        parse_csv("case,activity,when\nP1,A,1\n")


def test_parse_csv_unparseable_timestamp_names_row():
    text = "case,activity,timestamp\nP1,A,1\nP1,B,not-a-time\n"
    with pytest.raises(IngestError, match="row 3"):
        parse_csv(text)


def test_parse_csv_rejects_reserved_activity_label():
    with pytest.raises(IngestError, match="reserved"):
        parse_csv("case,activity,timestamp\nP1,--,1\n")


def test_parse_csv_rejects_empty_activity():
    with pytest.raises(IngestError, match="empty activity"):
        parse_csv("case,activity,timestamp\nP1,,1\n")


def test_parse_csv_preserves_unknown_columns():
    text = "case,activity,timestamp,resource,ward\nP1,A,1,S1,W3\n"
    log = parse_csv(text)
    event = log.traces["P1"].events[0]
    assert event.extra_attrs == {"resource": "S1", "ward": "W3"}


def test_parse_csv_custom_mapping_and_units():
    text = "pid,step,at\nk1,A,0\nk1,B,90\n"
    mapping = ColumnMapping(case_col="pid", activity_col="step", timestamp_col="at", number_unit="min")
    log = parse_csv(text, mapping)
    events = log.traces["k1"].events
    assert events[1].timestamp_ns - events[0].timestamp_ns == 90 * NS_PER_UNIT["min"]


def test_parse_timestamp_iso_variants():
    base = parse_timestamp_ns("2021-03-01T10:00:00+00:00", fmt="iso")
    assert parse_timestamp_ns("2021-03-01T10:00:00Z", fmt="iso") == base
    assert parse_timestamp_ns("2021-03-01T11:00:00+01:00", fmt="iso") == base
    assert parse_timestamp_ns("2021-03-01T10:00:00.250000Z", fmt="iso") == base + 250_000_000
    # naive timestamps are taken as UTC
    assert parse_timestamp_ns("2021-03-01T10:00:00", fmt="iso") == base


def test_parse_csv_rejects_nonfinite_and_overflowing_timestamps():
    with pytest.raises(IngestError, match="non-finite"):
        parse_csv("case,activity,timestamp\nP1,A,inf\n")
    with pytest.raises(IngestError, match="non-finite"):
        parse_csv("case,activity,timestamp\nP1,A,nan\n")
    with pytest.raises(IngestError, match="out of range"):
        parse_csv("case,activity,timestamp\nP1,A,1e300\n")


def test_parse_timestamp_integer_epoch_ns_is_exact():
    # 2020-05-10T10:00:00.123457Z; float() would give ...024
    assert parse_timestamp_ns("1589104800123457000", "number", "ns") == 1589104800123457000
    assert parse_timestamp_ns("-9223372036854775808", "number", "ns") == -(2**63)
    with pytest.raises(IngestError, match="out of range"):
        parse_timestamp_ns("9223372036854775808", "number", "ns")
    with pytest.raises(IngestError, match="out of range"):
        parse_timestamp_ns("2562048", "number", "h")
    # zero padding past int()'s 4300-digit limit
    assert parse_timestamp_ns("0" * 5000 + "1589104800123457000", "number", "ns") == 1589104800123457000
    with pytest.raises(IngestError, match="out of range"):
        parse_csv("case,activity,timestamp\nP1,A," + "0" * 5000 + "9" * 20 + "\n")


def test_parse_timestamp_trims_subnanosecond_fractions():
    a = parse_timestamp_ns("2021-03-01T10:00:00.1234567891Z", fmt="iso")
    b = parse_timestamp_ns("2021-03-01T10:00:00.123456Z", fmt="iso")
    assert a == b


def test_round_trip_canonical_csv(clinic_log):
    text = to_canonical_csv(clinic_log)
    reparsed = parse_csv(text, CANONICAL_MAPPING)
    assert reparsed == clinic_log


def test_round_trip_preserves_extra_attrs():
    text = "case,activity,timestamp,resource\nP1,A,1,S1\nP1,B,2,S2\nP2,A,3,S1\n"
    log = parse_csv(text)
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log


def test_parse_csv_order_insensitive_within_case(clinic_csv):
    header, *rows = clinic_csv.strip().split("\n")
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(rows)
        shuffled = "\n".join([header, *rows]) + "\n"
        assert parse_csv(shuffled) == parse_csv(clinic_csv)


XES_ONE_TRACE = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00.000+00:00"/>
      <string key="lifecycle:transition" value="complete"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2021-01-01T09:00:00.000+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_one_trace_one_hour_gap():
    log = parse_xes(XES_ONE_TRACE)
    events = log.traces["case1"].events
    assert [e.activity for e in events] == ["A", "B"]
    assert events[1].timestamp_ns - events[0].timestamp_ns == HOUR_NS
    assert events[0].extra_attrs["lifecycle:transition"] == "complete"


def test_parse_xes_single_event_trace():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(xml)
    assert len(log.traces["t"].events) == 1


def test_parse_xes_with_namespace():
    xml = """<log xmlns="http://www.xes-standard.org/"><trace>
      <string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(xml)
    assert [e.activity for e in log.traces["t"].events] == ["A"]


def test_parse_xes_missing_timestamp():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/></event>
    </trace></log>"""
    with pytest.raises(IngestError, match="missing timestamp"):
        parse_xes(xml)


def test_parse_xes_missing_trace_name():
    xml = """<log><trace>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    with pytest.raises(IngestError, match="trace 1"):
        parse_xes(xml)


def test_parse_xes_malformed_xml():
    with pytest.raises(IngestError, match="malformed"):
        parse_xes("<log><trace>")


def test_parse_xes_matches_csv_model():
    log = parse_xes(XES_ONE_TRACE)
    csv_text = "case,activity,timestamp\ncase1,A,2021-01-01T08:00:00Z\ncase1,B,2021-01-01T09:00:00Z\n"
    csv_log = parse_csv(csv_text, ColumnMapping(timestamp_format="iso"))
    xes_events = [(e.activity, e.timestamp_ns) for e in log.traces["case1"].events]
    csv_events = [(e.activity, e.timestamp_ns) for e in csv_log.traces["case1"].events]
    assert xes_events == csv_events

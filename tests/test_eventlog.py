import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdfg import (
    CANONICAL_MAPPING,
    ColumnMapping,
    IngestError,
    parse_csv,
    parse_xes,
    to_canonical_csv,
)
from dpdfg.eventlog import NS_PER_UNIT, parse_csv_reference, parse_timestamp_ns

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


def test_parse_timestamp_plain_decimals_are_exact():
    # float() scaling would give ...457024 and ...400000256
    assert parse_timestamp_ns("1589104800.123457", "number", "s") == 1589104800123457000
    assert parse_timestamp_ns("606801.734", "number", "h") == 606801734 * HOUR_NS // 1000
    assert parse_timestamp_ns("-.5", "number", "us") == -500
    assert parse_timestamp_ns("+7.", "number", "ns") == 7
    assert parse_timestamp_ns("0" * 5000 + "1." + "0" * 5000 + "1", "number", "s") == 1_000_000_000
    with pytest.raises(IngestError, match="out of range"):
        parse_timestamp_ns("2562047.79", "number", "h")
    with pytest.raises(IngestError, match="out of range"):
        parse_timestamp_ns("1" * 20 + ".5", "number", "ns")


def test_parse_timestamp_decimals_round_half_to_even():
    assert [parse_timestamp_ns(t, "number", "ns") for t in ("0.5", "1.5", "2.5", "-2.5", "2.5000001")] == [
        0, 2, 2, -2, 3,
    ]
    # Ties in hours, a unit of 3.6e12 ns
    assert parse_timestamp_ns("0.00000000000125", "number", "h") == 4  # 4.5 ns
    assert parse_timestamp_ns("0.00000000000375", "number", "h") == 14  # 13.5 ns
    assert parse_timestamp_ns("0.000000000000125", "number", "h") == 0  # 0.45 ns


def _exact_decimal(ns: int, unit: str, digits: int) -> str:
    """``ns`` in ``unit`` as a decimal of ``digits`` fraction digits,
    rounded to nearest."""
    scaled = Fraction(ns * 10**digits, NS_PER_UNIT[unit])
    units = round(scaled)
    return f"{units // 10**digits}.{units % 10**digits:0{digits}d}"


EPOCH_2100_NS = 4_102_444_800 * 10**9


@given(
    ns=st.one_of(
        st.integers(0, EPOCH_2100_NS // 1000).map(lambda us: us * 1000),
        st.integers(0, EPOCH_2100_NS),
    ),
    unit=st.sampled_from(["s", "h"]),
)
@settings(max_examples=500)
def test_decimal_timestamps_round_trip(ns, unit):
    # 9 digits write a second exactly; 15 digits put an hour within 0.002 ns.
    text = _exact_decimal(ns, unit, 9 if unit == "s" else 15)
    assert parse_timestamp_ns(text, "number", unit) == ns
    assert parse_timestamp_ns(text, "auto", unit) == ns


@given(
    whole=st.integers(0, 10**8),
    fraction=st.text("0123456789", min_size=1, max_size=30),
    unit=st.sampled_from(sorted(NS_PER_UNIT)),
    negative=st.booleans(),
)
def test_decimal_timestamps_equal_exact_rounding(whole, fraction, unit, negative):
    text = f"{'-' if negative else ''}{whole}.{fraction}"
    exact = round(Fraction(text) * NS_PER_UNIT[unit])  # Fraction rounds half to even
    if -(2**63) <= exact < 2**63:
        assert parse_timestamp_ns(text, "number", unit) == exact
    else:
        with pytest.raises(IngestError, match="out of range"):
            parse_timestamp_ns(text, "number", unit)


def test_parse_timestamp_exponent_and_underscore_forms_are_exact():
    # float() scaling would give ...457024
    assert parse_timestamp_ns("1589104800123457e-6", "number", "s") == 1589104800123457000
    assert parse_timestamp_ns("1_589_104_800.123457", "number", "s") == 1589104800123457000
    assert parse_timestamp_ns("2.5e-9", "number", "s") == 2  # half to even
    # Exponents past Decimal's range: the value is 0, or not finite.
    assert parse_timestamp_ns("1e-99999999999999999999", "number", "h") == 0
    assert parse_timestamp_ns("0e99999999999999999999", "number", "h") == 0
    with pytest.raises(IngestError, match="non-finite"):
        parse_timestamp_ns("1e99999999999999999999", "number", "ns")
    with pytest.raises(IngestError, match="non-finite"):
        parse_timestamp_ns("9" * 400, "number", "ns")


@given(
    whole=st.text("0123456789", min_size=1, max_size=20),
    fraction=st.text("0123456789", max_size=12),
    exponent=st.integers(-30, 5),
    unit=st.sampled_from(sorted(NS_PER_UNIT)),
    sign=st.sampled_from(["", "-", "+"]),
    marker=st.sampled_from("eE"),
    underscores=st.booleans(),
)
def test_exponent_timestamps_equal_exact_rounding(whole, fraction, exponent, unit, sign, marker, underscores):
    join = "_".join if underscores else "".join
    mantissa = join(whole) + ("." + join(fraction) if fraction else "")
    text = f"{sign}{mantissa}{marker}{exponent}"
    # Fraction takes no underscores before Python 3.11.
    exact = round(Fraction(text.replace("_", "")) * NS_PER_UNIT[unit])
    if -(2**63) <= exact < 2**63:
        assert parse_timestamp_ns(text, "number", unit) == exact
        assert parse_timestamp_ns(text, "auto", unit) == exact
    else:
        with pytest.raises(IngestError, match="out of range"):
            parse_timestamp_ns(text, "number", unit)


def _xes_one_event(timestamp: str) -> str:
    return f"""<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="{timestamp}"/></event>
    </trace></log>"""


@pytest.mark.parametrize(
    "fraction, ns",
    [(".2", 200_000_000), (".25", 250_000_000), (".2501", 250_100_000), (".25012", 250_120_000)],
)
def test_iso_fractions_of_one_to_five_digits(fraction, ns):
    base = parse_timestamp_ns("2021-03-01T10:00:00Z", fmt="iso")
    stamp = f"2021-03-01T10:00:00{fraction}Z"
    for fmt in ("auto", "iso"):
        log = parse_csv(f"case,activity,timestamp\nP1,A,{stamp}\n", ColumnMapping(timestamp_format=fmt))
        assert log.traces["P1"].events[0].timestamp_ns == base + ns
    assert parse_xes(_xes_one_event(stamp)).traces["t"].events[0].timestamp_ns == base + ns


def test_iso_timestamps_outside_int64_ns_are_rejected():
    latest = "2262-04-11T23:47:16.854775Z"
    log = parse_csv(f"case,activity,timestamp\nP1,A,1\nP1,B,{latest}\n")
    assert log.traces["P1"].events[1].timestamp_ns == 2**63 - 808
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log
    assert parse_timestamp_ns("1677-09-21T00:12:43.145225Z", fmt="iso") == -(2**63) + 808
    for outside in ("2262-04-11T23:47:16.854776Z", "2300-01-01T00:00:00Z", "1677-09-21T00:12:43.145224Z"):
        with pytest.raises(IngestError, match=f"^row 3: timestamp '{outside}' out of range$"):
            parse_csv(f"case,activity,timestamp\nP1,A,1\nP1,B,{outside}\n")
        with pytest.raises(IngestError, match=f"^trace 1, event 1: timestamp '{outside}' out of range$"):
            parse_xes(_xes_one_event(outside))


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


def test_parse_xes_round_trips_through_canonical_csv():
    xml = """<log><trace><string key="concept:name" value=" case1 "/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/>
      <string key="org:resource" value=""/></event>
      <event><string key="concept:name" value=" B "/>
      <date key="time:timestamp" value="2021-01-01T09:00:00Z"/>
      <string key="org:resource" value=" S1 "/></event>
    </trace></log>"""
    log = parse_xes(xml)
    events = log.traces["case1"].events
    assert [e.activity for e in events] == ["A", "B"]
    assert [e.extra_attrs for e in events] == [{}, {"org:resource": " S1 "}]
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log


@pytest.mark.parametrize(
    "label, message",
    [("  ", "empty activity label"), (" -- ", "activity label '--' is reserved")],
)
def test_parse_xes_rejects_blank_and_reserved_labels(label, message):
    xml = f"""<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="{label}"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    with pytest.raises(IngestError, match=f"^trace 1, event 1: {message}$"):
        parse_xes(xml)


# Differential test of parse_csv against parse_csv_reference (DictReader and
# parse_timestamp_ns per row): the same EventLog, or the same IngestError.
ISO_TIMESTAMPS = st.builds(
    "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}".format,
    st.integers(1970, 2100),
    st.integers(1, 12),
    st.integers(1, 28),
    st.sampled_from(["T", " "]),
    st.integers(0, 23),
    st.integers(0, 59),
    st.integers(0, 59),
    st.integers(0, 9).flatmap(lambda k: st.text("0123456789", min_size=k, max_size=k)).map(
        lambda digits: "." + digits if digits else ""
    ),
    st.one_of(
        st.sampled_from(["", "Z", "+00:00"]),
        st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 14), st.sampled_from([0, 30, 45])),
    ),
)
NUMERIC_TIMESTAMPS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(-(2**63), 2**63).map(str),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-", "+", "00"]), st.integers(0, 10**7), st.text("0123456789", max_size=12)),
    st.builds("{}_{:03d}".format, st.integers(1, 999), st.integers(0, 999)),
    st.sampled_from(["1e3", "2.5E-2", "inf", "-nan", "1e300", ".5", "7.", "0" * 30 + "12"]),
)
BAD_TIMESTAMPS = st.sampled_from(["", "  ", "noon", "2021-13-01T00:00:00", "12:00", "1,5"])
GOOD_TIMESTAMPS = {
    "auto": st.one_of(ISO_TIMESTAMPS, NUMERIC_TIMESTAMPS),
    "iso": ISO_TIMESTAMPS,
    "number": NUMERIC_TIMESTAMPS,
}
ANY_TIMESTAMP = st.one_of(ISO_TIMESTAMPS, NUMERIC_TIMESTAMPS, BAD_TIMESTAMPS)
GOOD_CASES = st.sampled_from(["c1", "c2", "c3", " c2 ", "c,4", "c\n5"])
ANY_CASE = st.sampled_from(["c1", "c2", "", "  "])
GOOD_ACTIVITIES = st.sampled_from(["A", "B", "C", " A", 'say "hi"', "x,y", "two\nlines"])
ANY_ACTIVITY = st.sampled_from(["A", "B", "--", ""])
EXTRAS = st.sampled_from(["", "S1", "W, 3", "multi\nline", '"quoted"', " "])
HEADERS = st.lists(
    st.sampled_from(["case", "activity", "timestamp", "resource", "ward", "note,1"]), min_size=0, max_size=7
).map(lambda extra: ["case", "activity", "timestamp"] + extra)


@st.composite
def csv_logs(draw):
    """A CSV log and its mapping. Half the logs draw only cells that parse
    (out-of-range and non-finite numbers aside), so they reach the end."""
    fmt = draw(st.sampled_from(["auto", "iso", "number"]))
    unit = draw(st.sampled_from(sorted(NS_PER_UNIT) + ["fortnight"]))
    header = draw(st.permutations(draw(HEADERS)))
    if draw(st.sampled_from([False] * 9 + [True])):
        header = header[: draw(st.integers(0, len(header)))]  # maybe no mapped column
    spoil = draw(st.booleans())
    mixed = st.one_of if spoil else lambda good, _: good
    # A handful of timestamps per log, so rows tie.
    stamps = draw(st.lists(mixed(GOOD_TIMESTAMPS[fmt], ANY_TIMESTAMP), min_size=1, max_size=5))
    cell = {
        "case": mixed(GOOD_CASES, ANY_CASE),
        "activity": mixed(GOOD_ACTIVITIES, ANY_ACTIVITY),
        "timestamp": st.sampled_from(stamps),
    }
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(["full"] * 3 + ["blank", "short", "long"] if spoil else ["full", "blank", "long"]))
        if shape == "blank":
            rows.append([])
            continue
        row = [draw(cell.get(name, EXTRAS)) for name in header]
        if shape == "short":
            row = row[: draw(st.integers(0, len(row)))] or [""]
        elif shape == "long":
            row += draw(st.lists(EXTRAS, min_size=1, max_size=3))
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.sampled_from([False] * 19 + [True])):
        writer.writerow([])  # a blank first line: the header has no columns
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), ColumnMapping(timestamp_format=fmt, number_unit=unit)


def _outcome(parse, text, mapping):
    try:
        return parse(text, mapping)
    except IngestError as exc:
        return f"IngestError: {exc}"


@given(csv_logs())
@settings(max_examples=400)
def test_parse_csv_equals_reference(log_and_mapping):
    text, mapping = log_and_mapping
    expected = _outcome(parse_csv_reference, text, mapping)
    assert _outcome(parse_csv, text, mapping) == expected
    assert _outcome(parse_csv, text.encode(), mapping) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "case,activity,timestamp\n\n\nP1,A,1\n\nP1,,2\n",  # blank lines are not counted in "row N"
        "case,activity,timestamp\nP1,A\n",  # short row: missing timestamp
        "case,activity,timestamp,res\nP1,A,1\nP1,B,2,S2,extra,cells\n",
        "res,case,activity,timestamp,res\nS1,P1,A,1,S2\nS1,P1,B,2\n",  # repeated name: last column
        "case,activity,timestamp,case\nP1,A,1,P2\nP1,B,2\n",  # short row blanks the repeated case
        'case,activity,timestamp,note\n"P,1","A\nB",1,"x, ""y"""\n',
    ],
)
def test_parse_csv_edge_cases_equal_reference(text):
    for mapping in (ColumnMapping(), ColumnMapping(timestamp_format="number", number_unit="ns")):
        assert _outcome(parse_csv, text, mapping) == _outcome(parse_csv_reference, text, mapping)

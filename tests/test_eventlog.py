import csv
import gc
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfg import (
    CANONICAL_MAPPING,
    ColumnMapping,
    EventLog,
    IngestError,
    build_dfg,
    parse_csv,
    parse_xes,
    read_log,
    to_canonical_csv,
)
from dpdfg import eventlog
from dpdfg.bench import generate_log, profile_spec
from dpdfg.eventlog import NS_PER_UNIT, parse_csv_reference, parse_timestamp_ns

HOUR_NS = NS_PER_UNIT["h"]
UNKNOWN_UNIT = "unknown time unit 'fortnight'; expected one of ns, us, ms, s, min, h, d"


def test_parse_csv_decimal_hours_single_case():
    text = "case,activity,timestamp\nP1,A,1\nP1,B,1.2\nP1,C,2.2\nP1,D,2.4\n"
    log = parse_csv(text)
    assert list(log.traces) == ["P1"]
    events = log.traces["P1"]
    assert [a for a, _ in events] == ["A", "B", "C", "D"]
    gaps = [b[1] - a[1] for a, b in zip(events, events[1:])]
    assert gaps == [round(0.2 * HOUR_NS), HOUR_NS, round(0.2 * HOUR_NS)]


def test_parse_csv_header_only_gives_empty_log():
    log = parse_csv("case,activity,timestamp\n")
    assert len(log) == 0


def test_parse_csv_sorts_out_of_order_rows():
    text = "case,activity,timestamp\nP9,B,5\nP9,A,2\n"
    log = parse_csv(text)
    assert [a for a, _ in log.traces["P9"]] == ["A", "B"]


def test_parse_csv_keeps_source_order_on_timestamp_ties():
    text = "case,activity,timestamp\nP1,X,3\nP1,Y,3\nP1,Z,3\n"
    log = parse_csv(text)
    assert [a for a, _ in log.traces["P1"]] == ["X", "Y", "Z"]


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


@pytest.mark.parametrize(
    ("wide", "narrow", "mapping"),
    [
        ("case,activity,timestamp,resource,ward\nP1,A,1,S1,W3\n", "case,activity,timestamp\nP1,A,1\n", ColumnMapping()),
        # Empty cells, and quoted cells holding a CRLF, an LF and a CR.
        (
            'note,case,activity,resource,timestamp\n"two\r\nlines",P1,A,,1\n,P1,B,S1,2\n"a\nb",P2,A,"c\rd",3\n',
            "case,activity,timestamp\nP1,A,1\nP1,B,2\nP2,A,3\n",
            ColumnMapping(),
        ),
        # A column named like a canonical one, which the canonical CSV does not write.
        ("id,activity,timestamp,case\nc1,A,1,x\nc1,B,2,y\n", "id,activity,timestamp\nc1,A,1\nc1,B,2\n", ColumnMapping(case_col="id")),
    ],
    ids=["plain", "empty-and-line-break-cells", "column-named-case"],
)
def test_parse_csv_ignores_unknown_columns(wide, narrow, mapping):
    for parse in (parse_csv, parse_csv_reference):
        log = parse(wide, mapping)
        assert log == parse(narrow, mapping)
        assert parse(to_canonical_csv(log), CANONICAL_MAPPING) == log


def test_parse_csv_custom_mapping_and_units():
    text = "pid,step,at\nk1,A,0\nk1,B,90\n"
    mapping = ColumnMapping(case_col="pid", activity_col="step", timestamp_col="at", number_unit="min")
    log = parse_csv(text, mapping)
    events = log.traces["k1"]
    assert events[1][1] - events[0][1] == 90 * NS_PER_UNIT["min"]


def test_parse_timestamp_iso_variants():
    base = parse_timestamp_ns("2021-03-01T10:00:00+00:00", fmt="iso")
    assert parse_timestamp_ns("2021-03-01T10:00:00Z", fmt="iso") == base
    assert parse_timestamp_ns("2021-03-01T11:00:00+01:00", fmt="iso") == base
    assert parse_timestamp_ns("2021-03-01T10:00:00.250000Z", fmt="iso") == base + 250_000_000
    # naive timestamps are taken as UTC
    assert parse_timestamp_ns("2021-03-01T10:00:00", fmt="iso") == base


def test_parse_timestamp_rejects_an_unknown_format():
    # An unknown format is refused as ColumnMapping refuses it, not read as ISO.
    message = r"^unknown timestamp format '{}'; expected one of auto, iso, number$"
    with pytest.raises(ValueError, match=message.format("bogus")):
        parse_timestamp_ns("2021-01-01T00:00:00Z", "bogus")
    with pytest.raises(ValueError, match=message.format("ISO")):
        parse_timestamp_ns("5", "ISO")
    with pytest.raises(ValueError, match=f"^{UNKNOWN_UNIT}$"):
        parse_timestamp_ns("2021-01-01T00:00:00Z", "iso", "fortnight")


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
        assert log.traces["P1"][0][1] == base + ns
    assert parse_xes(_xes_one_event(stamp)).traces["t"][0][1] == base + ns


@pytest.mark.parametrize(
    "stamp, ns",
    [
        ("20210301T101500+00:00", 1_614_593_700 * 10**9),  # basic format
        ("2021-W09-1T10:00:00", 1_614_592_800 * 10**9),  # ISO week date: Monday of week 9
    ],
)
def test_iso_basic_format_and_week_dates(stamp, ns):
    for fmt in ("auto", "iso"):
        log = parse_csv(f"case,activity,timestamp\nP1,A,{stamp}\n", ColumnMapping(timestamp_format=fmt))
        assert log.traces["P1"][0][1] == ns
    assert parse_xes(_xes_one_event(stamp)).traces["t"][0][1] == ns


def test_iso_timestamps_outside_int64_ns_are_rejected():
    latest = "2262-04-11T23:47:16.854775Z"
    log = parse_csv(f"case,activity,timestamp\nP1,A,1\nP1,B,{latest}\n")
    assert log.traces["P1"][1][1] == 2**63 - 808
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
    # The golden logs are canonical CSVs, and must re-serialize byte for byte.
    paths = sorted((Path(__file__).parent / "data").glob("*.csv"))
    assert len(paths) == 5
    for path in paths:
        assert to_canonical_csv(read_log(path, mapping=CANONICAL_MAPPING)).encode() == path.read_bytes(), path.name


def test_round_trip_quotes_line_breaks_in_fields():
    # Each field holding a CR, an LF or a CRLF is quoted, so no row splits.
    log = EventLog({
        f"P{i}{brk}x": ((f"A{brk}B", i), ("C", i + 1))
        for i, brk in enumerate(("\r", "\n", "\r\n"))
    })
    text = to_canonical_csv(log)
    for parse in (parse_csv, parse_csv_reference):
        assert parse(text, CANONICAL_MAPPING) == log


def test_parse_csv_skips_utf8_byte_order_mark(clinic_csv, clinic_log):
    with_bom = "\ufeff" + clinic_csv
    for parse in (parse_csv, parse_csv_reference):
        for source in (with_bom, with_bom.encode(), io.StringIO(with_bom), io.BytesIO(with_bom.encode())):
            assert parse(source) == clinic_log


def test_parse_csv_reads_bare_cr_line_ends(clinic_csv, clinic_log):
    bare_cr = clinic_csv.replace("\n", "\r")
    quoted = 'case,activity,timestamp,note\nP1,A,1,"two\rlines"\nP1,B,2,\n'
    for parse in (parse_csv, parse_csv_reference):
        for source in (bare_cr, bare_cr.encode()):
            assert parse(source) == clinic_log
        for source in (quoted.replace("\n", "\r"), quoted.replace("\n", "\r").encode()):
            assert parse(source) == parse(quoted)


def test_csv_errors_name_the_line():
    oversize = "case,activity,timestamp,note\nP1,A,1,x\nP1,B,2," + "y" * (csv.field_size_limit() + 1) + "\n"
    for parse in (parse_csv, parse_csv_reference):
        for source in (oversize, oversize.encode()):
            with pytest.raises(IngestError, match=r"^line 3: field larger than field limit \(131072\)$"):
                parse(source)


def _large_csv(seed: int) -> bytes:
    """A UTF-8 CSV of several hundred KiB, with a byte-order mark, CRLF line
    ends, multi-byte labels and quoted multi-line notes."""
    rng = random.Random(seed)
    labels = ["Aufnahme", "Prüfung", "検査", "Überweisung 🙂", "résumé", "A"]
    notes = ["", "ok", "zwei\r\nZeilen", "多行\n备注", 'sagt "grüß dich"', "x, y", "🙂" * 3]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["case", "activity", "timestamp", "note"])
    for _ in range(7000):
        stamp = f"2021-03-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z"
        writer.writerow([f"c{rng.randrange(700)}", rng.choice(labels), stamp, rng.choice(notes)])
    return ("\ufeff" + out.getvalue()).encode()


def test_parse_csv_decodes_across_chunk_boundaries():
    data = _large_csv(13)
    assert len(data) > 300 * 1024
    # The decode reads 8 KiB chunks. Some end inside a multi-byte character,
    # and some between a CR and its LF.
    ends = range(8192, len(data), 8192)
    assert any(0x80 <= data[i] < 0xC0 for i in ends)
    assert any(data[i - 1 : i + 1] == b"\r\n" for i in ends)
    log = parse_csv(data)
    assert log.event_count() == 7000
    assert log == parse_csv(data.decode("utf-8-sig"))
    assert log == parse_csv_reference(data)


def test_invalid_utf8_names_its_line():
    lines = ["case,activity,timestamp"] + [f"c{i},Prüfung,{i}" for i in range(20000)]
    data = "\r\n".join(lines).encode()
    bad = data.index(b"c15000,") + len("c15000,Pr")  # the first byte of the "ü" on line 15002
    for source, message in (
        (data[:bad] + b"\xff" + data[bad + 1 :], "invalid start byte"),
        (data[: bad + 1], "unexpected end of data"),
    ):
        for parse in (parse_csv, parse_csv_reference):
            with pytest.raises(IngestError, match=f"^line 15002: not UTF-8 \\({message}\\)$"):
                parse(source)


@pytest.mark.parametrize(
    "source",
    [
        # The bad byte comes after the first 8 KiB that the decode reads.
        b"case,activity,timestamp\nP1,A,noon\n" + b"P1,BBBBBBBBBBBB,1\n" * 600 + b"P1,\xff,1\n",
        "case,activity,timestamp\nP1,A,noon\nP1," + "x" * (csv.field_size_limit() + 1) + ",1\n",
        "case,activity,timestamp\nP1,A,noon\n,B,1\n",
    ],
    ids=["not-utf8", "oversize-field", "empty-case-id"],
)
def test_an_earlier_bad_timestamp_is_reported_first(source):
    for parse in (parse_csv, parse_csv_reference):
        with pytest.raises(IngestError, match=r"^row 2: unparseable timestamp 'noon'$"):
            parse(source)


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
    events = log.traces["case1"]
    assert [a for a, _ in events] == ["A", "B"]
    assert events[1][1] - events[0][1] == HOUR_NS


def test_parse_xes_single_event_trace():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(xml)
    assert len(log.traces["t"]) == 1


def test_parse_xes_with_namespace():
    xml = """<log xmlns="http://www.xes-standard.org/"><trace>
      <string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(xml)
    assert [a for a, _ in log.traces["t"]] == ["A"]


def test_parse_xes_missing_timestamp():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="A"/></event>
    </trace></log>"""
    with pytest.raises(IngestError, match="missing timestamp"):
        parse_xes(xml)


def test_parse_xes_missing_activity():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
    </trace></log>"""
    with pytest.raises(IngestError, match=r"^trace 1, event 1: missing activity \(concept:name\)$"):
        parse_xes(xml)


def test_parse_xes_skips_attributes_without_a_key_or_value():
    xml = """<log><trace><string key="concept:name" value="t"/>
      <event><string value="ignored"/><string key="org:resource"/>
      <string key="concept:name" value="A"/><date key="time:timestamp" value="2021-01-01T08:00:00Z"/>
      <string key="lifecycle:transition" value="complete"/></event>
    </trace></log>"""
    ((activity, _),) = parse_xes(xml).traces["t"]
    assert activity == "A"


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
    assert log.traces["case1"] == csv_log.traces["case1"]


def test_parse_xes_ignores_other_attributes():
    # Attributes of other types, empty ones, nested ones, one holding a CRLF,
    # and keys named like the canonical CSV's columns.
    xml = """<log><trace><string key="concept:name" value="c1"/><string key="case" value="x"/>
      <event><string key="org:resource" value=""/><string key="concept:name" value="A"/>
      <int key="cost" value="3"/><date key="time:timestamp" value="2021-01-01T08:00:00Z"/>
      <string key="timestamp" value="late"/><string key="activity" value="Z"/></event>
      <event><string key="concept:name" value="B"/><string key="note" value="two&#13;&#10;lines"/>
      <list key="tags"><string key="tag" value="t"/></list>
      <date key="time:timestamp" value="2021-01-01T09:00:00Z"/><string key="case" value="c2"/></event>
    </trace></log>"""
    narrow = """<log><trace><string key="concept:name" value="c1"/>
      <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
      <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2021-01-01T09:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(xml)
    assert log == parse_xes(narrow)
    assert log == parse_csv("case,activity,timestamp\nc1,A,2021-01-01T08:00:00Z\nc1,B,2021-01-01T09:00:00Z\n")
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log


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
    events = log.traces["case1"]
    assert [a for a, _ in events] == ["A", "B"]
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log


def test_parse_xes_merges_traces_of_one_case_and_skips_empty_ones():
    def trace(name, *events):
        body = "".join(
            f'<event><string key="concept:name" value="{a}"/>'
            f'<date key="time:timestamp" value="2021-01-01T0{h}:00:00Z"/></event>'
            for a, h in events
        )
        return f'<trace><string key="concept:name" value="{name}"/>{body}</trace>'

    xml = "<log>" + trace("t", ("A", 1)) + trace("e") + trace("u", ("X", 0)) + trace("t", ("B", 0), ("C", 1)) + "</log>"
    log = parse_xes(xml)
    # EventLog equality ignores dict order, so the case order is checked
    # on its own.
    assert list(log.traces) == ["t", "u"]
    assert len(log) == 2
    assert [a for a, _ in log.traces["t"]] == ["B", "A", "C"]


def test_parse_csv_keeps_cases_in_first_appearance_order():
    text = "case,activity,timestamp\nz,A,3\nb,A,1\nz,B,4\nm,A,0\nb,B,2\n"
    for parse in (parse_csv, parse_csv_reference):
        log = parse(text)
        assert list(log.traces) == ["z", "b", "m"]
        assert [a for a, _ in log.traces["z"]] == ["A", "B"]


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
# Years before 1677 or after 2262 fall outside int64 nanoseconds.
YEARS = st.one_of(st.integers(1970, 2100), st.integers(1600, 2400))
FRACTIONS = st.integers(0, 9).flatmap(lambda k: st.text("0123456789", min_size=k, max_size=k)).map(
    lambda digits: "." + digits if digits else ""
)


def _zones(colon):
    return st.one_of(
        st.sampled_from(["", "Z", f"+00{colon}00"]),
        st.builds(
            f"{{}}{{:02d}}{colon}{{:02d}}".format,
            st.sampled_from("+-"),
            st.integers(0, 14),
            st.sampled_from([0, 30, 45]),
        ),
    )


ISO_TIMESTAMPS = st.one_of(
    st.builds(  # extended format
        "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}".format,
        YEARS, st.integers(1, 12), st.integers(1, 28), st.sampled_from(["T", " "]),
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59), FRACTIONS, _zones(":"),
    ),
    st.builds(  # basic format
        "{:04d}{:02d}{:02d}T{:02d}{:02d}{:02d}{}{}".format,
        YEARS, st.integers(1, 12), st.integers(1, 28),
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59), FRACTIONS, _zones(""),
    ),
    st.builds(  # week date
        "{:04d}-W{:02d}-{}T{:02d}:{:02d}:{:02d}{}{}".format,
        YEARS, st.integers(1, 52), st.integers(1, 7),
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59), FRACTIONS, _zones(":"),
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
    unit = draw(st.sampled_from(sorted(NS_PER_UNIT)))
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
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
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


def _iso_rows(rows: int, seed: int) -> list[str]:
    """``rows`` CSV rows over 40 cases, with naive ISO-8601 stamps to the
    microsecond."""
    rng = random.Random(seed)
    return [
        f"c{rng.randrange(40)},{rng.choice('ABCDE')},"
        f"2021-03-{rng.randint(1, 28):02d}T10:{rng.randint(0, 59):02d}:00.{rng.randrange(10**6):06d}"
        for _ in range(rows)
    ]


def _csv(rows: list[str]) -> str:
    return "case,activity,timestamp\n" + "".join(row + "\n" for row in rows)


ODD_ROWS = [
    "c1,A,noon",  # unparseable
    "c1,A,2300-01-01T00:00:00",  # out of int64 range
    "c1,A,20210301",  # numeric under auto, though an ISO basic-format date too
    "c1,A,2021-03-01T10:00:00+01:00",  # aware among naive
    ",A,2021-03-01T10:00:00",  # empty case id
]


# Logs of about a thousand rows and of three thousand, each with an odd row
# put first, last, or at one of two rows in the middle.
@pytest.mark.parametrize("size", [1023, 1024, 1025, 3072])
def test_parse_csv_equals_reference_across_chunks(size, monkeypatch):
    rows = _iso_rows(size, seed=size)
    expected = parse_csv_reference(_csv(rows))
    # A log of ISO stamps is converted in parse_csv's own loop, never by
    # parse_timestamp_ns, in whatever unit its numbers would be read.
    with monkeypatch.context() as patch:
        patch.setattr(eventlog, "parse_timestamp_ns", None)
        for unit in NS_PER_UNIT:
            assert parse_csv(_csv(rows), ColumnMapping(number_unit=unit)) == expected
    assert parse_csv(_csv(rows).encode()) == expected
    for position in {1, 1024, 1025, size} & set(range(1, size + 1)):
        for odd in ODD_ROWS:
            text = _csv(rows[: position - 1] + [odd] + rows[position:])
            assert _outcome(parse_csv, text, None) == _outcome(parse_csv_reference, text, None)


@pytest.mark.parametrize(
    "odd, calls",
    [("c1,A,1.5", 1), ("c1,A,2021-03-01T10:00:00.5", 0)],
    ids=["one-numeric-stamp", "one-naive-stamp"],
)
def test_parse_csv_falls_back_for_the_odd_stamp_only(odd, calls, monkeypatch):
    # Aware stamps, so that the odd row is the only naive one.
    rows = [row + "Z" for row in _iso_rows(2500, seed=5)]
    text = _csv(rows[:1500] + [odd] + rows[1500:])
    expected = parse_csv_reference(text)
    seen = []

    def counting(*args):
        seen.append(args)
        return parse_timestamp_ns(*args)

    monkeypatch.setattr(eventlog, "parse_timestamp_ns", counting)
    assert parse_csv(text) == expected
    assert len(seen) == calls


@given(
    texts=st.lists(ISO_TIMESTAMPS, min_size=1, max_size=8) | st.lists(ANY_TIMESTAMP, max_size=8),
    fmt=st.sampled_from(["auto", "iso", "number"]),
    unit=st.sampled_from(["h", "ns"]),
)
@settings(max_examples=400)
# The int64-ns bounds, and one microsecond outside each.
@example(texts=["1677-09-21T00:12:43.145225Z", "2262-04-11T23:47:16.854775Z"], fmt="iso", unit="h")
@example(texts=["1677-09-21T00:12:43.145224Z"], fmt="auto", unit="h")
@example(texts=["2262-04-11T23:47:16.854776Z"], fmt="auto", unit="h")
# Before the epoch with a fraction: negative days, positive seconds and microseconds.
@example(texts=["1969-12-31T23:59:59.999999", "1969-12-31T23:59:59"], fmt="auto", unit="h")
# An offset that moves the stamp across the epoch.
@example(texts=["1970-01-01T00:30:00+01:00"], fmt="iso", unit="h")
# Digit text: zeros, the 19-digit int64 limit and one past it, a 19-digit
# text that overflows once scaled, 20 digits, 5,000 digits (float() reads
# them as inf; int() refuses them), non-ASCII digits, and an ISO
# basic-format date under iso.
@example(texts=["0", "0000", "0012"], fmt="auto", unit="h")
@example(texts=["9223372036854775807"], fmt="number", unit="ns")
@example(texts=["9223372036854775808"], fmt="number", unit="ns")
@example(texts=["1000000000000000000"], fmt="auto", unit="h")
@example(texts=["10000000000000000000"], fmt="auto", unit="ns")
@example(texts=["1" * 5000], fmt="number", unit="ns")
@example(texts=["１２３", "٤٥"], fmt="auto", unit="h")
@example(texts=["20200101"], fmt="iso", unit="h")
def test_parse_csv_timestamps_equal_parse_timestamp_ns(texts, fmt, unit):
    """``texts`` as the timestamps of one case's rows: parse_csv reads each
    as parse_timestamp_ns does, or raises its first error with the row."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["case", "activity", "timestamp"])
    writer.writerows(["c", "A", text] for text in texts)
    stamps = []
    for row_no, text in enumerate(texts, 2):
        try:
            if not text.strip():
                raise IngestError("missing timestamp")
            stamps.append(parse_timestamp_ns(text, fmt, unit))
        except IngestError as exc:
            expected = f"IngestError: row {row_no}: {exc}"
            break
    else:
        expected = EventLog({"c": tuple(("A", ts) for ts in sorted(stamps))} if texts else {})
    assert _outcome(parse_csv, out.getvalue(), ColumnMapping(timestamp_format=fmt, number_unit=unit)) == expected


def _xes(rows: list[str]) -> str:
    """The XES of CSV ``rows`` as :func:`_iso_rows` writes them: one
    trace per row, merged by case id on parsing."""
    traces = []
    for row in rows:
        case_id, activity, stamp = row.split(",")
        traces.append(
            f'<trace><string key="concept:name" value="{case_id}"/><event>'
            f'<string key="concept:name" value="{activity}"/>'
            f'<date key="time:timestamp" value="{stamp}"/></event></trace>'
        )
    return "<log>" + "".join(traces) + "</log>"


ROWS = _iso_rows(3073, seed=11)
BAD_MID_LOG = ROWS[:1029] + ["c1,A,noon"] + ROWS[1029:]


# The code of each build, under the decorator that pauses the collector.
BUILDS = {getattr(build, "__wrapped__", build).__code__ for build in (parse_csv, parse_xes, build_dfg)}


def _inside(codes, frame) -> bool:
    while frame is not None:
        if frame.f_code in codes:
            return True
        frame = frame.f_back
    return False


def _written(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "build, argument, raises",
    [
        (parse_csv, lambda tmp: _csv(ROWS), None),
        (parse_csv, lambda tmp: _csv(BAD_MID_LOG), IngestError),
        (parse_xes, lambda tmp: _xes(ROWS), None),
        (parse_xes, lambda tmp: _xes(ROWS)[:-1], IngestError),
        (build_dfg, lambda tmp: parse_csv(_csv(ROWS)), None),
        (build_dfg, lambda tmp: EventLog({"c1": (("A", 2), ("B", 1))}), ValueError),
        (read_log, lambda tmp: _written(tmp / "log.csv", _csv(ROWS)), None),
        (read_log, lambda tmp: _written(tmp / "log.xes", _xes(ROWS)[:-1]), IngestError),
    ],
    ids=["csv", "csv-bad-row", "xes", "xes-malformed", "dfg", "dfg-unsorted", "read-csv", "read-xes-malformed"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_ingest_pauses_the_collector_and_restores_its_state(build, argument, raises, enabled, tmp_path):
    """No cyclic collection starts while a log or DFG is built, and the
    collector is left as it was found, also when the build raises."""
    source = argument(tmp_path)
    starts = []

    def count(phase, info):
        # A collection that starts once a build has returned or raised, as
        # its exception's traceback is allocated, is not during the build.
        if phase == "start" and _inside(BUILDS, sys._getframe()):
            starts.append(info["generation"])

    thresholds = gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    # Each build allocates thousands of tracked objects, so at this
    # threshold an unpaused collector would start many collections.
    gc.set_threshold(100)
    gc.collect()
    gc.callbacks.append(count)
    try:
        try:
            build(source)
        except Exception as exc:
            assert type(exc) is raises
        else:
            assert raises is None
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert gc.isenabled() is enabled
    finally:
        gc.set_threshold(*thresholds)
        gc.enable()


# Two events of c1 share an instant; Y is read before X and stays first.
PAIR_ROWS = [
    "c1,C,2021-01-01T10:00:00Z",
    "c2,B,2021-01-01T08:00:00Z",
    "c1,Y,2021-01-01T09:00:00Z",
    "c1,X,2021-01-01T09:00:00Z",
    "c1,A,2021-01-01T08:30:00Z",
]


def _assert_time_ordered_pairs(log: EventLog) -> None:
    for events in log.traces.values():
        assert type(events) is tuple
        for event in events:
            assert type(event) is tuple and len(event) == 2
            assert type(event[0]) is str and type(event[1]) is int
        assert [ts for _, ts in events] == sorted(ts for _, ts in events)


def test_every_ingest_path_yields_activity_timestamp_pairs_in_stable_time_order():
    base = parse_timestamp_ns("2021-01-01T08:00:00Z", fmt="iso")
    expected = EventLog({
        "c1": (("A", base + HOUR_NS // 2), ("Y", base + HOUR_NS), ("X", base + HOUR_NS), ("C", base + 2 * HOUR_NS)),
        "c2": (("B", base),),
    })
    text = _csv(PAIR_ROWS)
    logs = [parse(source) for parse in (parse_csv, parse_csv_reference) for source in (text, text.encode())]
    logs += [parse_xes(_xes(PAIR_ROWS)), parse_csv(to_canonical_csv(expected), CANONICAL_MAPPING)]
    for log in logs:
        _assert_time_ordered_pairs(log)
        assert log == expected and list(log.traces) == ["c1", "c2"]

    generated = generate_log(profile_spec("skewed", 40), 3)
    reparsed = parse_csv(to_canonical_csv(generated), CANONICAL_MAPPING)
    for log in (generated, reparsed):
        _assert_time_ordered_pairs(log)
    assert reparsed == generated

    with pytest.raises(ValueError, match="^trace 'c1': events not sorted by timestamp$"):
        build_dfg(EventLog({"c1": (("A", 2), ("B", 1))}))


def _labels(log: EventLog) -> list[str]:
    return [activity for events in log.traces.values() for activity, _ in events]


def test_every_ingest_path_keeps_one_string_per_activity_label():
    # Labels of more than one character: CPython keeps a single copy of
    # each one-character string whoever makes it.
    rows = [row.replace(",", ",task ", 1) for row in ROWS]
    text = _csv(rows)
    expected = parse_csv_reference(text)
    # The oracle keeps one string per event, so the check below can fail.
    assert len({id(a) for a in _labels(expected)}) > len(set(_labels(expected)))
    logs = {
        "csv-str": parse_csv(text),
        "csv-bytes": parse_csv(text.encode()),
        "xes": parse_xes(_xes(rows)),
        "canonical": parse_csv(to_canonical_csv(expected), CANONICAL_MAPPING),
    }
    for name, log in logs.items():
        labels = _labels(log)
        assert len(labels) == len(ROWS), name
        assert len({id(a) for a in labels}) == len(set(labels)) == 5, name
        assert log == expected, name

    # The DFG does not depend on the labels being shared.
    log = logs["csv-str"]
    fresh = EventLog({
        case_id: tuple(((activity + ".")[:-1], ts) for activity, ts in events)
        for case_id, events in log.traces.items()
    })
    assert len({id(a) for a in _labels(fresh)}) == len(_labels(fresh))
    assert build_dfg(fresh) == build_dfg(log)

    unsorted = EventLog({**fresh.traces, "c99": (("task A", 5), ("task B", 1))})
    with pytest.raises(ValueError, match="^trace 'c99': events not sorted by timestamp$"):
        build_dfg(unsorted)


def test_column_mapping_rejects_an_unknown_timestamp_format():
    with pytest.raises(ValueError, match="^unknown timestamp format 'bogus'; expected one of auto, iso, number$"):
        ColumnMapping(timestamp_format="bogus")
    # Refused when the mapping is built, before any row reads the unit.
    with pytest.raises(ValueError, match=f"^{UNKNOWN_UNIT}$"):
        ColumnMapping(number_unit="fortnight")


def test_read_log_rejects_an_unknown_log_format(tmp_path):
    path = _written(tmp_path / "log.xes", _xes(PAIR_ROWS))
    with pytest.raises(ValueError, match="^unknown log format 'XES'; expected one of auto, csv, xes$"):
        read_log(path, fmt="XES")
    assert read_log(path, fmt="xes") == parse_xes(_xes(PAIR_ROWS))

"""Event-log ingestion: CSV and a pragmatic XES subset, normalized to one model.

Timestamps are stored as signed nanosecond counts from an epoch so that
round-tripping through the canonical CSV format is exact.
"""
from __future__ import annotations

import csv
import io
import math
import operator
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal

START_END = "--"

NS_PER_UNIT = {
    "ns": 1,
    "us": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
    "min": 60_000_000_000,
    "h": 3_600_000_000_000,
    "d": 86_400_000_000_000,
}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_ONE_US = timedelta(microseconds=1)
# A fraction of other than six digits. Python 3.10's fromisoformat takes
# only 3 or 6; later versions take any number and truncate to microseconds,
# as _six_digits does for every version.
_FRACTION_RE = re.compile(r"\.(?!\d{6}(?!\d))(\d+)")
# Products of a decimal and a unit are exact at this precision.
_EXACT = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
_BY_TIME = operator.attrgetter("timestamp_ns")


class IngestError(Exception):
    """Raised when an event-log source cannot be parsed."""


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp_ns: int
    extra_attrs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    case_id: str
    events: tuple[Event, ...]


@dataclass(frozen=True)
class EventLog:
    traces: dict[str, Trace]

    def __len__(self) -> int:
        return len(self.traces)

    def event_count(self) -> int:
        return sum(len(t.events) for t in self.traces.values())


@dataclass(frozen=True)
class ColumnMapping:
    """Names the case/activity/timestamp columns of a CSV source.

    ``timestamp_format`` is one of ``auto``, ``iso``, ``number``; numeric
    timestamps are interpreted in ``number_unit`` (default: hours).
    """

    case_col: str = "case"
    activity_col: str = "activity"
    timestamp_col: str = "timestamp"
    timestamp_format: str = "auto"
    number_unit: str = "h"


def _in_int64(ns: int, text: str) -> int:
    if not -(2**63) <= ns < 2**63:
        raise IngestError(f"timestamp {text!r} out of range")
    return ns


def _six_digits(fraction: re.Match) -> str:
    return "." + (fraction[1] + "00000")[:6]


def _parse_iso_ns(text: str) -> int:
    cleaned = text.strip().replace("Z", "+00:00")
    if "." in cleaned and _FRACTION_RE.search(cleaned):
        cleaned = _FRACTION_RE.sub(_six_digits, cleaned)
    try:
        dt = datetime.fromisoformat(cleaned)
    except ValueError:
        raise IngestError(f"unparseable timestamp {text!r}") from None
    # Naive timestamps are taken as UTC.
    return _in_int64((dt - (_NAIVE_EPOCH if dt.tzinfo is None else _EPOCH)) // _ONE_US * 1_000, text)


def _scale_number(text: str, value: float, factor: int) -> int:
    """``text``, which ``float()`` read as ``value``, times ``factor`` ns,
    exactly, then rounded half to even.
    """
    if not math.isfinite(value):
        raise IngestError(f"non-finite timestamp {text!r}")
    if not value:
        # float() reads 0.0 only below 5e-324, which rounds to 0 ns in any
        # unit. Decimal refuses exponents past about 10**18; float() reads
        # those as 0.0 or inf, so they never reach it.
        return 0
    return _in_int64(int(_EXACT.to_integral_value(_EXACT.multiply(Decimal(text), factor))), text)


def parse_timestamp_ns(text: str, fmt: str = "auto", number_unit: str = "h") -> int:
    """Parse a timestamp string to nanoseconds since the epoch.

    Numeric values (e.g. fractional hours) are scaled exactly by
    ``number_unit``; ISO-8601 values are resolved to UTC and truncated to
    the microsecond.
    """
    if number_unit not in NS_PER_UNIT:
        raise IngestError(f"unknown time unit {number_unit!r}")
    text = text.strip()
    if fmt in ("auto", "number"):
        try:
            value = float(text)
        except ValueError:
            if fmt == "number":
                raise IngestError(f"unparseable numeric timestamp {text!r}") from None
        else:
            return _scale_number(text, value, NS_PER_UNIT[number_unit])
    return _parse_iso_ns(text)


def _timestamp_parser(fmt: str, number_unit: str):
    """``parse_timestamp_ns`` for stripped text, with ``fmt`` and
    ``number_unit`` looked at once. An unknown unit still fails at the
    first timestamp parsed, as it does there.
    """
    factor = NS_PER_UNIT.get(number_unit)
    numeric = fmt in ("auto", "number")
    iso = fmt != "number"

    def parse(text: str) -> int:
        if factor is None:
            raise IngestError(f"unknown time unit {number_unit!r}")
        # float() accepts no ':' and every ISO time has one, so such text
        # skips a float() that could only fail.
        if numeric and ":" not in text:
            try:
                value = float(text)
            except ValueError:
                pass
            else:
                return _scale_number(text, value, factor)
        if not iso:
            raise IngestError(f"unparseable numeric timestamp {text!r}")
        return _parse_iso_ns(text)

    return parse


def _validate_activity(activity: str, where: str) -> str:
    if not activity:
        raise IngestError(f"{where}: empty activity label")
    if activity == START_END:
        raise IngestError(f"{where}: activity label {START_END!r} is reserved")
    return activity


def _assemble(rows: list[Event]) -> EventLog:
    by_case: dict[str, list[Event]] = {}
    for ev in rows:
        events = by_case.get(ev.case_id)
        if events is None:
            by_case[ev.case_id] = [ev]
        else:
            events.append(ev)
    # sorted() is stable: equal timestamps keep their input order.
    traces = {
        case_id: Trace(case_id, tuple(sorted(events, key=_BY_TIME)))
        for case_id, events in by_case.items()
    }
    return EventLog(traces)


def _as_text(source) -> io.StringIO:
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, str):
        return io.StringIO(source)
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return io.StringIO(data)


def parse_csv(source, mapping: ColumnMapping | None = None) -> EventLog:
    """Parse a comma-separated event log into a normalized :class:`EventLog`.

    The first row is the header; unknown columns are preserved per event in
    ``extra_attrs``. Empty cells of unknown columns are treated as absent.
    Blank lines are skipped and not counted in the ``row N`` of an error,
    missing cells of a short row read as empty, and a repeated header name
    reads its last column. :func:`parse_csv_reference` is the oracle.
    """
    mapping = mapping or ColumnMapping()
    rows = csv.reader(_as_text(source))
    header = next(rows, None)
    if header is None:
        return EventLog({})
    mapped = (mapping.case_col, mapping.activity_col, mapping.timestamp_col)
    for col in mapped:
        if col not in header:
            raise IngestError(f"row 1: missing mapped column {col!r}")
    column = {name: i for i, name in enumerate(header)}
    case_i, activity_i, ts_i = (column[col] for col in mapped)
    extra_cols = [(name, column[name]) for name in dict.fromkeys(header) if name not in mapped]
    width = len(header)
    parse_ts = _timestamp_parser(mapping.timestamp_format, mapping.number_unit)

    events: list[Event] = []
    append = events.append
    row_no = 1
    for row in rows:
        if not row:
            continue
        row_no += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        case_id = row[case_i].strip()
        if not case_id:
            raise IngestError(f"row {row_no}: empty case id")
        activity = row[activity_i].strip()
        if not activity or activity == START_END:
            _validate_activity(activity, f"row {row_no}")
        ts_text = row[ts_i].strip()
        if not ts_text:
            raise IngestError(f"row {row_no}: missing timestamp")
        try:
            ts = parse_ts(ts_text)
        except IngestError as exc:
            raise IngestError(f"row {row_no}: {exc}") from None
        extras = {name: row[i] for name, i in extra_cols if row[i]} if extra_cols else {}
        append(Event(case_id, activity, ts, extras))
    return _assemble(events)


def parse_csv_reference(source, mapping: ColumnMapping | None = None) -> EventLog:
    """:func:`parse_csv` through ``csv.DictReader`` and
    :func:`parse_timestamp_ns`, one dict and one full timestamp check per
    row: the plain implementation, kept as the oracle of its tests.
    """
    mapping = mapping or ColumnMapping()
    reader = csv.DictReader(_as_text(source))
    if reader.fieldnames is None:
        return EventLog({})
    header = list(reader.fieldnames)
    for col in (mapping.case_col, mapping.activity_col, mapping.timestamp_col):
        if col not in header:
            raise IngestError(f"row 1: missing mapped column {col!r}")
    extra_cols = [c for c in header if c not in (mapping.case_col, mapping.activity_col, mapping.timestamp_col)]

    events: list[Event] = []
    for row_no, row in enumerate(reader, start=2):
        where = f"row {row_no}"
        case_id = (row.get(mapping.case_col) or "").strip()
        if not case_id:
            raise IngestError(f"{where}: empty case id")
        activity = _validate_activity((row.get(mapping.activity_col) or "").strip(), where)
        ts_text = row.get(mapping.timestamp_col)
        if ts_text is None or not ts_text.strip():
            raise IngestError(f"{where}: missing timestamp")
        try:
            ts = parse_timestamp_ns(ts_text, mapping.timestamp_format, mapping.number_unit)
        except IngestError as exc:
            raise IngestError(f"{where}: {exc}") from None
        extras = {c: row[c] for c in extra_cols if c in row and row[c] not in (None, "")}
        events.append(Event(case_id, activity, ts, extras))
    return _assemble(events)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(source) -> EventLog:
    """Parse the IEEE 1849 XES subset: traces with concept:name, events with
    concept:name and time:timestamp. Other non-empty event attributes
    (lifecycle etc.) are passed through in ``extra_attrs``, never
    interpreted. Case ids and activity labels are stripped, as in
    :func:`parse_csv`, so the canonical CSV of the log re-parses to it.
    """
    data = source if isinstance(source, (bytes, str)) else source.read()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise IngestError(f"malformed XES document: {exc}") from None

    events: list[Event] = []
    trace_no = 0
    for elem in root:
        if _local(elem.tag) != "trace":
            continue
        trace_no += 1
        case_id = None
        for child in elem:
            if _local(child.tag) == "string" and child.get("key") == "concept:name":
                case_id = (child.get("value") or "").strip()
                break
        if not case_id:
            raise IngestError(f"trace {trace_no}: missing concept:name")
        event_no = 0
        for ev_elem in elem:
            if _local(ev_elem.tag) != "event":
                continue
            event_no += 1
            where = f"trace {trace_no}, event {event_no}"
            activity = None
            ts = None
            extras: dict[str, str] = {}
            for attr in ev_elem:
                key = attr.get("key")
                value = attr.get("value")
                if key is None or value is None:
                    continue
                if key == "concept:name":
                    activity = value.strip()
                elif key == "time:timestamp":
                    try:
                        ts = _parse_iso_ns(value)
                    except IngestError as exc:
                        raise IngestError(f"{where}: {exc}") from None
                elif value:
                    extras[key] = value
            if activity is None:
                raise IngestError(f"{where}: missing activity (concept:name)")
            if ts is None:
                raise IngestError(f"{where}: missing timestamp")
            _validate_activity(activity, where)
            events.append(Event(case_id, activity, ts, extras))
    return _assemble(events)


def to_canonical_csv(log: EventLog) -> str:
    """Serialize to the canonical CSV format (timestamps as integer ns).

    Re-parsing with ``ColumnMapping(number_unit="ns")`` reproduces the log
    exactly.
    """
    extra_keys = sorted({k for t in log.traces.values() for e in t.events for k in e.extra_attrs})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case", "activity", "timestamp", *extra_keys])
    for case_id in sorted(log.traces):
        for ev in log.traces[case_id].events:
            writer.writerow(
                [ev.case_id, ev.activity, str(ev.timestamp_ns)]
                + [ev.extra_attrs.get(k, "") for k in extra_keys]
            )
    return out.getvalue()


CANONICAL_MAPPING = ColumnMapping(timestamp_format="number", number_unit="ns")

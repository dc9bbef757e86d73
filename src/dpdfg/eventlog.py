"""Event-log ingestion: CSV and a pragmatic XES subset, normalized to one model.

Timestamps are stored as signed nanosecond counts from an epoch so that
round-tripping through the canonical CSV format is exact.
"""
from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone

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
_FRACTION_RE = re.compile(r"(\.\d{6})\d+")
# Sign and at most 19 significant digits: a longer integer is out of int64
# range in any unit, and int() refuses strings of over 4300 digits.
_INTEGER_RE = re.compile(r"([+-]?)0*(\d{1,19})")


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


def _parse_iso_ns(text: str) -> int:
    cleaned = text.strip().replace("Z", "+00:00")
    cleaned = _FRACTION_RE.sub(r"\1", cleaned)
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return (delta.days * 86_400 + delta.seconds) * 1_000_000_000 + delta.microseconds * 1_000


def parse_timestamp_ns(text: str, fmt: str = "auto", number_unit: str = "h") -> int:
    """Parse a timestamp string to nanoseconds since the epoch.

    Numeric values (e.g. fractional hours) are scaled by ``number_unit``;
    ISO-8601 values are resolved to UTC.
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
            if not math.isfinite(value):
                raise IngestError(f"non-finite timestamp {text!r}")
            scaled = value * NS_PER_UNIT[number_unit]
            integer = _INTEGER_RE.fullmatch(text) if abs(scaled) >= 2**53 else None
            if integer:
                # Past 2**53 a float drops bits; integer strings scale exactly.
                scaled = int(integer[1] + integer[2]) * NS_PER_UNIT[number_unit]
            if not -(2**63) <= scaled < 2**63:
                raise IngestError(f"timestamp {text!r} out of range")
            return round(scaled)
    try:
        return _parse_iso_ns(text)
    except ValueError:
        raise IngestError(f"unparseable timestamp {text!r}") from None


def _validate_activity(activity: str, where: str) -> str:
    if not activity:
        raise IngestError(f"{where}: empty activity label")
    if activity == START_END:
        raise IngestError(f"{where}: activity label {START_END!r} is reserved")
    return activity


def _assemble(rows: list[Event]) -> EventLog:
    by_case: dict[str, list[Event]] = {}
    for ev in rows:
        by_case.setdefault(ev.case_id, []).append(ev)
    traces = {
        case_id: Trace(case_id, tuple(sorted(events, key=lambda e: e.timestamp_ns)))
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
    concept:name and time:timestamp. Other event attributes (lifecycle etc.)
    are passed through in ``extra_attrs``, never interpreted.
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
                case_id = child.get("value")
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
                    activity = value
                elif key == "time:timestamp":
                    try:
                        ts = _parse_iso_ns(value)
                    except ValueError:
                        raise IngestError(f"{where}: unparseable timestamp {value!r}") from None
                else:
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

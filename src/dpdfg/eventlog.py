"""Event-log ingestion: CSV and a pragmatic XES subset, normalized to one model.

Timestamps are stored as signed nanosecond counts from an epoch so that
round-tripping through the canonical CSV format is exact.
"""
from __future__ import annotations

import csv
import functools
import gc
import io
import math
import operator
from collections import defaultdict
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path
from types import GenericAlias, SimpleNamespace
from typing import Collection, NamedTuple

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

TIMESTAMP_FORMATS = ("auto", "iso", "number")
LOG_FORMATS = ("auto", "csv", "xes")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_ONE_US = timedelta(microseconds=1)
# Products of a decimal and a unit are exact at this precision.
_EXACT = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
_BY_TIME = operator.itemgetter(1)
_fromisoformat = datetime.fromisoformat


class IngestError(Exception):
    """Raised when an event-log source cannot be parsed."""


# A field's kind is a type, a tuple of types, [kind] for a list of kind,
# or tuple[kind, ...] for a tuple of kind; a bool is no number.
_NUMBER = (int, float)
_INT_OR_NULL = (int, type(None))
_TYPE_NAMES = {list: "a list", bool: "a bool", str: "a string", int: "an integer", dict: "an object", _NUMBER: "a number",
               _INT_OR_NULL: "an integer or null"}


def _check_type(what: str, value, kind) -> None:
    if isinstance(kind, (list, GenericAlias)):
        container, item_kind = (list, kind[0]) if isinstance(kind, list) else (kind.__origin__, kind.__args__[0])
        _check_type(what, value, container)
        for item in value:
            _check_type(f"{what} item", item, item_kind)
    elif not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        name = _TYPE_NAMES.get(kind) or f"{'an' if kind.__name__[0] in 'AEIO' else 'a'} {kind.__name__}"
        raise TypeError(f"{what} must be {name}, got {value!r}")


class _Checked:
    """First base of a record, a named tuple, whose class checks its fields
    on every build: a call of the class, ``_make``, and so ``_replace``.
    Each field in the class's ``_kinds`` holds a value of its kind, or None
    if None is its default; then the record's ``_checked`` raises on a bad
    field and returns the record, or the ``_replace`` that fills one in."""

    __slots__ = ()
    _kinds: dict = {}

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._kinds_checked()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._kinds_checked()

    def _kinds_checked(self):
        for name, kind in self._kinds.items():
            if (value := getattr(self, name)) is not None or self._field_defaults.get(name, 0) is not None:
                _check_type(name, value, kind)
        return self._checked()


class _EventLog(NamedTuple):
    traces: dict[str, tuple[tuple[str, int], ...]]


class EventLog(_EventLog):
    """Case id -> its events, ``(activity, timestamp_ns)`` pairs in time
    order; cases in first-appearance order."""

    __slots__ = ()
    # len() is the case count, which the named tuple's _make (and so
    # _replace) would check against the field count.
    _make = classmethod(tuple.__new__)

    def __len__(self) -> int:
        return len(self.traces)

    def event_count(self) -> int:
        return sum(map(len, self.traces.values()))


class _ColumnMapping(NamedTuple):
    case_col: str = "case"
    activity_col: str = "activity"
    timestamp_col: str = "timestamp"
    timestamp_format: str = "auto"
    number_unit: str = "h"


class ColumnMapping(_Checked, _ColumnMapping):
    """Names the case/activity/timestamp columns of a CSV source.

    ``timestamp_format`` is one of ``auto``, ``iso``, ``number``; numeric
    timestamps are interpreted in ``number_unit``, a key of ``NS_PER_UNIT``
    (default: hours).
    """

    __slots__ = ()

    def _checked(self) -> ColumnMapping:
        _check_choice("timestamp format", self.timestamp_format, TIMESTAMP_FORMATS)
        _check_choice("time unit", self.number_unit, NS_PER_UNIT)
        return self


def _check_choice(what: str, value: str, allowed: Collection[str]) -> None:
    if value not in allowed:
        raise ValueError(f"unknown {what} {value!r}; expected one of {', '.join(allowed)}")


def collector_paused(build):
    """``build`` with the cyclic garbage collector paused while it runs.

    Building a log or a DFG makes tens of thousands of long-lived, acyclic
    containers, so the collections they would start find no garbage; a
    cycle left by an error is collected after the pause. The pause is
    process-wide: other threads' automatic collections wait for it too.
    The collector's state is restored as it was found, also when ``build``
    raises, so a caller that disabled it keeps it disabled.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _in_int64(ns: int, text: str) -> int:
    if not -(2**63) <= ns < 2**63:
        raise IngestError(f"timestamp {text!r} out of range")
    return ns


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
    ``number_unit``; ISO-8601 values are read by ``datetime.fromisoformat``,
    resolved to UTC and truncated to the microsecond.
    """
    _check_choice("timestamp format", fmt, TIMESTAMP_FORMATS)
    _check_choice("time unit", number_unit, NS_PER_UNIT)
    text = text.strip()
    # float() accepts no ':' and every extended-format ISO time has one, so
    # such text skips a float() that could only fail.
    if fmt in ("auto", "number") and ":" not in text:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            return _scale_number(text, value, NS_PER_UNIT[number_unit])
    if fmt == "number":
        raise IngestError(f"unparseable numeric timestamp {text!r}")
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise IngestError(f"unparseable timestamp {text!r}") from None
    # Naive timestamps are taken as UTC.
    return _in_int64((dt - (_NAIVE_EPOCH if dt.tzinfo is None else _EPOCH)) // _ONE_US * 1_000, text)


def _validate_activity(activity: str, where: str) -> str:
    if not activity:
        raise IngestError(f"{where}: empty activity label")
    if activity == START_END:
        raise IngestError(f"{where}: activity label {START_END!r} is reserved")
    return activity


def _sorted_log(by_case: dict[str, list[tuple[str, int]]]) -> EventLog:
    # Each case's list is sorted in place, and stably: equal timestamps keep
    # their input order.
    for events in by_case.values():
        events.sort(key=_BY_TIME)
    return EventLog({case_id: tuple(events) for case_id, events in by_case.items()})


def _as_text(source) -> io.TextIOBase:
    """The text of a CSV source, without a leading byte-order mark, as a
    stream that ``csv`` reads with its line ends untranslated. Bytes are
    decoded as they are read."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, bytes):
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    return io.StringIO(data.removeprefix("\ufeff"), newline="")


@contextmanager
def _read_errors(text: io.TextIOBase, reader):
    """Raise what reading ``text`` through the csv ``reader`` raises as an
    :class:`IngestError` that names the line."""
    try:
        yield
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # The streamed decode reports a position inside its chunk, so the
        # whole source is decoded again to find the line of the bad byte.
        data = text.buffer.getvalue()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise IngestError(f"line {line}: not UTF-8 ({exc.reason})") from None
        raise


@collector_paused
def parse_csv(source, mapping: ColumnMapping | None = None) -> EventLog:
    """Parse a comma-separated event log into a normalized :class:`EventLog`.

    The first row is the header; unknown columns are ignored. Blank lines
    are skipped and not counted in the ``row N`` of an error, missing cells
    of a short row read as empty, and a repeated header name reads its last
    column. Lines may end in LF, CRLF or CR. Bytes that are
    not UTF-8, or a field longer than ``csv.field_size_limit()``, raise an
    :class:`IngestError` that names the line. Each row's timestamp is
    converted as the row is read, so errors are raised in row order: ISO
    text directly, the rest by :func:`parse_timestamp_ns`, which gives the
    same value. :func:`parse_csv_reference` is the oracle.
    """
    mapping = mapping or ColumnMapping()
    text = _as_text(source)
    rows = csv.reader(text)
    with _read_errors(text, rows):
        header = next(rows, None)
        if header is None:
            return EventLog({})
        mapped = (mapping.case_col, mapping.activity_col, mapping.timestamp_col)
        for col in mapped:
            if col not in header:
                raise IngestError(f"row 1: missing mapped column {col!r}")
        column = {name: i for i, name in enumerate(header)}
        case_i, activity_i, ts_i = (column[col] for col in mapped)
        width = len(header)
        fmt, unit = mapping.timestamp_format, mapping.number_unit
        # parse_timestamp_ns reads text with datetime.fromisoformat if fmt is
        # iso, or auto and the text holds ':'; the loop converts such text
        # itself, without the call.
        iso_only, iso_if_colon = fmt == "iso", fmt == "auto"

        by_case: defaultdict[str, list[tuple[str, int]]] = defaultdict(list)
        # One string per distinct activity label, so a log of 10**6 events
        # over tens of labels holds tens of label strings.
        labels: dict[str, str] = {}
        label = labels.setdefault
        row_no = 1
        for row in rows:
            if not row:
                continue
            row_no += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            case_id = row[case_i].strip()
            activity = row[activity_i].strip()
            ts_text = row[ts_i].strip()
            if not (case_id and activity and ts_text) or activity == START_END:
                if not case_id:
                    raise IngestError(f"row {row_no}: empty case id")
                _validate_activity(activity, f"row {row_no}")
                raise IngestError(f"row {row_no}: missing timestamp")
            ts = None
            if iso_only or iso_if_colon and ":" in ts_text:
                try:
                    dt = _fromisoformat(ts_text)
                except ValueError:
                    pass
                else:
                    # A timedelta is normalised (0 <= seconds < 86400 and
                    # 0 <= microseconds < 10**6), so its fields give exactly
                    # parse_timestamp_ns's `// _ONE_US * 1_000` for either sign.
                    gap = dt - (_NAIVE_EPOCH if dt.tzinfo is None else _EPOCH)
                    ts = (gap.days * 86_400 + gap.seconds) * 1_000_000_000 + gap.microseconds * 1_000
                    if not -(2**63) <= ts < 2**63:
                        ts = None
            if ts is None:
                try:
                    ts = parse_timestamp_ns(ts_text, fmt, unit)
                except IngestError as exc:
                    raise IngestError(f"row {row_no}: {exc}") from None
            by_case[case_id].append((label(activity, activity), ts))
    return _sorted_log(by_case)


def parse_csv_reference(source, mapping: ColumnMapping | None = None) -> EventLog:
    """:func:`parse_csv` through ``csv.DictReader``, one dict per row: the
    plain implementation, kept as the oracle of its tests.
    """
    mapping = mapping or ColumnMapping()
    text = _as_text(source)
    reader = csv.DictReader(text)
    # DictReader's own line_num lags a row that fails to read.
    with _read_errors(text, reader.reader):
        if reader.fieldnames is None:
            return EventLog({})
        header = list(reader.fieldnames)
        for col in (mapping.case_col, mapping.activity_col, mapping.timestamp_col):
            if col not in header:
                raise IngestError(f"row 1: missing mapped column {col!r}")

        by_case: defaultdict[str, list[tuple[str, int]]] = defaultdict(list)
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
            by_case[case_id].append((activity, ts))
    return _sorted_log(by_case)


def _children(elem, tag: str):
    """The children of ``elem`` named ``tag``, in any namespace."""
    return (child for child in elem if child.tag.rsplit("}", 1)[-1] == tag)


@collector_paused
def parse_xes(source) -> EventLog:
    """Parse the IEEE 1849 XES subset: traces with concept:name, events with
    concept:name and time:timestamp. Other attributes (lifecycle etc.) are
    ignored. Case ids and activity labels are stripped, as in
    :func:`parse_csv`, so the canonical CSV of the log re-parses to it.
    """
    # Only XES input needs the XML parser, so only it imports one.
    import xml.etree.ElementTree as ET

    data = source if isinstance(source, (bytes, str)) else source.read()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise IngestError(f"malformed XES document: {exc}") from None

    # Traces that share a concept:name merge; a trace without events adds no case.
    by_case: defaultdict[str, list[tuple[str, int]]] = defaultdict(list)
    # One string per distinct activity label, as in parse_csv.
    labels: dict[str, str] = {}
    for trace_no, elem in enumerate(_children(root, "trace"), start=1):
        case_id = next(
            (c.get("value") or "" for c in _children(elem, "string") if c.get("key") == "concept:name"), ""
        ).strip()
        if not case_id:
            raise IngestError(f"trace {trace_no}: missing concept:name")
        for event_no, ev_elem in enumerate(_children(elem, "event"), start=1):
            where = f"trace {trace_no}, event {event_no}"
            activity = None
            ts = None
            for attr in ev_elem:
                key = attr.get("key")
                value = attr.get("value")
                if key is None or value is None:
                    continue
                if key == "concept:name":
                    activity = value.strip()
                elif key == "time:timestamp":
                    try:
                        ts = parse_timestamp_ns(value, "iso")
                    except IngestError as exc:
                        raise IngestError(f"{where}: {exc}") from None
            if activity is None:
                raise IngestError(f"{where}: missing activity (concept:name)")
            if ts is None:
                raise IngestError(f"{where}: missing timestamp")
            _validate_activity(activity, where)
            by_case[case_id].append((labels.setdefault(activity, activity), ts))
    return _sorted_log(by_case)


def read_log(path, fmt: str = "auto", mapping: ColumnMapping | None = None) -> EventLog:
    """The log at ``path``: XES if ``fmt`` is ``xes``, or ``auto`` and the
    name ends in ``.xes``; else CSV read with ``mapping``. ``fmt`` is one of
    ``auto``, ``csv``, ``xes``."""
    _check_choice("log format", fmt, LOG_FORMATS)
    data = Path(path).read_bytes()
    if fmt == "xes" or (fmt == "auto" and str(path).lower().endswith(".xes")):
        return parse_xes(data)
    return parse_csv(data, mapping)


def to_canonical_csv(log: EventLog) -> str:
    """Serialize to the canonical CSV format: the columns ``case``,
    ``activity`` and ``timestamp`` (integer ns).

    Re-parsing with ``ColumnMapping(number_unit="ns")`` reproduces the log
    exactly.
    """
    rows: list[str] = []
    # Rows end in CRLF so that the writer quotes a field holding a CR or an
    # LF: Python 3.11 quotes only the characters of its line terminator.
    # Each row's CRLF then becomes the canonical LF.
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    writer.writerow(["case", "activity", "timestamp"])
    for case_id in sorted(log.traces):
        for activity, ts in log.traces[case_id]:
            writer.writerow([case_id, activity, str(ts)])
    return "".join(row[:-2] + "\n" for row in rows)


CANONICAL_MAPPING = ColumnMapping(timestamp_format="number", number_unit="ns")

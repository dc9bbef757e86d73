"""Correctness checks on the program's outputs.

Each check raises :class:`CheckFailed` with a reason; an op whose output
fails a check counts as failed. Expected values come from the log
generator, never from the program under test.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json

from loggen import NS_PER_UNIT, START_END

# delta_from_epsilon_* reproduce the target advantage only up to float
# rounding (observed: 0.1 comes back as 0.10000000000000009).
DELTA_SLACK = 1e-12
GAP_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output that a correct program cannot produce."""


def check_anonymize(text: str, expect: dict) -> None:
    """Check an ``emit_json`` report of a P1 disclosure against the
    generator's DFG: ``expect`` holds ``aggregation``, ``delta`` and
    ``edges`` as ``[source, target, frequency, max_gap_ns]`` rows."""
    report = json.loads(text)
    if report["mode"] != "P1" or report["aggregation"] != expect["aggregation"]:
        raise CheckFailed(f"unexpected mode/aggregation {report['mode']}/{report['aggregation']}")
    frequency = expect["aggregation"] == "frequency"
    wanted = {
        (src, dst): (freq, gap)
        for src, dst, freq, gap in expect["edges"]
        if frequency or START_END not in (src, dst)
    }
    got = {(e["source"], e["target"]): e for e in report["edges"]}
    if len(got) != len(report["edges"]):
        raise CheckFailed("duplicate edges in report")
    if got.keys() != wanted.keys():
        missing, extra = len(wanted.keys() - got.keys()), len(got.keys() - wanted.keys())
        raise CheckFailed(f"edge set differs from the log: {missing} missing, {extra} extra")

    delta = expect["delta"]
    for key, edge in got.items():
        freq, gap_ns = wanted[key]
        if frequency:
            if edge["true_value"] != freq:
                raise CheckFailed(f"edge {key}: frequency {edge['true_value']} != {freq}")
            released = edge["released_value"]
            if not (float(released).is_integer() and released >= 1):
                raise CheckFailed(f"edge {key}: released frequency {released} is not an integer >= 1")
        else:
            true_gap = gap_ns / NS_PER_UNIT[report["time_unit"]]
            if abs(edge["true_value"] - true_gap) > GAP_REL_TOL * true_gap:
                raise CheckFailed(f"edge {key}: max {edge['true_value']} != {true_gap} {report['time_unit']}")
        if not edge["edge_delta"] <= delta + DELTA_SLACK:
            raise CheckFailed(f"edge {key}: edge_delta {edge['edge_delta']} > delta {delta}")
    if report["overall_delta"] != max(e["edge_delta"] for e in report["edges"]):
        raise CheckFailed("overall_delta is not the maximum edge_delta")


def check_sweep(text: str, header: list[str], cells: list[tuple[str, str, str, float]]) -> None:
    """Check a ``run_sweep`` grid: the header, one row per expected
    ``(log, aggregation, mode, param)`` cell in grid order, no ``ERROR``
    row, and every P1 ``max_delta`` within its target."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckFailed(f"grid header {rows[:1]} != {header}")
    body = rows[1:]
    if len(body) != len(cells):
        raise CheckFailed(f"{len(body)} grid rows, expected {len(cells)}")
    col = {name: i for i, name in enumerate(header)}
    for row, (log, agg, mode, param) in zip(body, cells):
        if row[col["error"]]:
            raise CheckFailed(f"cell {log}/{agg}/{mode}/{param}: {row[col['error']]}")
        cell = [row[col[name]] for name in ("log", "aggregation", "mode", "param")]
        if cell != [log, agg, mode, repr(param)]:
            raise CheckFailed(f"row {cell} out of grid order, expected {[log, agg, mode, repr(param)]}")
        if mode == "P1" and not float(row[col["max_delta"]]) <= param + DELTA_SLACK:
            raise CheckFailed(f"cell {log}/{agg}/P1/{param}: max_delta {row[col['max_delta']]} > delta")


def sweep_digest_text(text: str, header: list[str]) -> str:
    """The grid with its ``wall_clock_ms`` column blanked: the part of a
    sweep's output that must be byte-identical across runs."""
    rows = list(csv.reader(io.StringIO(text)))
    clock = header.index("wall_clock_ms")
    for row in rows[1:]:
        row[clock] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

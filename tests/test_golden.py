"""Golden-output gate: sha256 digests of the seeded JSON, CSV and DOT
releases and of one sweep grid.

The seeded outputs are the invariant a refactor must keep byte-identical
(see ROADMAP "Quality of design"). Each digest covers one (log, mode)
pair over all five aggregations, with the virtual start/end edges kept and
dropped, at ``runs=3``. A change that alters these bytes on purpose must
say which bytes change and why, and re-pin the digests with
``PYTHONPATH=src python tests/test_golden.py``.

The synthetic logs are read from canonical CSVs in ``tests/data``, so a
change to the generator moves no digest here. They were written by the
numpy-based ``dpdfg.bench.generate_log`` of earlier versions at seed 2020:
``simple``, ``skewed`` and ``unique`` at their profile sizes, and
``simple-30`` and ``unique-20`` at 30 and 20 traces.

The digests were taken with CPython 3.11 on x86-64 Linux. ``sum`` of floats
and the libm behind ``math.log``/``math.exp`` can differ in the last bit
elsewhere.
"""
from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path

import pytest

from dpdfg import CANONICAL_MAPPING, AggregationKind, Mode, RiskParams, UtilityParams, build_dfg, parse_csv, read_log
from dpdfg.bench import GRID_HEADER, LogSource, SweepSpec, run_sweep
from dpdfg.pipeline import DisclosureRequest, disclose, emit_csv, emit_dot, emit_json

from conftest import clinic_csv_text

DATA = Path(__file__).parent / "data"
PRECISION = 0.1
SEED = 7
RUNS = 3
LOGS = ("clinic", "simple", "skewed", "unique")
MODES = {
    "P1-0.05": (Mode.P1, 0.05),
    "P1-0.4": (Mode.P1, 0.4),
    "P1-0.99": (Mode.P1, 0.99),
    "P2-0.1": (Mode.P2, 0.1),
    "P2-0.5": (Mode.P2, 0.5),
}

GOLDEN = {
    ("clinic", "P1-0.05"): "19a66ceeea0158f0bd6848a2a44e09762c91d21ed7e53231b2f04f59c0410d62",
    ("clinic", "P1-0.4"): "9a42a27b1046b8f010bf0d399a83a3a62569dd504ae70d6112f288d8dd06b5b1",
    ("clinic", "P1-0.99"): "03cd295712d913724162841e0473aaf1225d7f6fd6002e00cfd4f0e8c06e2f11",
    ("clinic", "P2-0.1"): "31bff049c407dff9e780ba44a6f5e6fe3dbcc4b9d44f8ea6e7096217b9aa49a1",
    ("clinic", "P2-0.5"): "d526fb60900d45bdf2c2d1a5595b98f8505f57b360596eadf11fc829c03d5250",
    ("simple", "P1-0.05"): "cd34e03a503b6f24c68ab568b29ea7d1232542ebdc456fb34d6ceae2ec5d1568",
    ("simple", "P1-0.4"): "db1459c53860d456e1d61d778ad93a3bb6ccc2439fe056ac7236f0e823514e9a",
    ("simple", "P1-0.99"): "2cbb86e0c55fc63b8ea85e62f96d0ee2d383ad1e4b75cf9505f8e1ab45679201",
    ("simple", "P2-0.1"): "f2ea4eb61012368f028ef8281f240ab41e03be98f5667d0f624886b7dbd16bc5",
    ("simple", "P2-0.5"): "9ea15deee65bd7c3da1e928974e1fcabbeec631216f0dd6884ec83952cee433c",
    ("skewed", "P1-0.05"): "2732cd444beff022c571300364f41bebe0767f907c1d3bc0998b2fd4876c4f00",
    ("skewed", "P1-0.4"): "5424d1ce55d9bd46cc602d40ff02cb7db58992934bf62b901c19f9bbe371383a",
    ("skewed", "P1-0.99"): "7fefcdfd584de8e3ae1b6d0fd6b03b7c7a68f35ca86b0d42746a2a2b95f1be0e",
    ("skewed", "P2-0.1"): "fcd6c9f80add835c360fbbc48b7a2d5dcf846f561de5adb2b4259f3b3ba40165",
    ("skewed", "P2-0.5"): "dd034b9c72abd30b0f36d0fca9ac447c690e8135c68cec220f316f2eaa624851",
    ("unique", "P1-0.05"): "8c3569e51d9bc50033aff4dcbb8f68c1f4550140f9d174148283252f6f74613e",
    ("unique", "P1-0.4"): "3cd5d349a1da668ba1efc945b90cc0451eb1fb0eedcc1eaeaed003ff6d23f8a3",
    ("unique", "P1-0.99"): "565eb7fe7b561be6b8f90a3e2fda978a418bbf7b51131ec6e09c2b37cb47209e",
    ("unique", "P2-0.1"): "b4dc139b717fc1387b6a0278f4e5a9972d144d7efa195c649940c15c7ca152eb",
    ("unique", "P2-0.5"): "dbef4a41dbcd58647e7037201e5dc9fe138bdf4fb2b0795f431393a9d3984957",
}
GOLDEN_SWEEP = "ee25e87c0f5fa94113bcd340d0a5849a7f2ff4ed7115f8530209d877425c0a1a"


def _dfg(name: str):
    if name == "clinic":
        return build_dfg(parse_csv(clinic_csv_text()))
    return build_dfg(read_log(DATA / f"{name}.csv", mapping=CANONICAL_MAPPING))


def _request(mode: Mode, param: float, kind: AggregationKind, include_boundary_time: bool) -> DisclosureRequest:
    p1 = mode is Mode.P1
    return DisclosureRequest(
        mode=mode,
        aggregation=kind,
        risk=RiskParams(param, PRECISION) if p1 else None,
        utility=None if p1 else UtilityParams(param),
        precision=PRECISION,
        seed=SEED,
        runs=RUNS,
        include_boundary_time=include_boundary_time,
    )


def release_digest(dfg, mode: Mode, param: float) -> str:
    digest = hashlib.sha256()
    for kind in AggregationKind:
        for include_boundary_time in (False, True):
            digest.update(f"## {kind.value} boundary={include_boundary_time}\n".encode())
            try:
                annotated, report = disclose(dfg, _request(mode, param, kind, include_boundary_time))
            except ValueError as exc:
                digest.update(f"ERROR: {exc}\n".encode())
                continue
            for text in (
                emit_json(report),
                emit_csv(report),
                emit_dot(annotated),
                emit_dot(annotated, report, annotate_debug=True),
            ):
                digest.update(text.encode())
    return digest.hexdigest()


class CanonicalLog(LogSource):
    """A sweep log read from a canonical CSV, whose timestamps are integer
    nanoseconds (a plain ``path`` source would read them as hours)."""

    def load(self, default_seed: int):
        return read_log(self.path, mapping=CANONICAL_MAPPING)


def sweep_digest() -> str:
    spec = SweepSpec(
        logs=(
            CanonicalLog("simple", path=str(DATA / "simple-30.csv")),
            CanonicalLog("unique", path=str(DATA / "unique-20.csv")),
        ),
        deltas=(0.05, 0.4, 0.99),
        mapes=(0.1, 0.5),
        runs=RUNS,
        seed=SEED,
        precision=PRECISION,
    )
    rows = list(csv.reader(io.StringIO(run_sweep(spec))))
    assert rows[0] == GRID_HEADER
    clock = GRID_HEADER.index("wall_clock_ms")
    text = "\n".join(",".join(r[:clock] + r[clock + 1:]) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def dfgs():
    return {name: _dfg(name) for name in LOGS}


@pytest.mark.parametrize("log_name", LOGS)
@pytest.mark.parametrize("label", MODES)
def test_golden_release_digest(dfgs, log_name, label):
    mode, param = MODES[label]
    assert release_digest(dfgs[log_name], mode, param) == GOLDEN[(log_name, label)]


def test_golden_sweep_digest():
    assert sweep_digest() == GOLDEN_SWEEP


if __name__ == "__main__":
    print("GOLDEN = {")
    for log_name in LOGS:
        dfg = _dfg(log_name)
        for label, (mode, param) in MODES.items():
            print(f'    ("{log_name}", "{label}"): "{release_digest(dfg, mode, param)}",')
    print("}")
    print(f'GOLDEN_SWEEP = "{sweep_digest()}"')

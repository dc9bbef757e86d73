"""Golden-output gate: sha256 digests of the seeded JSON, CSV and DOT
releases and of one sweep grid.

The seeded outputs are the invariant a refactor must keep byte-identical
(see ROADMAP "Quality of design"). Each digest covers one (log, mode)
pair over all five aggregations, with the virtual start/end edges kept and
dropped, at ``runs=3``. A change that alters these bytes on purpose must
say which bytes change and why, and re-pin the digests with
``PYTHONPATH=src python tests/test_golden.py``, which prints the current
digests and then each pinned one that differs, with its old and new value.

One more digest pins the calibration alone: the same JSON reports with
every noise-derived field dropped (``NOISE_FIELDS`` of each edge and the
report's ``mape`` and ``smape``). A change to the noise draws moves the
release and sweep digests but must leave this one as it is.

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
import json
from pathlib import Path

import pytest

from dpdfg import CANONICAL_MAPPING, AggregationKind, Mode, RiskParams, UtilityParams, build_dfg, parse_csv, read_log
from dpdfg.bench import GRID_HEADER, LogSource, SweepSpec, run_sweep
from dpdfg.pipeline import DisclosureRequest, disclose, emit_csv, emit_dot, emit_json, report_to_dict

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
    ("clinic", "P1-0.05"): "48852a12bbf3b33d4537c61b1421df6ffa01a60d7bd3fb58282067fe7b4476ba",
    ("clinic", "P1-0.4"): "56ce844bafb8389af3d000e158286448f5edd8dcf0772812e07e8773ec76c046",
    ("clinic", "P1-0.99"): "d86e48030b139d06c11303e02e0dcc45cfdc9024db75e6e57a1bb503edfa969b",
    ("clinic", "P2-0.1"): "e063512f00490428d7a92224ec360ddf3c8d31e022071ec7c93dac4211174b85",
    ("clinic", "P2-0.5"): "ba9b1defccb08451d0a94847a2609f49df2136551cce44215a032bba2bbdf351",
    ("simple", "P1-0.05"): "ffb49938a753625e18cb7f0f9bb9e2223d00bb50decbce072cee0bc2b5a7e3a3",
    ("simple", "P1-0.4"): "ef9140d362939ae3c9354e284724a30722dc9e22421642173910876c254932e2",
    ("simple", "P1-0.99"): "5b16bb7d8eeee4064705cb8f4dc04bc50ee0e69596aaa407670805a31cdd0cab",
    ("simple", "P2-0.1"): "100598c0fec14f2a79c125c5ae2ba668ef268a43af37fb0ba5288961f362483e",
    ("simple", "P2-0.5"): "b0b5e51868e54cfa4178e649390b314da9bd406a39f66c403a2fed99f45c7293",
    ("skewed", "P1-0.05"): "521695ce06f553243f5ab3b3b9d72bd2c26ac3a1b1c6cd5a64c4cb2d91932745",
    ("skewed", "P1-0.4"): "2395262fde39e0a0306699bff5b84707179bf12190cf2a91134a380e29248bc4",
    ("skewed", "P1-0.99"): "ad9164c8d975b2ed3f6e2860c5391702d6a39edb113b2cbd5d4ba26fcd45c1b8",
    ("skewed", "P2-0.1"): "697451ae630b4ee501f251ca83a3b3c2b12fc5196213cc48572d1991b5f33153",
    ("skewed", "P2-0.5"): "668572a4055635e1d5993d4fbd6ef396c54948bcc2e28d397c2f0997b4b920b2",
    ("unique", "P1-0.05"): "734a89df108ad92f0ee05dfb440615a612fbb206af9437d52088e7ae2fb6a3bc",
    ("unique", "P1-0.4"): "239e01a606ec794abe3fbd82070a867afd802fdcc83762845ee1632a56d7bf1a",
    ("unique", "P1-0.99"): "3762c47008e34e1826d8cace1cd404cc7e3ac0c0889542ec23473db7af3fb8da",
    ("unique", "P2-0.1"): "d5eba29e08a06a94745c43a8518d37f7bbc28ec6bdee8f52692574b598babf6d",
    ("unique", "P2-0.5"): "64467581e91f1c5a8e72d2f26635cdb3746ef32661e1bc4de1b5d10e0c0e4921",
}
GOLDEN_SWEEP = "f4e62c247f11739628421d55c47497140ad3757e4649d4e447165af4d10cf3bf"
GOLDEN_CALIBRATION = "fbf8199850ed9a155908a47b8ba1341cec0a47ccf4112eca4c9a5634ee49fc5f"


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


def disclosures(dfg, mode: Mode, param: float):
    """Each aggregation and boundary choice of one (log, mode) pair: its
    header line and what ``disclose`` returned, or the ``ValueError`` it
    raised."""
    for kind in AggregationKind:
        for include_boundary_time in (False, True):
            header = f"## {kind.value} boundary={include_boundary_time}\n"
            try:
                result = disclose(dfg, _request(mode, param, kind, include_boundary_time))
            except ValueError as exc:
                result = exc
            yield header, result


def release_digest(dfg, mode: Mode, param: float) -> str:
    digest = hashlib.sha256()
    for header, result in disclosures(dfg, mode, param):
        digest.update(header.encode())
        if isinstance(result, ValueError):
            digest.update(f"ERROR: {result}\n".encode())
            continue
        annotated, report = result
        for text in (
            emit_json(report),
            emit_csv(report),
            emit_dot(annotated),
            emit_dot(annotated, report, annotate_debug=True),
        ):
            digest.update(text.encode())
    return digest.hexdigest()


# The per-edge fields that the noise draws decide.
NOISE_FIELDS = ("noisy_value", "released_value", "ape", "released_ape")


def calibration_json(report) -> str:
    """The JSON report without its noise-derived fields."""
    data = report_to_dict(report)
    del data["mape"], data["smape"]
    data["edges"] = [{k: v for k, v in edge.items() if k not in NOISE_FIELDS} for edge in data["edges"]]
    return json.dumps(data, indent=2) + "\n"


def calibration_digest(dfgs: dict) -> str:
    digest = hashlib.sha256()
    for log_name in LOGS:
        for label, (mode, param) in MODES.items():
            digest.update(f"# {log_name} {label}\n".encode())
            for header, result in disclosures(dfgs[log_name], mode, param):
                text = f"ERROR: {result}\n" if isinstance(result, ValueError) else calibration_json(result[1])
                digest.update((header + text).encode())
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


def test_golden_calibration_digest(dfgs):
    assert calibration_digest(dfgs) == GOLDEN_CALIBRATION


if __name__ == "__main__":
    dfgs = {name: _dfg(name) for name in LOGS}
    current = {
        (log_name, label): release_digest(dfgs[log_name], mode, param)
        for log_name in LOGS
        for label, (mode, param) in MODES.items()
    }
    print("GOLDEN = {")
    for key, value in current.items():
        print(f'    ("{key[0]}", "{key[1]}"): "{value}",')
    print("}")
    sweep, calibration = sweep_digest(), calibration_digest(dfgs)
    print(f'GOLDEN_SWEEP = "{sweep}"')
    print(f'GOLDEN_CALIBRATION = "{calibration}"')
    pinned = [(f"{log_name} {label}", GOLDEN[log_name, label], value) for (log_name, label), value in current.items()]
    pinned += [("sweep", GOLDEN_SWEEP, sweep), ("calibration", GOLDEN_CALIBRATION, calibration)]
    moved = [(name, old, new) for name, old, new in pinned if old != new]
    print(f"# {len(moved)} of {len(pinned)} pinned digests differ")
    for name, old, new in moved:
        print(f"# {name}: {old} -> {new}")

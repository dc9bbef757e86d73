"""The benchmark's workloads: which logs each one generates and what one op
does with them. Why each was chosen is in ``README.md`` and
``BENCHMARK.json``. Importing this module does not import ``dpdfg``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import loggen


def skewed(cases: int) -> loggen.LogShape:
    """Eight activities, twelve Zipf variants (exponent 1.6): 46 edges; the
    largest non-boundary edge takes about 0.57 occurrences per case."""
    return loggen.LogShape(cases, activities=8, variants=12, structure_seed=16)


def sparse(cases: int) -> loggen.LogShape:
    """Forty activities and a path of its own for every case: most edges
    have one or two occurrences, so most time edges are degenerate."""
    return loggen.LogShape(cases, activities=40, variants=None, structure_seed=11)


SWEEP_AGGREGATIONS = ("frequency", "max", "avg")
SWEEP_DELTAS = (0.05, 0.4)
SWEEP_MAPES = (0.1, 0.5)
RUNS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    logs: tuple[tuple[str, loggen.LogShape], ...]
    # anonymize-* only: the P1 request of one op
    aggregation: str | None = None
    delta: float | None = None
    runs: int = 1

    def sweep_cells(self) -> list[tuple[str, str, str, float]]:
        """The sweep grid in ``run_sweep`` order: per log and aggregation,
        the P1 deltas, then the P2 error targets."""
        return [
            (log, agg, mode, param)
            for log, _ in self.logs
            for agg in SWEEP_AGGREGATIONS
            for mode, params in (("P1", SWEEP_DELTAS), ("P2", SWEEP_MAPES))
            for param in params
        ]

    @property
    def cells_per_op(self) -> int:
        return 1 if self.aggregation else len(self.sweep_cells())

    @property
    def program_module(self) -> str:
        """The program module an op needs: the ``dpdfg`` package (every
        layer but ``bench``) for anonymize, ``dpdfg.bench`` for the sweep."""
        return "dpdfg" if self.aggregation else "dpdfg.bench"

    @property
    def parsed_input(self) -> bool:
        """Whether the op's input is held as parsed event logs (the sweep)
        rather than as CSV bytes."""
        return not self.aggregation


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "anonymize-freq",
            (("log", skewed(4000)),),
            aggregation="frequency",
            delta=0.1,
        ),
        Workload(
            "anonymize-time",
            (("log", skewed(1500)),),
            aggregation="max",
            delta=0.1,
            runs=RUNS,
        ),
        Workload(
            "sweep-grid",
            (("sparse", sparse(80)), ("skewed", skewed(120))),
            runs=RUNS,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: Path) -> dict:
    """Generate the workload's logs into ``workdir`` (one CSV per log) with
    ``expected.json``, the generator's own DFG facts; return the shapes."""
    workdir.mkdir(parents=True, exist_ok=True)
    shapes, expected = {}, {}
    for log_name, shape in workload.logs:
        log = loggen.generate(shape, seed)
        (workdir / f"{log_name}.csv").write_text(log.csv_text, encoding="utf-8")
        shapes[log_name] = log.shape()
        expected[log_name] = [
            [src, dst, freq, log.max_gap_ns[(src, dst)]]
            for (src, dst), freq in sorted(log.frequencies.items())
        ]
    (workdir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return shapes

"""Seeded event-log generator for the benchmark workloads.

Writes ISO-8601 UTC CSV logs (``case,activity,timestamp``) and computes, on
its own, the directly-follows counts and largest gaps that a correct DFG of
the log must show. It imports nothing from ``dpdfg``, so it can serve as the
oracle for the program's output.

The variant paths of a shape are drawn from its fixed ``structure_seed`` and
every variant gets an exact Zipf quota of cases, so edge counts and
per-edge occurrence counts are the same for every workload seed. The
workload seed drives the rest: which case follows which path, case start
times, gaps, outliers and row order. Keeping the per-edge occurrence counts
fixed keeps the cost of an op steady across seeds, since calibration cost
grows with the square of an edge's occurrence count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

START_END = "--"

US_PER_HOUR = 3_600_000_000
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# Case start times fall in [2020-01-01, 2029-01-01); the longest trace the
# gap distribution can produce stays far below the year left before 2030.
FIRST_START_US = (datetime(2020, 1, 1, tzinfo=timezone.utc) - EPOCH) // timedelta(microseconds=1)
LAST_START_US = (datetime(2029, 1, 1, tzinfo=timezone.utc) - EPOCH) // timedelta(microseconds=1)

NS_PER_UNIT = {
    "ns": 1,
    "us": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
    "min": 60_000_000_000,
    "h": 3_600_000_000_000,
    "d": 86_400_000_000_000,
}


# Paths have 3 to 8 events. Variant popularity is Zipf with this exponent.
# Gaps are lognormal in hours (log-mean 0, log-sigma 1), and 2% of them are
# stretched 80-fold, so most edges have a few far outliers.
MIN_LEN, MAX_LEN = 3, 8
ZIPF_EXPONENT = 1.6
GAP_LOG_SIGMA = 1.0
OUTLIER_RATE = 0.02
OUTLIER_MULTIPLIER = 80.0


@dataclass(frozen=True)
class LogShape:
    """Size and structure of a generated log. ``variants=None`` gives every
    case its own path (a sparse log with many small edges); otherwise cases
    share ``variants`` paths with Zipf popularity."""

    cases: int
    activities: int
    variants: int | None
    structure_seed: int


@dataclass
class GeneratedLog:
    csv_text: str
    cases: int
    events: int
    frequencies: dict[tuple[str, str], int]
    max_gap_ns: dict[tuple[str, str], int]

    def shape(self) -> dict:
        return {
            "cases": self.cases,
            "events": self.events,
            "csv_bytes": len(self.csv_text.encode("utf-8")),
            "edges": len(self.frequencies),
            "max_occurrences": max(self.frequencies.values()),
        }


def _paths(shape: LogShape) -> list[list[str]]:
    rng = random.Random(shape.structure_seed)
    names = [f"act_{i:02d}" for i in range(shape.activities)]
    count = shape.cases if shape.variants is None else shape.variants
    return [
        [rng.choice(names) for _ in range(rng.randint(MIN_LEN, MAX_LEN))]
        for _ in range(count)
    ]


def zipf_quotas(cases: int, variants: int, exponent: float) -> list[int]:
    """Cases per variant, proportional to rank**-exponent, summing to
    ``cases`` (largest-remainder rounding)."""
    weights = [(rank + 1) ** -exponent for rank in range(variants)]
    total = sum(weights)
    exact = [cases * w / total for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(variants), key=lambda v: quotas[v] - exact[v])
    for v in by_remainder[: cases - sum(quotas)]:
        quotas[v] += 1
    return quotas


def iso_utc(us: int) -> str:
    return (EPOCH + timedelta(microseconds=us)).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def generate(shape: LogShape, seed: int) -> GeneratedLog:
    """Generate one log; the same (shape, seed) gives the same bytes."""
    rng = random.Random(seed)
    paths = _paths(shape)
    if shape.variants is None:
        path_of_case = list(range(shape.cases))
    else:
        quotas = zipf_quotas(shape.cases, shape.variants, ZIPF_EXPONENT)
        path_of_case = [v for v, quota in enumerate(quotas) for _ in range(quota)]
    rng.shuffle(path_of_case)

    rows: list[tuple[int, str, str]] = []
    frequencies: dict[tuple[str, str], int] = {}
    max_gap_ns: dict[tuple[str, str], int] = {}

    def count(edge: tuple[str, str], gap_ns: int) -> None:
        frequencies[edge] = frequencies.get(edge, 0) + 1
        if gap_ns > max_gap_ns.get(edge, -1):
            max_gap_ns[edge] = gap_ns

    for case_no, path_idx in enumerate(path_of_case):
        case_id = f"c{case_no:06d}"
        path = paths[path_idx]
        now = rng.randrange(FIRST_START_US, LAST_START_US)
        rows.append((now, case_id, path[0]))
        count((START_END, path[0]), 0)
        for prev, cur in zip(path, path[1:]):
            hours = rng.lognormvariate(0.0, GAP_LOG_SIGMA)
            if rng.random() < OUTLIER_RATE:
                hours *= OUTLIER_MULTIPLIER
            gap_us = max(1, round(hours * US_PER_HOUR))
            now += gap_us
            rows.append((now, case_id, cur))
            count((prev, cur), gap_us * 1_000)
        count((path[-1], START_END), 0)

    # Like an export from a process-aware system: rows in time order, cases
    # interleaved. Timestamps are unique within a case, so the order of
    # events inside a trace is unambiguous.
    rows.sort()
    lines = ["case,activity,timestamp"]
    lines.extend(f"{case_id},{activity},{iso_utc(us)}" for us, case_id, activity in rows)
    return GeneratedLog(
        csv_text="\n".join(lines) + "\n",
        cases=shape.cases,
        events=len(rows),
        frequencies=frequencies,
        max_gap_ns=max_gap_ns,
    )

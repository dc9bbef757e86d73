"""Desk-scale evaluation harness: synthetic event-log generation and
parameter sweeps producing grid CSVs for trade-off plots.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from .dfg import AggregationKind, Dfg, build_dfg, ordered_sum
from .eventlog import NS_PER_UNIT, Event, EventLog, Trace, parse_csv, parse_xes
from .noise import DEFAULT_SEED
from .pipeline import DisclosureRequest, Mode, disclose
from .risk import UNBOUNDED, RiskParams
from .utility import UtilityParams

DEFAULT_DELTAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_MAPES = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)

GRID_HEADER = [
    "log",
    "aggregation",
    "mode",
    "param",
    "median_epsilon",
    "mape",
    "mape_se",
    "smape",
    "smape_se",
    "median_delta",
    "max_delta",
    "wall_clock_ms",
    "error",
]


@dataclass(frozen=True)
class SyntheticLogSpec:
    """Generator knobs for a synthetic event log.

    ``n_variants=None`` draws a fresh activity sequence per trace (variant
    count ~ trace count). Durations are lognormal, in hours; a fraction
    ``outlier_rate`` of them is stretched by ``outlier_multiplier``.
    """

    trace_count: int
    n_activities: int = 6
    n_variants: int | None = 4
    variant_distribution: str = "uniform"
    zipf_exponent: float = 1.5
    duration_log_mean: float = 0.0
    duration_log_sigma: float = 1.0
    outlier_rate: float = 0.0
    outlier_multiplier: float = 50.0
    min_trace_len: int = 3
    max_trace_len: int = 8

    def __post_init__(self) -> None:
        if self.trace_count <= 0:
            raise ValueError("empty log: trace_count must be positive")
        if self.n_activities < 1:
            raise ValueError("n_activities must be positive")
        if self.n_variants is not None and self.n_variants < 1:
            raise ValueError("n_variants must be positive")
        if self.variant_distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown variant distribution {self.variant_distribution!r}")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be in [0,1]")
        if not 1 <= self.min_trace_len <= self.max_trace_len:
            raise ValueError("trace length bounds must satisfy 1 <= min <= max")


@dataclass
class GenerationStats:
    variant_of_trace: list[int]
    outlier_edges: dict[tuple[str, str], int] = field(default_factory=dict)


def _draw_variant(rng: np.random.Generator, spec: SyntheticLogSpec) -> list[str]:
    length = int(rng.integers(spec.min_trace_len, spec.max_trace_len + 1))
    return [f"a{int(i):02d}" for i in rng.integers(0, spec.n_activities, size=length)]


def synthesize(spec: SyntheticLogSpec, seed: int) -> tuple[EventLog, GenerationStats]:
    """Deterministically generate an event log plus generation metadata."""
    rng = np.random.default_rng(seed)
    if spec.n_variants is None:
        variants = [_draw_variant(rng, spec) for _ in range(spec.trace_count)]
        assignment = list(range(spec.trace_count))
    else:
        variants = [_draw_variant(rng, spec) for _ in range(spec.n_variants)]
        if spec.variant_distribution == "zipf":
            weights = np.arange(1, spec.n_variants + 1, dtype=float) ** (-spec.zipf_exponent)
            weights /= weights.sum()
        else:
            weights = np.full(spec.n_variants, 1.0 / spec.n_variants)
        assignment = [int(v) for v in rng.choice(spec.n_variants, size=spec.trace_count, p=weights)]

    stats = GenerationStats(variant_of_trace=assignment)
    traces: dict[str, Trace] = {}
    hour_ns = NS_PER_UNIT["h"]
    for idx, variant_idx in enumerate(assignment):
        sequence = variants[variant_idx]
        case_id = f"c{idx:05d}"
        # One case starts per day, which keeps about 100,000 cases inside
        # int64 nanoseconds. Cases may overlap in time; a DFG only sees the
        # gaps within a case.
        start_ns = idx * NS_PER_UNIT["d"]
        events = [Event(case_id, sequence[0], start_ns)]
        now = start_ns
        for prev, cur in zip(sequence, sequence[1:]):
            gap_h = float(rng.lognormal(spec.duration_log_mean, spec.duration_log_sigma))
            if spec.outlier_rate > 0.0 and rng.random() < spec.outlier_rate:
                gap_h *= spec.outlier_multiplier
                key = (prev, cur)
                stats.outlier_edges[key] = stats.outlier_edges.get(key, 0) + 1
            now += round(gap_h * hour_ns)
            events.append(Event(case_id, cur, now))
        traces[case_id] = Trace(case_id, tuple(events))
    return EventLog(traces), stats


def generate_log(spec: SyntheticLogSpec, seed: int) -> EventLog:
    return synthesize(spec, seed)[0]


PROFILES: dict[str, SyntheticLogSpec] = {
    # One variant shared by every case: large per-edge occurrence counts.
    # The narrow duration spread keeps min-aggregation epsilons small enough
    # that the advantage stays below its no-noise ceiling across a sweep.
    "simple": SyntheticLogSpec(
        trace_count=80, n_activities=6, n_variants=1,
        duration_log_sigma=0.35, min_trace_len=6, max_trace_len=6,
    ),
    # Right-skewed variant popularity with duration outliers.
    "skewed": SyntheticLogSpec(
        trace_count=120, n_activities=8, n_variants=12,
        variant_distribution="zipf", zipf_exponent=1.6,
        duration_log_sigma=1.0, outlier_rate=0.02, outlier_multiplier=80.0,
    ),
    # Almost every case follows its own path: sparse, degenerate-heavy edges.
    "unique": SyntheticLogSpec(
        trace_count=60, n_activities=10, n_variants=None,
        duration_log_sigma=1.0,
    ),
}


def profile_spec(name: str, trace_count: int | None = None) -> SyntheticLogSpec:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    spec = PROFILES[name]
    return spec if trace_count is None else replace(spec, trace_count=trace_count)


@dataclass(frozen=True)
class LogSource:
    name: str
    path: str | None = None
    synthetic: SyntheticLogSpec | None = None
    gen_seed: int | None = None

    def load(self, default_seed: int) -> EventLog:
        if self.path is not None:
            data = Path(self.path).read_bytes()
            if self.path.lower().endswith(".xes"):
                return parse_xes(data)
            return parse_csv(data)
        assert self.synthetic is not None
        seed = self.gen_seed if self.gen_seed is not None else default_seed
        return generate_log(self.synthetic, seed)


@dataclass(frozen=True)
class SweepSpec:
    logs: tuple[LogSource, ...]
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    mapes: tuple[float, ...] = DEFAULT_MAPES
    aggregations: tuple[AggregationKind, ...] = tuple(AggregationKind)
    runs: int = 10
    seed: int = DEFAULT_SEED
    precision: float = 0.5
    beta: float = 0.05
    include_boundary_time: bool = False

    def __post_init__(self) -> None:
        if not self.logs:
            raise ValueError("sweep needs at least one log")
        if not self.deltas and not self.mapes:
            raise ValueError("sweep needs at least one parameter grid")
        if not self.aggregations:
            raise ValueError("sweep needs at least one aggregation")
        names = [source.name for source in self.logs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"sweep log names must be unique, repeated: {', '.join(duplicates)}")

    @classmethod
    def from_dict(cls, config: dict) -> "SweepSpec":
        sources = []
        for i, entry in enumerate(config["logs"]):
            if isinstance(entry, str):
                sources.append(LogSource(name=Path(entry).stem, path=entry))
            elif "profile" in entry:
                spec = profile_spec(entry["profile"], entry.get("traces"))
                sources.append(
                    LogSource(name=entry.get("name", entry["profile"]), synthetic=spec,
                              gen_seed=entry.get("gen_seed"))
                )
            elif "path" in entry:
                sources.append(LogSource(name=entry.get("name", Path(entry["path"]).stem), path=entry["path"]))
            else:
                spec = SyntheticLogSpec(**entry["synthetic"])
                sources.append(
                    LogSource(name=entry.get("name", f"synthetic{i}"), synthetic=spec,
                              gen_seed=entry.get("gen_seed"))
                )
        kwargs = {}
        for key in ("deltas", "mapes", "runs", "seed", "precision", "beta", "include_boundary_time"):
            if key in config:
                kwargs[key] = tuple(config[key]) if key in ("deltas", "mapes") else config[key]
        if "aggregations" in config:
            kwargs["aggregations"] = tuple(AggregationKind.parse(a) for a in config["aggregations"])
        return cls(logs=tuple(sources), **kwargs)


def _se(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = ordered_sum(values) / len(values)
    var = ordered_sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return (var / len(values)) ** 0.5


def _measure(dfg: Dfg, spec: SweepSpec, aggregation: AggregationKind, mode: Mode, param: float) -> list[str]:
    """The measured columns of one grid row, from ``median_epsilon`` to an
    empty ``error``."""
    p1 = mode is Mode.P1
    request = DisclosureRequest(
        mode=mode,
        aggregation=aggregation,
        risk=RiskParams(param, spec.precision) if p1 else None,
        utility=None if p1 else UtilityParams(param, spec.beta),
        precision=spec.precision,
        seed=spec.seed,
        runs=spec.runs,
        include_boundary_time=spec.include_boundary_time,
    )
    _, report = disclose(dfg, request)
    med_eps = report.median_epsilon
    return [
        "unbounded" if med_eps == UNBOUNDED else repr(med_eps),
        repr(report.mape),
        repr(_se(report.run_mapes)),
        repr(report.smape),
        repr(_se(report.run_smapes)),
        repr(median(e.edge_delta for e in report.edges)),
        repr(report.overall_delta),
        f"{report.runtime_ms:.3f}",
        "",
    ]


def run_sweep(spec: SweepSpec, threads: int = 1) -> str:
    """Run the full grid and render it as CSV: one row per
    (log, aggregation, parameter value), in specification order. A log
    that fails to load, or a cell that fails, gives rows whose measured
    columns are empty and whose ``error`` says why; the sweep goes on.

    ``threads`` is accepted for compatibility and ignored: cells are
    evaluated serially.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GRID_HEADER)
    params = [(Mode.P1, delta) for delta in spec.deltas] + [(Mode.P2, target) for target in spec.mapes]
    for source in spec.logs:
        try:
            dfg, failure = build_dfg(source.load(spec.seed)), None
        except Exception as exc:
            dfg, failure = None, exc
        for agg in spec.aggregations:
            for mode, param in params:
                row = [source.name, agg.value, mode.value, repr(param)]
                try:
                    if failure is not None:
                        raise failure
                    row += _measure(dfg, spec, agg, mode, param)
                except Exception as exc:
                    row += [""] * (len(GRID_HEADER) - len(row) - 1) + [f"ERROR: {exc}"]
                writer.writerow(row)
    return out.getvalue()

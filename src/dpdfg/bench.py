"""Desk-scale evaluation harness: synthetic event-log generation and
parameter sweeps producing grid CSVs for trade-off plots.
"""
from __future__ import annotations

import csv
import io
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

from .dfg import AggregationKind, build_dfg, median, ordered_sum
from .eventlog import NS_PER_UNIT, _INT_OR_NULL, _NUMBER, EventLog, _check_type, _Checked, read_log
from .noise import DEFAULT_SEED
from .pipeline import DisclosureRequest, Mode, PreparedDfg, prepare, release, show_epsilon
from .risk import DEFAULT_PRECISION, RiskParams
from .utility import DEFAULT_BETA, UtilityParams

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


class _SyntheticLogSpec(NamedTuple):
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


class SyntheticLogSpec(_Checked, _SyntheticLogSpec):
    """Generator knobs for a synthetic event log.

    ``n_variants=None`` draws a fresh activity sequence per trace (variant
    count ~ trace count). Durations are lognormal, in hours; a fraction
    ``outlier_rate`` of them is stretched by ``outlier_multiplier``, which
    must be positive.
    """

    __slots__ = ()
    _kinds = {"trace_count": int, "n_activities": int, "n_variants": _INT_OR_NULL, "variant_distribution": str,
              "zipf_exponent": _NUMBER, "duration_log_mean": _NUMBER, "duration_log_sigma": _NUMBER,
              "outlier_rate": _NUMBER, "outlier_multiplier": _NUMBER, "min_trace_len": int, "max_trace_len": int}

    def _checked(self) -> SyntheticLogSpec:
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
        for name in ("zipf_exponent", "duration_log_mean", "duration_log_sigma", "outlier_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration_log_sigma < 0:
            raise ValueError(f"duration_log_sigma must be non-negative, got {self.duration_log_sigma}")
        if self.outlier_multiplier <= 0:
            raise ValueError(f"outlier_multiplier must be positive, got {self.outlier_multiplier}")
        return self


def _draw_variant(rng: random.Random, spec: SyntheticLogSpec) -> list[str]:
    length = rng.randint(spec.min_trace_len, spec.max_trace_len)
    return [f"a{rng.randrange(spec.n_activities):02d}" for _ in range(length)]


def generate_log(spec: SyntheticLogSpec, seed: int) -> EventLog:
    """Deterministically generate an event log.

    ``seed`` must be non-negative: ``random.Random`` seeds -3 as it seeds 3.
    A log with a timestamp past int64 nanoseconds raises ``ValueError``; so
    does a gap that long on its own, which the error blames on the knobs
    that drew it (an infinite one would fail to round).
    """
    if seed < 0:
        raise ValueError(f"generation seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    if spec.n_variants is None:
        variants = [_draw_variant(rng, spec) for _ in range(spec.trace_count)]
        assignment = range(spec.trace_count)
    else:
        variants = [_draw_variant(rng, spec) for _ in range(spec.n_variants)]
        weights = None
        if spec.variant_distribution == "zipf":
            weights = [(rank + 1.0) ** -spec.zipf_exponent for rank in range(spec.n_variants)]
        assignment = rng.choices(range(spec.n_variants), weights=weights, k=spec.trace_count)

    traces: dict[str, tuple[tuple[str, int], ...]] = {}
    hour_ns = NS_PER_UNIT["h"]
    # The knobs that made a gap, for the error of one too long to store.
    lognormal = f"duration_log_mean {spec.duration_log_mean} and duration_log_sigma {spec.duration_log_sigma}"
    stretched = f"outlier_multiplier {spec.outlier_multiplier}"
    for idx, variant_idx in enumerate(assignment):
        sequence = variants[variant_idx]
        # One case starts per day, which keeps about 100,000 cases inside
        # int64 nanoseconds. Cases may overlap in time; a DFG only sees the
        # gaps within a case.
        start_ns = idx * NS_PER_UNIT["d"]
        events = [(sequence[0], start_ns)]
        now = start_ns
        for cur in sequence[1:]:
            knob = lognormal
            try:
                gap_h = rng.lognormvariate(spec.duration_log_mean, spec.duration_log_sigma)
            except OverflowError:  # exp() of a draw past the float range
                gap_h = math.inf
            else:
                if spec.outlier_rate > 0.0 and rng.random() < spec.outlier_rate:
                    gap_h *= spec.outlier_multiplier
                    knob = stretched
            gap_ns = gap_h * hour_ns
            # Such a gap is infinite, or ends its case past int64 on its own.
            if not gap_ns < 2**63:
                raise ValueError(f"case c{idx:05d}: a gap of {gap_h} h from {knob} is past the int64 limit of "
                                 f"{2**63 - 1} ns")
            now += round(gap_ns)
            events.append((cur, now))
        # No gap is negative, so a case's last event is its latest.
        if now >= 2**63:
            raise ValueError(f"case c{idx:05d} ends at {now} ns, past the int64 limit of {2**63 - 1} ns")
        traces[f"c{idx:05d}"] = tuple(events)
    return EventLog(traces)


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
    return spec if trace_count is None else spec._replace(trace_count=trace_count)


class _LogSource(NamedTuple):
    name: str
    path: str | None = None
    synthetic: SyntheticLogSpec | None = None
    gen_seed: int | None = None


class LogSource(_Checked, _LogSource):
    """A sweep log, read from ``path`` or generated from ``synthetic``. A
    subclass whose ``load`` finds the log itself may have neither."""

    __slots__ = ()
    _kinds = {"name": str, "path": str, "synthetic": SyntheticLogSpec, "gen_seed": int}

    def _checked(self) -> LogSource:
        if self.path is not None and self.synthetic is not None:
            raise ValueError(f"sweep log {self.name!r} has both a path and a synthetic spec")
        return self

    def load(self, default_seed: int) -> EventLog:
        if self.path is not None:
            return read_log(self.path)
        if self.synthetic is None:
            raise ValueError(f"sweep log {self.name!r} has neither a path nor a synthetic spec")
        seed = self.gen_seed if self.gen_seed is not None else default_seed
        return generate_log(self.synthetic, seed)


class _SweepSpec(NamedTuple):
    logs: tuple[LogSource, ...]
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    mapes: tuple[float, ...] = DEFAULT_MAPES
    aggregations: tuple[AggregationKind, ...] = tuple(AggregationKind)
    runs: int = 10
    seed: int = DEFAULT_SEED
    precision: float = DEFAULT_PRECISION
    beta: float = DEFAULT_BETA
    include_boundary_time: bool = False


class SweepSpec(_Checked, _SweepSpec):
    """A sweep's logs, grid and shared parameters. Building the spec builds
    (and so checks) its cells' :meth:`requests`, before any log loads."""

    __slots__ = ()
    _kinds = {"logs": tuple[LogSource, ...], "deltas": tuple[_NUMBER, ...], "mapes": tuple[_NUMBER, ...],
              "aggregations": tuple[AggregationKind, ...], "runs": int, "seed": int, "precision": _NUMBER,
              "beta": _NUMBER, "include_boundary_time": bool}

    def _checked(self) -> SweepSpec:
        if not self.logs:
            raise ValueError("sweep needs at least one log")
        if not self.deltas and not self.mapes:
            raise ValueError("sweep needs at least one parameter grid")
        if not self.aggregations:
            raise ValueError("sweep needs at least one aggregation")
        # Checked by UtilityParams' rule also when the grid has no P2 cell.
        UtilityParams(1.0, self.beta)
        names = [source.name for source in self.logs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"sweep log names must be unique, repeated: {', '.join(duplicates)}")
        self.requests()
        for source in self.logs:
            if source.synthetic is not None:
                key, seed = ("gen_seed", source.gen_seed) if source.gen_seed is not None else ("seed", self.seed)
                if seed < 0:
                    raise ValueError(f"sweep log {source.name!r}: {key} must be non-negative to generate it, got {seed}")
        return self

    def requests(self) -> tuple[DisclosureRequest, ...]:
        """The request of each grid cell, in row order: per aggregation, one
        P1 request per delta, then one P2 request per error target."""
        params = [(Mode.P1, delta) for delta in self.deltas] + [(Mode.P2, target) for target in self.mapes]
        return tuple(
            DisclosureRequest(
                mode, aggregation, risk=RiskParams(param, self.precision) if mode is Mode.P1 else None,
                utility=None if mode is Mode.P1 else UtilityParams(param, self.beta), precision=self.precision,
                seed=self.seed, runs=self.runs, include_boundary_time=self.include_boundary_time,
            )
            for aggregation in self.aggregations
            for mode, param in params
        )

    @classmethod
    def from_dict(cls, config: dict) -> "SweepSpec":
        if not isinstance(config, dict) or not isinstance(config.get("logs"), list):
            raise ValueError("sweep config must be an object with a 'logs' list")
        _check_keys("sweep config", config, set(cls._fields))
        _check_types("sweep config", config, _CONFIG_TYPES)
        kwargs = {key: value for key, value in config.items() if key != "logs"}
        for key in ("deltas", "mapes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "aggregations" in kwargs:
            kwargs["aggregations"] = tuple(map(AggregationKind.parse, kwargs["aggregations"]))
        return cls(logs=tuple(_log_source(i, entry) for i, entry in enumerate(config["logs"])), **kwargs)


# The keys a log entry may have, by the key that says what kind of entry it is.
_LOG_KEYS = {
    "profile": {"profile", "traces", "name", "gen_seed"},
    "path": {"path", "name"},
    "synthetic": {"synthetic", "name", "gen_seed"},
}
# The kinds checked in the config itself, where the message can say where
# a bad value sits: the lists, which become tuples (and aggregation names
# AggregationKinds) before the records see them, and each log entry's
# values. The records check the rest of their fields.
_CONFIG_TYPES = {"deltas": [_NUMBER], "mapes": [_NUMBER], "aggregations": [str]}
_LOG_TYPES = {"profile": str, "path": str, "synthetic": dict, "name": str, "traces": int, "gen_seed": int}


def _check_keys(what: str, entry: dict, known: set[str]) -> None:
    unknown = sorted(set(entry) - known)
    if unknown:
        raise ValueError(f"{what}: unknown key {', '.join(map(repr, unknown))}; expected {', '.join(sorted(known))}")


def _check_types(what: str, entry: dict, types: dict) -> None:
    for key, kind in types.items():
        if key in entry:
            _check_type(f"{what} {key!r}", entry[key], kind)


def _log_source(i: int, entry) -> LogSource:
    """The log of entry ``i`` of a sweep config's ``logs``: a path, or an
    object with a ``profile``, a ``path`` or a ``synthetic`` spec."""
    if isinstance(entry, str):
        entry = {"path": entry}
    if not isinstance(entry, dict) or not entry.keys() & _LOG_KEYS.keys():
        raise ValueError(f"sweep log {i} must be a path or an object with a 'profile', 'path' or 'synthetic' key")
    kind = next(k for k in _LOG_KEYS if k in entry)
    _check_keys(f"sweep log {i}", entry, _LOG_KEYS[kind])
    _check_types(f"sweep log {i}", entry, _LOG_TYPES)
    if kind == "path":
        return LogSource(name=entry.get("name", Path(entry["path"]).stem), path=entry["path"])
    if kind == "profile":
        spec, name = profile_spec(entry["profile"], entry.get("traces")), entry["profile"]
    else:
        _check_keys(f"sweep log {i} 'synthetic'", entry["synthetic"], set(SyntheticLogSpec._fields))
        try:
            spec = SyntheticLogSpec(**entry["synthetic"])
        except TypeError as exc:
            raise TypeError(f"sweep log {i} 'synthetic' {exc}") from None
        name = f"synthetic{i}"
    return LogSource(name=entry.get("name", name), synthetic=spec, gen_seed=entry.get("gen_seed"))


def _se(values: list[float]) -> float:
    """The standard error of the mean of ``values``: inf where a squared
    deviation passes the largest float, as a sum that does would give."""
    if len(values) < 2:
        return 0.0
    mean = ordered_sum(values) / len(values)
    try:
        var = ordered_sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    except OverflowError:
        return math.inf
    return (var / len(values)) ** 0.5


def _measure(prepared: PreparedDfg, request: DisclosureRequest, draws: dict) -> list[str]:
    """The measured columns of one grid row, from ``median_epsilon`` to an
    empty ``error``; ``draws`` is the sweep's memo of unit noise draws. A
    measured value that is not finite (a huge error target's MAPE can
    overflow) raises a ``ValueError`` that names its column."""
    started = time.perf_counter()
    report = release(prepared, request, draws)
    runtime_ms = (time.perf_counter() - started) * 1e3
    measured = {
        "mape": report.mape,
        "mape_se": _se(report.run_mapes),
        "smape": report.smape,
        "smape_se": _se(report.run_smapes),
        "median_delta": median(e.edge_delta for e in report.edges),
        "max_delta": report.overall_delta,
    }
    for name, value in measured.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}, not a finite number")
    return [show_epsilon(report.median_epsilon, repr), *map(repr, measured.values()), f"{runtime_ms:.3f}", ""]


def run_sweep(spec: SweepSpec, threads: int = 1) -> str:
    """Run the full grid and render it as CSV: one row per
    (log, aggregation, parameter value), in specification order. A log
    that fails to load, or a cell that fails, gives rows whose measured
    columns are empty and whose ``error`` says why; the sweep goes on.

    Each (log, aggregation) is prepared once (``pipeline.prepare``) and
    released once per cell, so a row's ``wall_clock_ms`` times its release
    alone; one preparation is held at a time. Every cell uses
    ``spec.seed``, so a noise stream ``(seed, source, target, run)`` has
    the same unit-scale draw in every cell, and only the scale differs: one
    memo per call draws each stream once, across all logs and cells, and
    ``release`` scales it per cell.

    ``threads`` is accepted for compatibility and ignored: cells are
    evaluated serially.
    """
    requests = spec.requests()
    draws: dict = {}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GRID_HEADER)
    for source in spec.logs:
        try:
            dfg, failure = build_dfg(source.load(spec.seed)), None
        except Exception as exc:
            dfg, failure = None, exc
        prepared = None
        for request in requests:
            param = request.risk.delta if request.mode is Mode.P1 else request.utility.mape_target
            row = [source.name, request.aggregation.value, request.mode.value, repr(param)]
            error = failure
            if error is None:
                try:
                    if prepared is None or prepared.aggregation is not request.aggregation:
                        prepared = None  # drop the last aggregation's before preparing the next
                        prepared = prepare(dfg, request)
                    row += _measure(prepared, request, draws)
                except Exception as exc:
                    error = exc
            if error is not None:
                row += [""] * (len(GRID_HEADER) - len(row) - 1) + [f"ERROR: {error}"]
            writer.writerow(row)
        dfg = prepared = None
    return out.getvalue()

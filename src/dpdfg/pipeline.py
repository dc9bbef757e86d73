"""End-to-end disclosure flows.

P1: tolerated guessing advantage -> per-edge epsilon -> noisy DFG -> error
report. P2: tolerated percentage error -> per-edge epsilon -> noisy DFG ->
risk report. Both go through one calibration; only the source of epsilon
differs. Emitters for DOT, JSON and CSV.
"""
from __future__ import annotations

import csv
import enum
import io
import json
import statistics
import time
from dataclasses import dataclass, field

from .dfg import (
    AggregationKind,
    AnnotatedDfg,
    Dfg,
    DfgEdge,
    START_END,
    aggregate,
    choose_time_unit,
    convert_unit,
    edge_range,
    filter_for_disclosure,
    ordered_sum,
)
from .noise import DEFAULT_SEED, NoiseStream, post_process, sample_laplace, sensitivity
from .risk import (
    DEFAULT_PRECISION,
    UNBOUNDED,
    RiskParams,
    delta_from_epsilon_time,
    dfg_delta,
    edge_epsilon_time,
    edge_priors,
    epsilon_freq,
    worst_case_delta_time,
)
from .utility import UtilityParams, alpha_per_edge, ape, epsilon_from_alpha, mape, smape

SCHEMA_VERSION = 1


class Mode(enum.Enum):
    P1 = "P1"
    P2 = "P2"


@dataclass(frozen=True)
class DisclosureRequest:
    """One disclosure. ``precision`` is the guess window of the empirical
    priors. In P1 it belongs to ``risk``: left unset it takes
    ``risk.precision``, and a different value is rejected. In P2 it
    defaults to ``DEFAULT_PRECISION``.
    """

    mode: Mode
    aggregation: AggregationKind
    risk: RiskParams | None = None
    utility: UtilityParams | None = None
    precision: float | None = None
    seed: int = DEFAULT_SEED
    runs: int = 1
    include_boundary_time: bool = False
    time_unit: str | None = None

    def __post_init__(self) -> None:
        if self.mode is Mode.P1 and (self.risk is None or self.utility is not None):
            raise ValueError("P1 requires risk parameters and no utility parameters")
        if self.mode is Mode.P2 and (self.utility is None or self.risk is not None):
            raise ValueError("P2 requires utility parameters and no risk parameters")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.risk is not None and self.precision not in (None, self.risk.precision):
            raise ValueError(
                f"precision {self.precision} disagrees with risk.precision {self.risk.precision}"
            )
        if self.precision is None:
            precision = self.risk.precision if self.risk is not None else DEFAULT_PRECISION
            object.__setattr__(self, "precision", precision)
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision must be in [0,1], got {self.precision}")


@dataclass(frozen=True)
class EdgeDisclosure:
    source: str
    target: str
    true_value: float
    epsilon: float
    noise_scale: float
    noisy_value: float
    released_value: float
    ape: float | None
    released_ape: float | None
    edge_delta: float
    degenerate: bool = False
    boundary_constant: bool = False


@dataclass
class DisclosureReport:
    mode: str
    aggregation: str
    parameters: dict
    time_unit: str | None
    edges: list[EdgeDisclosure]
    mape: float
    smape: float
    median_epsilon: float
    overall_delta: float
    seed: int
    runs: int
    run_mapes: list[float] = field(default_factory=list)
    run_smapes: list[float] = field(default_factory=list)
    runtime_ms: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class _Calibration:
    epsilon: float
    noise_scale: float
    edge_delta: float
    degenerate: bool = False


def _calibrate(edge: DfgEdge, kind: AggregationKind, request: DisclosureRequest, true_value: float) -> _Calibration:
    """Epsilon, noise scale and guessing advantage of one edge whose
    aggregated weight is ``true_value``. P1 derives epsilon from the
    advantage target, P2 from the error target; the rest is shared.
    """
    sens = sensitivity(kind, edge.frequency)
    r, priors, degenerate = 1.0, None, False
    if request.mode is Mode.P2:
        utility = request.utility
        eps = epsilon_from_alpha(sens, alpha_per_edge(true_value, utility.mape_target), utility.beta)
        if kind.is_time:
            r = edge_range(edge, kind)
            degenerate = edge.frequency == 1 or r <= 0.0
            priors = None if degenerate else edge_priors(edge.durations, request.precision, r)
    elif kind.is_time:
        result = edge_epsilon_time(edge, request.risk, kind)
        eps, r, priors, degenerate = result.epsilon, result.r, result.priors, result.degenerate
    else:
        eps = epsilon_freq(request.risk.delta)
    r = r if r > 0.0 else 1.0
    if priors is None:
        # A frequency, or P2 on a degenerate time edge, has no empirical
        # prior: take the advantage maximized over all priors. P1 on a
        # degenerate time edge carries the worst-case prior from
        # edge_epsilon_time instead; the two forms agree only up to the last
        # bits, so each mode keeps its own.
        edge_delta = worst_case_delta_time(eps, r)
    else:
        # Occurrences every guess hits (prior 1) carry no advantage. The
        # advantage depends on the occurrence only through its prior.
        edge_delta = max([0.0, *(delta_from_epsilon_time(p, eps, r) for p in set(priors) if p < 1.0)])
    scale = 0.0 if eps == UNBOUNDED else sens / eps
    return _Calibration(eps, scale, edge_delta, degenerate)


@dataclass(frozen=True)
class _EdgeRuns:
    """One edge's disclosure plus, per run, its noisy and released values
    (empty for boundary-constant edges)."""

    disclosure: EdgeDisclosure
    noisy: list[float]
    released: list[float]


def _disclose_edge(edge: DfgEdge, kind: AggregationKind, request: DisclosureRequest) -> _EdgeRuns:
    true_value = aggregate(edge, kind)
    if kind.is_time and edge.is_boundary:
        # Virtual-edge time annotations are 0 by construction: data-independent,
        # released exactly.
        disclosure = EdgeDisclosure(
            edge.source, edge.target, true_value, epsilon=UNBOUNDED, noise_scale=0.0,
            noisy_value=true_value, released_value=true_value, ape=None, released_ape=None,
            edge_delta=0.0, boundary_constant=True,
        )
        return _EdgeRuns(disclosure, [], [])
    cal = _calibrate(edge, kind, request, true_value)
    noisy = [
        true_value + sample_laplace(cal.noise_scale, NoiseStream(request.seed, edge.source, edge.target, run))
        for run in range(request.runs)
    ]
    released = [post_process(v, kind) for v in noisy]
    disclosure = EdgeDisclosure(
        source=edge.source,
        target=edge.target,
        true_value=true_value,
        epsilon=cal.epsilon,
        noise_scale=cal.noise_scale,
        noisy_value=noisy[0],
        released_value=released[0],
        ape=ape(true_value, noisy[0]),
        released_ape=ape(true_value, released[0]),
        edge_delta=cal.edge_delta,
        degenerate=cal.degenerate,
    )
    return _EdgeRuns(disclosure, noisy, released)


def disclose(dfg: Dfg, request: DisclosureRequest, threads: int = 1) -> tuple[AnnotatedDfg, DisclosureReport]:
    """Calibrate, noise and report every edge of ``dfg`` as ``request``
    asks, in sorted edge order.

    ``threads`` is accepted for compatibility and ignored: evaluation is
    serial, and the output would not depend on it anyway, because every
    edge and run draws from its own keyed noise stream.
    """
    started = time.perf_counter()
    working = filter_for_disclosure(dfg, request.aggregation, request.include_boundary_time)
    if not working.edges:
        raise ValueError("cannot disclose an empty DFG")
    if request.aggregation.is_time:
        unit = request.time_unit or choose_time_unit(working, request.aggregation)
        working = convert_unit(working, unit)
    else:
        unit = None

    kind = request.aggregation
    results = [_disclose_edge(e, kind, request) for e in working.sorted_edges()]
    disclosures = [r.disclosure for r in results]
    noised = [r for r in results if not r.disclosure.boundary_constant]
    true_values = [r.disclosure.true_value for r in noised]
    run_mapes, run_smapes = [], []
    for run in range(request.runs):
        run_mapes.append(mape(true_values, [r.noisy[run] for r in noised]) if noised else 0.0)
        run_smapes.append(smape(true_values, [r.released[run] for r in noised]) if noised else 0.0)

    weights = {(d.source, d.target): d.released_value for d in disclosures}
    annotated = AnnotatedDfg(
        Dfg(dfg.activities, dict(working.edges), time_unit=working.time_unit), kind, weights
    )
    report = DisclosureReport(
        mode=request.mode.value,
        aggregation=kind.value,
        parameters=_echo_parameters(request),
        time_unit=unit,
        edges=disclosures,
        mape=ordered_sum(run_mapes) / len(run_mapes),
        smape=ordered_sum(run_smapes) / len(run_smapes),
        median_epsilon=statistics.median(d.epsilon for d in disclosures),
        overall_delta=dfg_delta({(d.source, d.target): d.edge_delta for d in disclosures}),
        seed=request.seed,
        runs=request.runs,
        run_mapes=run_mapes,
        run_smapes=run_smapes,
        runtime_ms=(time.perf_counter() - started) * 1e3,
    )
    return annotated, report


def _echo_parameters(request: DisclosureRequest) -> dict:
    params: dict = {
        "precision": request.precision,
        "include_boundary_time": request.include_boundary_time,
        "time_unit_override": request.time_unit,
    }
    if request.risk is not None:
        params["delta"] = request.risk.delta
    if request.utility is not None:
        params["mape_target"] = request.utility.mape_target
        params["beta"] = request.utility.beta
    return params


def disclose_p1(dfg: Dfg, request: DisclosureRequest, threads: int = 1) -> tuple[AnnotatedDfg, DisclosureReport]:
    """Risk-first disclosure: calibrate epsilon from the guessing-advantage
    target, then report the realized utility loss. ``threads`` is ignored.
    """
    if request.mode is not Mode.P1:
        raise ValueError("request mode must be P1")
    return disclose(dfg, request)


def disclose_p2(dfg: Dfg, request: DisclosureRequest, threads: int = 1) -> tuple[AnnotatedDfg, DisclosureReport]:
    """Utility-first disclosure: calibrate epsilon from the error target,
    then report the incurred guessing advantage. ``threads`` is ignored.
    """
    if request.mode is not Mode.P2:
        raise ValueError("request mode must be P2")
    return disclose(dfg, request)


def _num(value: float):
    return "unbounded" if value == UNBOUNDED else value


def report_to_dict(report: DisclosureReport) -> dict:
    """JSON-ready view of a report. Wall-clock time is deliberately excluded
    so identical seeded runs serialize byte-identically.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "aggregation": report.aggregation,
        "parameters": report.parameters,
        "time_unit": report.time_unit,
        "seed": report.seed,
        "runs": report.runs,
        "median_epsilon": _num(report.median_epsilon),
        "overall_delta": report.overall_delta,
        "mape": report.mape,
        "smape": report.smape,
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "true_value": e.true_value,
                "epsilon": _num(e.epsilon),
                "noise_scale": e.noise_scale,
                "noisy_value": e.noisy_value,
                "released_value": e.released_value,
                "ape": e.ape,
                "released_ape": e.released_ape,
                "edge_delta": e.edge_delta,
                "degenerate": e.degenerate,
                "boundary_constant": e.boundary_constant,
            }
            for e in report.edges
        ],
    }


def emit_json(report: DisclosureReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def emit_csv(report: DisclosureReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "target", "true", "epsilon", "released", "ape", "delta"])
    for e in report.edges:
        writer.writerow(
            [
                e.source,
                e.target,
                repr(e.true_value),
                "unbounded" if e.epsilon == UNBOUNDED else repr(e.epsilon),
                repr(e.released_value),
                "" if e.ape is None else repr(e.ape),
                repr(e.edge_delta),
            ]
        )
    return out.getvalue()


def _dot_quote(label) -> str:
    text = str(label)
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + text + '"'


def _format_weight(value: float, kind: AggregationKind) -> str:
    if kind is AggregationKind.FREQUENCY:
        return str(int(value))
    return f"{value:.6g}"


def emit_dot(annotated: AnnotatedDfg, report: DisclosureReport | None = None, annotate_debug: bool = False) -> str:
    """DOT rendering of a released DFG; every activity node is kept even if
    it has no disclosed edges.
    """
    kind = annotated.kind
    by_key = {(e.source, e.target): e for e in report.edges} if report else {}
    lines = ["digraph dfg {"]
    for node in sorted(annotated.dfg.activities | {START_END}):
        lines.append(f"    {_dot_quote(node)};")
    for key in sorted(annotated.weights):
        label = _format_weight(annotated.weights[key], kind)
        if annotate_debug and key in by_key:
            e = by_key[key]
            eps_text = "unbounded" if e.epsilon == UNBOUNDED else f"{e.epsilon:.6g}"
            ape_text = "n/a" if e.ape is None else f"{e.ape:.6g}"
            label = f"{label}\neps={eps_text}\nape={ape_text}"
        lines.append(f"    {_dot_quote(key[0])} -> {_dot_quote(key[1])} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

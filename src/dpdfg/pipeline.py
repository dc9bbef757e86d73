"""End-to-end disclosure flows.

P1: tolerated guessing advantage -> per-edge epsilon -> noisy DFG -> error
report. P2: tolerated percentage error -> per-edge epsilon -> noisy DFG ->
risk report. Both go through one calibration; only the source of epsilon
differs. A disclosure is a :func:`prepare` of the DFG for its aggregation,
which many requests can share, then a :func:`release` per request. Emitters
for DOT, JSON and CSV.
"""
from __future__ import annotations

import csv
import enum
import io
import json
import time
from typing import NamedTuple

from .dfg import (
    AggregationKind,
    AnnotatedDfg,
    Dfg,
    DfgEdge,
    START_END,
    aggregate,
    choose_time_unit,
    convert_unit,
    filter_for_disclosure,
    median,
    ordered_sum,
)
from .eventlog import NS_PER_UNIT, _NUMBER, _check_choice, _Checked
from .noise import DEFAULT_SEED, post_process_column, sensitivity, unit_laplace_column
from .risk import (
    DEFAULT_PRECISION,
    UNBOUNDED,
    RiskParams,
    certified_epsilon,
    dfg_delta,
    edge_delta,
    time_priors,
)
from .utility import UtilityParams, alpha_per_edge, ape_row, epsilon_from_alpha, sape_row

SCHEMA_VERSION = 1


class Mode(enum.Enum):
    P1 = "P1"
    P2 = "P2"


class _DisclosureRequest(NamedTuple):
    mode: Mode
    aggregation: AggregationKind
    risk: RiskParams | None = None
    utility: UtilityParams | None = None
    precision: float | None = None
    seed: int = DEFAULT_SEED
    runs: int = 1
    include_boundary_time: bool = False
    time_unit: str | None = None


class DisclosureRequest(_Checked, _DisclosureRequest):
    """One disclosure. ``precision`` is the guess window of the empirical
    priors. In P1 it belongs to ``risk``: left unset it takes
    ``risk.precision``, and a different value is rejected. In P2 it
    defaults to ``DEFAULT_PRECISION``.
    """

    __slots__ = ()
    _kinds = {"mode": Mode, "aggregation": AggregationKind, "risk": RiskParams, "utility": UtilityParams,
              "precision": _NUMBER, "seed": int, "runs": int, "include_boundary_time": bool, "time_unit": str}

    def _checked(self) -> DisclosureRequest:
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
            self = self._filled(precision=self.risk.precision if self.risk is not None else DEFAULT_PRECISION)
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision must be in [0,1], got {self.precision}")
        if self.time_unit is not None:
            _check_choice("time unit", self.time_unit, NS_PER_UNIT)
        return self


class EdgeDisclosure(NamedTuple):
    """One released edge: its true and released weight, the epsilon, noise
    scale and guessing advantage it was released with, and the APE of its
    first run's noisy and released values (None for a boundary-constant
    edge).
    """

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


class DisclosureReport(NamedTuple):
    """One release of ``request``: its edges in sorted order, the disclosed
    time unit (None for frequency), and each run's MAPE and SMAPE. Two
    reports are equal if all but their ``runtime_ms`` are."""

    request: DisclosureRequest
    time_unit: str | None
    edges: list[EdgeDisclosure]
    mape: float
    smape: float
    median_epsilon: float
    overall_delta: float
    run_mapes: list[float]
    run_smapes: list[float]
    runtime_ms: float = 0.0

    def __eq__(self, other):
        if not isinstance(other, DisclosureReport):
            return NotImplemented
        return self[:-1] == other[:-1]

    # object's !=, the negation of __eq__, in place of the tuple's own.
    __ne__ = object.__ne__


class PreparedEdge(NamedTuple):
    """One edge of a :class:`PreparedDfg`: its aggregated weight and what
    calibrating it needs besides the request's targets. A time edge carries
    the range ``r`` and the sorted distinct ``priors`` of
    ``risk.time_priors`` (None if it is degenerate), a frequency edge range
    1 and no priors. A boundary-constant edge is released exactly and
    carries only its weight.
    """

    source: str
    target: str
    true_value: float
    sensitivity: float = 1.0
    r: float = 1.0
    priors: tuple[float, ...] | None = None
    boundary_constant: bool = False


# The request fields that shape a preparation; a release must agree on them.
PREPARATION_FIELDS = ("aggregation", "precision", "include_boundary_time", "time_unit")


class PreparedDfg(NamedTuple):
    """A DFG made ready to release under one aggregation: filtered,
    converted to the disclosed unit (``dfg.time_unit``), and its edges
    prepared in sorted order. It holds the request's
    ``PREPARATION_FIELDS``; nothing in it depends on the mode, the
    targets, the seed or the runs.
    """

    aggregation: AggregationKind
    precision: float
    include_boundary_time: bool
    time_unit: str | None
    dfg: Dfg
    edges: tuple[PreparedEdge, ...]


def prepare(dfg: Dfg, request: DisclosureRequest) -> PreparedDfg:
    """The part of disclosing ``dfg`` that only the request's
    ``PREPARATION_FIELDS`` decide, done once for any number of
    :func:`release` calls: the boundary filter, the unit choice and
    conversion, and each edge's weight, sensitivity and time priors.
    """
    kind = request.aggregation
    working = filter_for_disclosure(dfg, kind, request.include_boundary_time)
    if not working.edges:
        raise ValueError("cannot disclose an empty DFG")
    if kind.is_time:
        working = convert_unit(working, request.time_unit or choose_time_unit(working, kind))
    edges = tuple(_prepare_edge(e, kind, request.precision) for e in working.sorted_edges())
    return PreparedDfg(kind, request.precision, request.include_boundary_time, request.time_unit, working, edges)


def _prepare_edge(edge: DfgEdge, kind: AggregationKind, precision: float) -> PreparedEdge:
    true_value = aggregate(edge, kind)
    if kind.is_time and edge.is_boundary:
        # Virtual-edge time annotations are 0 by construction: data-independent,
        # released exactly.
        return PreparedEdge(edge.source, edge.target, true_value, boundary_constant=True)
    r, priors = time_priors(edge, kind, precision) if kind.is_time else (1.0, None)
    return PreparedEdge(edge.source, edge.target, true_value, sensitivity(kind, edge.frequency), r, priors)


def _calibrate(edge: PreparedEdge, request: DisclosureRequest) -> tuple[float, float, float]:
    """Epsilon, noise scale and guessing advantage of one prepared edge.
    P1 derives epsilon from the advantage target, and its certification
    search has already evaluated the advantage there; P2 derives epsilon
    from the error target, then the advantage at it. The scale is shared.
    """
    if request.mode is Mode.P2:
        utility = request.utility
        eps = epsilon_from_alpha(edge.sensitivity, alpha_per_edge(edge.true_value, utility.mape_target), utility.beta)
        advantage = edge_delta(eps, edge.r, edge.priors)
    else:
        eps, _, advantage = certified_epsilon(request.risk.delta, edge.r, edge.priors)
    scale = 0.0 if eps == UNBOUNDED else edge.sensitivity / eps
    return eps, scale, advantage


def _unit_draws(scale: float, key: tuple[int, str, str], runs: int, draws: dict) -> list[float]:
    """At least ``runs`` unit-scale draws of the edge ``key`` = ``(seed,
    source, target)``, indexed by run. Run i's noise, ``scale`` times draw
    i, is ``sample_laplace(scale, NoiseStream(*key, i))`` bit for bit:
    ``sample_laplace`` only flips the sign of ``scale`` before its one
    rounding multiply, so scaling the unit draw afterwards rounds the same
    product to the same bits. ``draws`` keeps the unit draws of a key as one
    list; a key with fewer than ``runs`` stored gets a new
    ``unit_laplace_column`` of ``runs``. Scale 0 draws nothing: its draws
    are zeros.
    """
    if scale == 0.0:
        return [0.0] * runs
    units = draws.get(key)
    if units is None or len(units) < runs:
        units = draws[key] = unit_laplace_column(*key, runs)
    return units


def release(prepared: PreparedDfg, request: DisclosureRequest, draws: dict | None = None) -> DisclosureReport:
    """Calibrate, noise and report every edge of ``prepared`` as ``request``
    asks, in sorted edge order. ``request`` must agree with the
    preparation on ``PREPARATION_FIELDS``.

    Each edge and run has its own keyed noise stream, ``NoiseStream(seed,
    source, target, run)``; its noise is the stream's unit-scale Laplace
    draw, whose uniform comes straight from one SHA-256 digest of the key
    and a draw counter, times the edge's noise scale. ``draws`` memoizes
    the unit draws, one list per ``(seed, source, target)``: calls that
    share one dict (as the cells of a sweep do) draw each stream once, with
    output byte-identical to calls that do not. Left unset, the call uses a
    fresh dict of its own. ``runtime_ms`` times this call alone.

    One pass calibrates every edge; then each run is one row over the
    noised edges, in sorted order: their noisy and released values, APEs
    and SAPEs, which that run's MAPE and SMAPE sum left to right, as
    ``utility.mape`` and ``utility.smape`` do. Only run 0's row is kept,
    for the edges' own fields.
    """
    for name in PREPARATION_FIELDS:
        wanted, held = getattr(request, name), getattr(prepared, name)
        if wanted != held:
            raise ValueError(f"request {name} {wanted!r} differs from the prepared {held!r}")
    if draws is None:
        draws = {}
    started = time.perf_counter()
    kind, runs, seed = request.aggregation, request.runs, request.seed
    # An edge without priors calibrates from its range and sensitivity
    # alone, and in P2 its weight: edges that agree on these share one
    # calibration. Every frequency edge has range 1 and sensitivity 1.
    priorless: dict[tuple[float, ...], tuple[float, float, float]] = {}
    by_weight = request.mode is Mode.P2
    # Per noised edge: the edge and its calibration, and its row inputs.
    calibrated: list[tuple[PreparedEdge, float, float, float]] = []
    actuals: list[float] = []
    noise_inputs: list[tuple[float, float, list[float]]] = []
    for edge in prepared.edges:
        if edge.boundary_constant:
            continue
        if edge.priors is None:
            key = (edge.r, edge.sensitivity, edge.true_value) if by_weight else (edge.r, edge.sensitivity)
            if key not in priorless:
                priorless[key] = _calibrate(edge, request)
            calibration = priorless[key]
        else:
            calibration = _calibrate(edge, request)
        scale = calibration[1]
        calibrated.append((edge, *calibration))
        actuals.append(edge.true_value)
        noise_inputs.append((edge.true_value, scale, _unit_draws(scale, (seed, edge.source, edge.target), runs, draws)))

    count = len(actuals) or 1  # With no noised edge, every run's errors are 0.
    run_mapes: list[float] = []
    run_smapes: list[float] = []
    for run in range(runs):
        noisy = [true_value + scale * units[run] for true_value, scale, units in noise_inputs]
        apes = ape_row(actuals, noisy)
        released = post_process_column(noisy, kind)
        sapes = sape_row(actuals, released)
        if run == 0:
            run0 = zip(calibrated, noisy, released, apes, ape_row(actuals, released))
        run_mapes.append(ordered_sum(apes) / count)
        run_smapes.append(ordered_sum(sapes) / count)

    disclosures: list[EdgeDisclosure] = []
    for edge in prepared.edges:
        if edge.boundary_constant:
            # Released exactly, outside the error rows.
            true_value = edge.true_value
            disclosures.append(EdgeDisclosure(
                edge.source, edge.target, true_value, epsilon=UNBOUNDED, noise_scale=0.0,
                noisy_value=true_value, released_value=true_value, ape=None, released_ape=None,
                edge_delta=0.0, boundary_constant=True,
            ))
            continue
        (edge, eps, scale, advantage), noisy_value, released_value, error, released_error = next(run0)
        disclosures.append(EdgeDisclosure(
            edge.source, edge.target, edge.true_value, eps, scale, noisy_value, released_value, error,
            released_error, advantage, kind.is_time and edge.priors is None,
        ))

    return DisclosureReport(
        request=request,
        time_unit=prepared.dfg.time_unit if kind.is_time else None,
        edges=disclosures,
        mape=ordered_sum(run_mapes) / len(run_mapes),
        smape=ordered_sum(run_smapes) / len(run_smapes),
        median_epsilon=median(d.epsilon for d in disclosures),
        overall_delta=dfg_delta({(d.source, d.target): d.edge_delta for d in disclosures}),
        run_mapes=run_mapes,
        run_smapes=run_smapes,
        runtime_ms=(time.perf_counter() - started) * 1e3,
    )


def disclose(dfg: Dfg, request: DisclosureRequest, threads: int = 1) -> tuple[AnnotatedDfg, DisclosureReport]:
    """``release(prepare(dfg, request), request)``, with the released graph:
    calibrate, noise and report every edge of ``dfg`` as ``request`` asks,
    in sorted edge order. ``runtime_ms`` times both steps. The graph view
    shares the prepared (filtered, unit-converted) ``Dfg``.

    ``threads`` is accepted for compatibility and ignored: evaluation is
    serial, and the output would not depend on it anyway, because every
    edge and run draws from its own keyed noise stream.
    """
    started = time.perf_counter()
    prepared = prepare(dfg, request)
    report = release(prepared, request)._replace(runtime_ms=(time.perf_counter() - started) * 1e3)
    weights = {(e.source, e.target): e.released_value for e in report.edges}
    return AnnotatedDfg(prepared.dfg, request.aggregation, weights), report


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


def show_epsilon(value: float, render=lambda value: value):
    """``render(value)``, or the marker ``"unbounded"`` for an unbounded
    epsilon; the one spelling of that marker in every output."""
    return "unbounded" if value == UNBOUNDED else render(value)


def report_to_dict(report: DisclosureReport) -> dict:
    """JSON-ready view of a report. Wall-clock time is deliberately excluded
    so identical seeded runs serialize byte-identically. Each edge object
    holds its ``EdgeDisclosure`` fields, in field order.
    """
    request = report.request
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": request.mode.value,
        "aggregation": request.aggregation.value,
        "parameters": _echo_parameters(request),
        "time_unit": report.time_unit,
        "seed": request.seed,
        "runs": request.runs,
        "median_epsilon": show_epsilon(report.median_epsilon),
        "overall_delta": report.overall_delta,
        "mape": report.mape,
        "smape": report.smape,
        "edges": [{**e._asdict(), "epsilon": show_epsilon(e.epsilon)} for e in report.edges],
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
                show_epsilon(e.epsilon, repr),
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
    it has no disclosed edges. The ``annotate_debug`` labels are read from
    ``report``.
    """
    if annotate_debug and report is None:
        raise ValueError("emit_dot: annotate_debug needs the report that holds the debug labels")
    kind = annotated.kind
    by_key = {(e.source, e.target): e for e in report.edges} if report else {}
    lines = ["digraph dfg {"]
    for node in sorted(annotated.dfg.activities | {START_END}):
        lines.append(f"    {_dot_quote(node)};")
    for key in sorted(annotated.weights):
        label = _format_weight(annotated.weights[key], kind)
        if annotate_debug and key in by_key:
            e = by_key[key]
            eps_text = show_epsilon(e.epsilon, "{:.6g}".format)
            ape_text = "n/a" if e.ape is None else f"{e.ape:.6g}"
            label = f"{label}\neps={eps_text}\nape={ape_text}"
        lines.append(f"    {_dot_quote(key[0])} -> {_dot_quote(key[1])} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

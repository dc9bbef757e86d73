"""End-to-end disclosure flows.

P1: tolerated guessing advantage -> per-edge epsilon -> noisy DFG -> error
report. P2: tolerated percentage error -> per-edge epsilon -> noisy DFG ->
risk report. P1 certifies every noised edge in one column
(``risk.certified_epsilons``). A disclosure is a :func:`prepare` of the DFG
for its aggregation, which many requests can share, then a :func:`release`
per request. Emitters for DOT, JSON and CSV.
"""
from __future__ import annotations

import csv
import enum
import io
import json
import math
from typing import NamedTuple

from .dfg import (
    AggregationKind,
    AnnotatedDfg,
    Dfg,
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
    certified_epsilons,
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
            return self._replace(precision=self.risk.precision if self.risk is not None else DEFAULT_PRECISION)
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
    time unit (None for frequency), and each run's MAPE and SMAPE."""

    request: DisclosureRequest
    time_unit: str | None
    edges: list[EdgeDisclosure]
    mape: float
    smape: float
    median_epsilon: float
    overall_delta: float
    run_mapes: list[float]
    run_smapes: list[float]


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
    kind, precision = request.aggregation, request.precision
    working = filter_for_disclosure(dfg, kind, request.include_boundary_time)
    if not working.edges:
        raise ValueError("cannot disclose an empty DFG")
    for label in sorted({label for key in working.edges for label in key}):
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"label {label!r} has no UTF-8 form, so no noise stream can be keyed by it") from None
    if kind.is_time:
        working = convert_unit(working, request.time_unit or choose_time_unit(working, kind))
        # Virtual-edge time annotations are 0 by construction: data-independent,
        # released exactly.
        edges = [
            PreparedEdge(e.source, e.target, aggregate(e, kind), boundary_constant=True) if e.is_boundary
            else PreparedEdge(e.source, e.target, aggregate(e, kind), sensitivity(kind, e.frequency),
                              *time_priors(e, kind, precision))
            for e in working.sorted_edges()
        ]
    else:
        # A frequency edge has sensitivity 1, range 1 and no priors.
        edges = [PreparedEdge(e.source, e.target, aggregate(e, kind)) for e in working.sorted_edges()]
    return PreparedDfg(kind, precision, request.include_boundary_time, request.time_unit, working, tuple(edges))


def _unit_draws(seed: int, runs: int, draws: dict, noised: list[tuple[str, str, float]]) -> list[list[float]]:
    """At least ``runs`` unit-scale draws of each ``(source, target,
    scale)`` edge of a release, indexed by run. Run i's noise, ``scale``
    times draw i, is ``sample_laplace(scale, NoiseStream(seed, source,
    target, i))`` bit for bit: ``sample_laplace`` only flips the sign of
    ``scale`` before its one rounding multiply, so scaling the unit draw
    afterwards rounds the same product to the same bits. ``draws`` keeps
    the unit draws of a key ``(seed, source, target)`` as one list; a key
    with fewer than ``runs`` stored gets a new ``unit_laplace_column`` of
    ``runs``. Scale 0 draws nothing: its draws are zeros.
    """
    zeros = [0.0] * runs
    columns = []
    for source, target, scale in noised:
        if scale == 0.0:
            columns.append(zeros)
            continue
        units = draws.get(key := (seed, source, target))
        if units is None or len(units) < runs:
            units = draws[key] = unit_laplace_column(seed, source, target, runs)
        columns.append(units)
    return columns


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
    fresh dict of its own.

    One pass calibrates every edge: P1 certifies the noised edges as one
    column (``risk.certified_epsilons``), which evaluates each advantage
    and raises the first failing edge's error; P2 derives each epsilon
    from the error target, then the advantage at it.
    Then the noised edges' unit draws are read as one column, and each run
    is one row over the noised edges, in sorted order: their noisy and
    released values, APEs and SAPEs, which that run's MAPE and SMAPE sum
    left to right, as ``utility.mape`` and ``utility.smape`` do. Only run
    0's row is kept, for the edges' own fields.
    """
    for name in PREPARATION_FIELDS:
        wanted, held = getattr(request, name), getattr(prepared, name)
        if wanted != held:
            raise ValueError(f"request {name} {wanted!r} differs from the prepared {held!r}")
    if draws is None:
        draws = {}
    kind, runs, seed = request.aggregation, request.runs, request.seed
    is_time = kind.is_time
    if request.mode is Mode.P1:
        noised = [(e.r, e.priors) for e in prepared.edges if not e.boundary_constant]
        certified = iter(certified_epsilons(request.risk.delta, noised))
    else:
        certified, (mape_target, beta) = None, request.utility
    # Per noised edge: its disclosure's fields but the run-0 values. Per
    # boundary-constant edge, released exactly outside the error rows: its
    # place in sorted order and its disclosure.
    calibrated: list[tuple[str, str, float, float, float, float, bool]] = []
    constants: list[tuple[int, EdgeDisclosure]] = []
    for place, edge in enumerate(prepared.edges):
        source, target, true_value, edge_sensitivity, r, priors, boundary_constant = edge
        if boundary_constant:
            constants.append((place, EdgeDisclosure(source, target, true_value, UNBOUNDED, 0.0, true_value,
                                                    true_value, None, None, 0.0, boundary_constant=True)))
            continue
        if certified is None:
            eps = epsilon_from_alpha(edge_sensitivity, alpha_per_edge(true_value, mape_target), beta)
            advantage = edge_delta(eps, r, priors)
        else:
            eps, _, advantage = next(certified)
        scale = 0.0 if eps == UNBOUNDED else edge_sensitivity / eps
        calibrated.append((source, target, true_value, eps, scale, advantage, is_time and priors is None))
    units = _unit_draws(seed, runs, draws, [(e[0], e[1], e[4]) for e in calibrated])
    actuals = [e[2] for e in calibrated]
    noise_inputs = [(e[2], e[4], column) for e, column in zip(calibrated, units)]

    count = len(actuals) or 1  # With no noised edge, every run's errors are 0.
    run_mapes: list[float] = []
    run_smapes: list[float] = []
    for run in range(runs):
        noisy = [true_value + scale * column[run] for true_value, scale, column in noise_inputs]
        apes = ape_row(actuals, noisy)
        released = post_process_column(noisy, kind)
        sapes = sape_row(actuals, released)
        if run == 0:
            run0 = noisy, released, apes, ape_row(actuals, released)
        run_mapes.append(ordered_sum(apes) / count)
        run_smapes.append(ordered_sum(sapes) / count)

    disclosures = [
        EdgeDisclosure._make((source, target, true_value, eps, scale, noisy_value, released_value, error,
                              released_error, advantage, degenerate, False))
        for (source, target, true_value, eps, scale, advantage, degenerate), noisy_value, released_value, error,
        released_error in zip(calibrated, *run0)
    ]
    # In ascending place order, each lands where sorted order puts it.
    for place, constant in constants:
        disclosures.insert(place, constant)

    return DisclosureReport(
        request=request,
        time_unit=prepared.dfg.time_unit if is_time else None,
        edges=disclosures,
        mape=ordered_sum(run_mapes) / len(run_mapes),
        smape=ordered_sum(run_smapes) / len(run_smapes),
        median_epsilon=median(d.epsilon for d in disclosures),
        overall_delta=dfg_delta({(d.source, d.target): d.edge_delta for d in disclosures}),
        run_mapes=run_mapes,
        run_smapes=run_smapes,
    )


def disclose(dfg: Dfg, request: DisclosureRequest, threads: int = 1) -> tuple[AnnotatedDfg, DisclosureReport]:
    """``release(prepare(dfg, request), request)``, and the released graph,
    which shares the prepared (filtered, unit-converted) ``Dfg``.

    ``threads`` is accepted for compatibility and ignored: evaluation is
    serial, and the output would not depend on it anyway, because every
    edge and run draws from its own keyed noise stream.
    """
    prepared = prepare(dfg, request)
    report = release(prepared, request)
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
    """JSON-ready view of a report. Each edge object holds its
    ``EdgeDisclosure`` fields, in field order."""
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
    """``report_to_dict(report)`` as indented JSON, which has no spelling
    for a number that is not finite: such a number raises a ``ValueError``."""
    payload = report_to_dict(report)
    for where, fields in (("report", payload), *((f"edge {e['source']} -> {e['target']}", e) for e in payload["edges"])):
        for name, value in fields.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{where}: {name} is {value}, which JSON cannot hold")
    return json.dumps(payload, indent=2) + "\n"


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

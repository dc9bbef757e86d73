import csv
import io
import json
import math
import random
import struct
import tracemalloc
from pathlib import Path
from statistics import median

import pyparsing as pp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfg import (
    CANONICAL_MAPPING,
    START_END,
    AggregationKind,
    EventLog,
    Mode,
    RiskParams,
    UtilityParams,
    build_dfg,
    parse_csv,
    read_log,
)
from dpdfg.pipeline import (
    DisclosureReport,
    DisclosureRequest,
    EdgeDisclosure,
    disclose,
    emit_csv,
    emit_dot,
    emit_json,
    prepare,
    release,
    report_to_dict,
    show_epsilon,
)
from dpdfg.bench import (
    GRID_HEADER,
    PROFILES,
    LogSource,
    SweepSpec,
    SyntheticLogSpec,
    _se,
    generate_log,
    profile_spec,
    run_sweep,
)
from dpdfg.risk import (
    UNBOUNDED,
    delta_from_epsilon_freq,
    delta_from_epsilon_time,
    edge_delta,
    empirical_prior,
    epsilon_freq,
    epsilon_from_delta,
    epsilon_time,
    worst_case_delta_time,
    worst_case_prior,
)
from dpdfg.dfg import Dfg, aggregate, ordered_sum
from dpdfg.noise import NoiseStream, post_process, sample_laplace
from dpdfg.utility import alpha_per_edge, ape, epsilon_from_alpha, mape, sape

MAX = AggregationKind.MAX
FREQ = AggregationKind.FREQUENCY
DATA = Path(__file__).parent / "data"

EPS_FREQ_04 = 1.69459572077440722
EPS_TIME_AC = 0.11364987281589501
EPS_DEGEN_AD = 0.24208510296777246
EPS_ALPHA_45 = 0.66571828301199800
EPS_ALPHA_09 = 3.32859141505999000


def p1(aggregation, delta, precision=0.5, **kw):
    return DisclosureRequest(
        mode=Mode.P1,
        aggregation=aggregation,
        risk=RiskParams(delta, precision),
        precision=precision,
        **kw,
    )


def p2(aggregation, target, precision=0.5, beta=0.05, **kw):
    return DisclosureRequest(
        mode=Mode.P2,
        aggregation=aggregation,
        utility=UtilityParams(target, beta),
        precision=precision,
        **kw,
    )


def by_key(report):
    return {(e.source, e.target): e for e in report.edges}


def test_p1_frequency_clinic(clinic_dfg):
    annotated, report = disclose(clinic_dfg, p1(FREQ, 0.4))
    assert len(report.edges) == 8
    for edge in report.edges:
        assert edge.epsilon == pytest.approx(1.695, abs=1e-3)
        assert edge.epsilon == pytest.approx(EPS_FREQ_04, rel=1e-12)
        assert edge.edge_delta <= 0.4 + 1e-9
        assert float(edge.released_value).is_integer()
        assert edge.released_value >= 1.0
    assert report.median_epsilon == pytest.approx(EPS_FREQ_04, rel=1e-12)
    assert report.overall_delta == pytest.approx(0.4, abs=1e-9)
    assert annotated.dfg.activities == clinic_dfg.activities
    assert report.time_unit is None


def test_p1_max_clinic_worked_example(clinic_dfg):
    annotated, report = disclose(clinic_dfg, p1(MAX, 0.4, precision=0.1))
    edges = by_key(report)
    assert set(edges) == {("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("C", "D")}
    assert report.time_unit == "h"
    ac = edges[("A", "C")]
    assert ac.epsilon == pytest.approx(0.114, abs=1e-3)
    assert ac.true_value == pytest.approx(15.0)
    ad = edges[("A", "D")]
    assert ad.degenerate
    assert ad.epsilon == pytest.approx(EPS_DEGEN_AD, rel=1e-12)
    assert ad.edge_delta == pytest.approx(0.4, abs=1e-9)
    # remaining edges, from hand-counted window priors (1/5, 1/5, 3/8):
    assert edges[("A", "B")].epsilon == pytest.approx(
        -math.log((0.2 / 0.8) * (1 / 0.6 - 1)) / 16, rel=1e-12
    )
    assert edges[("B", "C")].epsilon == pytest.approx(
        -math.log((0.2 / 0.8) * (1 / 0.6 - 1)) / 20, rel=1e-12
    )
    assert edges[("C", "D")].epsilon == pytest.approx(
        -math.log((0.375 / 0.625) * (1 / 0.775 - 1)) / 6, rel=1e-12
    )
    # the median epsilon across the five real edges is the (A,C) value
    assert report.median_epsilon == pytest.approx(EPS_TIME_AC, rel=1e-12)
    # node set still contains every activity (requirement on node preservation)
    assert annotated.dfg.activities == clinic_dfg.activities


def test_p1_risk_soundness_all_aggregations(clinic_dfg):
    for kind in AggregationKind:
        _, report = disclose(clinic_dfg, p1(kind, 0.25, precision=0.1))
        for edge in report.edges:
            assert edge.edge_delta <= 0.25 + 1e-9
        assert report.overall_delta <= 0.25 + 1e-9


def test_p2_max_clinic_worked_example(clinic_dfg):
    _, report = disclose(clinic_dfg, p2(MAX, 0.3, precision=0.1))
    edges = by_key(report)
    ac = edges[("A", "C")]
    assert ac.true_value * 0.3 == pytest.approx(4.5)
    assert ac.epsilon == pytest.approx(EPS_ALPHA_45, rel=1e-12)
    assert ac.edge_delta == pytest.approx(0.666, abs=1e-3)
    assert ac.noise_scale == pytest.approx(1.0 / EPS_ALPHA_45, rel=1e-12)
    # worst per-occurrence advantage of the remaining multi-occurrence edges
    assert edges[("A", "B")].edge_delta == pytest.approx(0.799, abs=1e-3)
    assert edges[("B", "C")].edge_delta == pytest.approx(0.799, abs=1e-3)
    assert edges[("C", "D")].edge_delta == pytest.approx(0.875, abs=1e-3)
    ad = edges[("A", "D")]
    assert ad.degenerate
    assert report.overall_delta == max(e.edge_delta for e in report.edges)


def test_p2_frequency_clinic_worked_example(clinic_dfg):
    _, report = disclose(clinic_dfg, p2(FREQ, 0.3))
    edges = by_key(report)
    ac = edges[("A", "C")]
    assert ac.epsilon == pytest.approx(3.329, abs=1e-3)
    assert ac.edge_delta == pytest.approx(0.682, abs=1e-3)
    ad = edges[("A", "D")]
    assert ad.edge_delta == pytest.approx(0.986, abs=1e-3)
    assert report.overall_delta == pytest.approx(0.986, abs=1e-3)


def test_p2_average_uses_reduced_sensitivity(clinic_dfg):
    _, report = disclose(clinic_dfg, p2(AggregationKind.AVG, 0.3, precision=0.1))
    cd = by_key(report)[("C", "D")]
    avg = sum((0.2, 0.25, 0.4, 1.5, 2.6, 3.65, 4.7, 6.0)) / 8
    assert cd.true_value == pytest.approx(avg)
    expected_eps = (1.0 / 8) / (avg * 0.3) * math.log(20.0)
    assert cd.epsilon == pytest.approx(expected_eps, rel=1e-12)


def test_p1_vacuous_risk_limit(clinic_dfg):
    _, report = disclose(clinic_dfg, p1(MAX, 0.99, precision=0.1))
    for edge in report.edges:
        if edge.degenerate:
            assert edge.epsilon != UNBOUNDED
            continue
        assert edge.epsilon == UNBOUNDED
        assert edge.noise_scale == 0.0
        assert edge.released_value == edge.true_value
        assert edge.ape == 0.0
    assert report.overall_delta <= 0.99 + 1e-9


def test_released_time_weights_respect_floor(clinic_dfg):
    # delta=0.05 forces large noise; negative draws must clamp at the floor
    floors = 0
    for seed in range(12):
        _, report = disclose(clinic_dfg, p1(MAX, 0.05, precision=0.1, seed=seed))
        for e in report.edges:
            assert e.released_value >= 1e-3
            floors += e.released_value == 1e-3
    assert floors > 0


def test_runs_change_only_realized_noise(clinic_dfg):
    _, one = disclose(clinic_dfg, p1(FREQ, 0.4, runs=1, seed=77))
    _, ten = disclose(clinic_dfg, p1(FREQ, 0.4, runs=10, seed=77))
    for a, b in zip(one.edges, ten.edges):
        assert a.epsilon == b.epsilon
        assert a.edge_delta == b.edge_delta
        assert a.noisy_value == b.noisy_value  # run 0 is shared
    assert one.overall_delta == ten.overall_delta
    assert len(ten.run_mapes) == 10
    assert ten.mape == pytest.approx(sum(ten.run_mapes) / 10)


def test_determinism_same_seed_and_threads(clinic_dfg):
    request = p1(MAX, 0.4, precision=0.1, seed=123, runs=3)
    _, a = disclose(clinic_dfg, request)
    _, b = disclose(clinic_dfg, request)
    _, c = disclose(clinic_dfg, request, threads=8)
    assert a == b == c
    assert emit_json(a) == emit_json(b) == emit_json(c)


def test_precision_has_one_value_in_p1(clinic_dfg):
    # A request precision that disagrees with risk.precision is rejected,
    # not silently replaced by it.
    with pytest.raises(ValueError, match=r"precision 0\.1 .*risk\.precision 0\.5"):
        DisclosureRequest(mode=Mode.P1, aggregation=MAX, risk=RiskParams(0.4, 0.5), precision=0.1)
    unset = DisclosureRequest(mode=Mode.P1, aggregation=MAX, risk=RiskParams(0.4, 0.1))
    assert unset.precision == 0.1
    _, report = disclose(clinic_dfg, unset)
    assert report.request.precision == 0.1
    assert report.median_epsilon == pytest.approx(EPS_TIME_AC, rel=1e-12)
    _, matching = disclose(clinic_dfg, p1(MAX, 0.4, precision=0.1))
    assert emit_json(matching) == emit_json(report)


def test_precision_defaults_in_p2():
    request = DisclosureRequest(mode=Mode.P2, aggregation=MAX, utility=UtilityParams(0.3))
    assert request.precision == 0.5


def test_different_seeds_differ(clinic_dfg):
    _, a = disclose(clinic_dfg, p1(FREQ, 0.4, seed=1))
    _, b = disclose(clinic_dfg, p1(FREQ, 0.4, seed=2))
    assert [e.noisy_value for e in a.edges] != [e.noisy_value for e in b.edges]


def test_include_boundary_time_constant_release(clinic_dfg):
    _, report = disclose(
        clinic_dfg, p1(MAX, 0.4, precision=0.1, include_boundary_time=True)
    )
    edges = by_key(report)
    assert len(edges) == 8
    start = edges[(START_END, "A")]
    assert start.boundary_constant
    assert start.true_value == 0.0
    assert start.released_value == 0.0
    assert start.epsilon == UNBOUNDED
    assert start.edge_delta == 0.0
    assert start.ape is None
    # real edges are calibrated exactly as without the flag
    _, plain = disclose(clinic_dfg, p1(MAX, 0.4, precision=0.1))
    for key, edge in by_key(plain).items():
        assert edges[key] == edge


def test_a_release_with_only_boundary_constant_edges():
    # Single-event cases have only virtual edges, whose time weights are
    # released exactly: no edge is noised, and every run's error is 0.
    dfg = build_dfg(parse_csv("case,activity,timestamp\nc1,A,1\nc2,B,2\nc3,A,5\n"))
    annotated, report = disclose(dfg, p1(MAX, 0.4, include_boundary_time=True, runs=3))
    assert len(report.edges) == 4 and all(e.boundary_constant for e in report.edges)
    assert report.run_mapes == report.run_smapes == [0.0] * 3
    assert report.mape == report.smape == report.overall_delta == 0.0
    assert report_to_dict(report)["median_epsilon"] == "unbounded"
    assert annotated.weights == {(e.source, e.target): 0.0 for e in report.edges}
    with pytest.raises(ValueError, match="cannot disclose an empty DFG"):
        disclose(dfg, p1(MAX, 0.4, runs=3))


def test_a_time_unit_equal_to_the_dfg_unit_keeps_its_durations(clinic_dfg):
    assert clinic_dfg.time_unit == "ns"
    annotated, report = disclose(clinic_dfg, p1(MAX, 0.4, time_unit="ns"))
    assert report.time_unit == annotated.dfg.time_unit == "ns"
    assert [(e.source, e.target, e.true_value) for e in report.edges] == [
        (e.source, e.target, aggregate(e, MAX)) for e in clinic_dfg.sorted_edges() if not e.is_boundary
    ]


def test_time_unit_override(clinic_dfg):
    _, report = disclose(clinic_dfg, p1(MAX, 0.4, precision=0.1, time_unit="min"))
    assert report.time_unit == "min"
    assert by_key(report)[("A", "C")].true_value == pytest.approx(900.0)


def test_request_rejects_an_unknown_time_unit():
    # Rejected when the request is built, for a frequency request too, which
    # never converts a unit and would otherwise echo the name in its JSON.
    for aggregation in (FREQ, MAX):
        with pytest.raises(ValueError, match="^unknown time unit 'weeks'; expected one of ns, us, ms, s, min, h, d$"):
            p1(aggregation, 0.4, time_unit="weeks")


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_request_rejects_a_boundary_flag_that_is_not_a_bool(flag):
    # A truthy "no" would keep the boundary edges and echo "no" in the JSON.
    with pytest.raises(TypeError, match=f"^include_boundary_time must be a bool, got {flag!r}$"):
        p1(MAX, 0.4, include_boundary_time=flag)
    with pytest.raises(TypeError, match="^include_boundary_time must be a bool"):
        SweepSpec(logs=(LogSource("clinic", path="clinic.csv"),), include_boundary_time=flag)


def test_a_bool_boundary_flag_is_echoed_as_given(clinic_dfg):
    for flag, count in ((True, 8), (False, 5)):
        _, report = disclose(clinic_dfg, p1(MAX, 0.4, include_boundary_time=flag))
        assert len(report.edges) == count
        assert report_to_dict(report)["parameters"]["include_boundary_time"] is flag


def test_empty_dfg_rejected():
    with pytest.raises(ValueError, match="empty"):
        disclose(Dfg(frozenset(), {}, "ns"), p1(FREQ, 0.4))


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        DisclosureRequest(mode=Mode.P1, aggregation=FREQ)
    with pytest.raises(ValueError):
        DisclosureRequest(
            mode=Mode.P1, aggregation=FREQ, risk=RiskParams(0.4), utility=UtilityParams(0.3)
        )


def test_p2_utility_soundness_tail():
    log = parse_csv("case,activity,timestamp\nt,A,0\nt,B,5\n")
    dfg = build_dfg(log)
    runs = 1000
    _, report = disclose(dfg, p2(MAX, 0.3, precision=0.1, runs=runs, seed=3131))
    assert len(report.edges) == 1
    exceed = sum(1 for a in report.run_mapes if a > 0.3) / runs
    bound = 3.0 * math.sqrt(0.05 * 0.95 / runs)
    assert abs(exceed - 0.05) < bound


def test_emit_csv_shape(clinic_dfg):
    _, report = disclose(clinic_dfg, p2(MAX, 0.3, precision=0.1))
    lines = emit_csv(report).strip().split("\n")
    assert lines[0] == "source,target,true,epsilon,released,ape,delta"
    assert len(lines) == 1 + len(report.edges)
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_emit_json_round_trip(clinic_dfg):
    _, report = disclose(clinic_dfg, p1(MAX, 0.99, precision=0.1))
    payload = emit_json(report)
    assert json.loads(payload) == report_to_dict(report)
    parsed = json.loads(payload)
    assert parsed["schema_version"] == 1
    unbounded = [e for e in parsed["edges"] if e["epsilon"] == "unbounded"]
    assert unbounded  # vacuous-risk edges serialize as the string marker


EDGE_FIELDS = [
    "source", "target", "true_value", "epsilon", "noise_scale", "noisy_value", "released_value",
    "ape", "released_ape", "edge_delta", "degenerate", "boundary_constant",
]


def test_edge_disclosure_contract(clinic_dfg):
    import dpdfg

    assert dpdfg.EdgeDisclosure is EdgeDisclosure
    edge = EdgeDisclosure(
        source="A", target="B", true_value=3.0, epsilon=0.5, noise_scale=2.0, noisy_value=4.5,
        released_value=5.0, ape=0.5, released_ape=2.0 / 3.0, edge_delta=0.1,
    )
    assert (edge.degenerate, edge.boundary_constant) == (False, False)
    twin = EdgeDisclosure(*edge)
    assert twin == edge and hash(twin) == hash(edge) and len({edge, twin}) == 1
    with pytest.raises(AttributeError):
        edge.epsilon = 1.0
    # Each JSON edge object holds the fields in declaration order, with the
    # epsilon marker in place.
    _, report = disclose(clinic_dfg, p1(MAX, 0.99, precision=0.1, include_boundary_time=True))
    edges = report_to_dict(report)["edges"]
    assert [list(e) for e in edges] == [EDGE_FIELDS] * len(report.edges)
    assert {e["epsilon"] for e in edges if e["boundary_constant"]} == {"unbounded"}


DOT_IDENT = pp.QuotedString('"', esc_char="\\") | pp.Word(pp.alphanums + "_.")
DOT_ATTR = pp.Group(DOT_IDENT + pp.Suppress("=") + DOT_IDENT)
DOT_ATTRS = pp.Suppress("[") + pp.DelimitedList(DOT_ATTR) + pp.Suppress("]")
DOT_EDGE = pp.Group(DOT_IDENT("src") + pp.Suppress("->") + DOT_IDENT("dst") + pp.Group(pp.Optional(DOT_ATTRS)) + pp.Suppress(";"))
DOT_NODE = pp.Group(DOT_IDENT("node") + pp.Group(pp.Optional(DOT_ATTRS)) + pp.Suppress(";"))
DOT_GRAPH = (
    pp.Suppress(pp.Keyword("digraph"))
    + DOT_IDENT
    + pp.Suppress("{")
    + pp.ZeroOrMore(DOT_EDGE("edges*") | DOT_NODE("nodes*"))
    + pp.Suppress("}")
)


def test_emit_dot_parses_under_independent_grammar(clinic_dfg):
    annotated, report = disclose(clinic_dfg, p1(MAX, 0.4, precision=0.1))
    text = emit_dot(annotated, report)
    parsed = DOT_GRAPH.parse_string(text, parse_all=True)
    node_names = {n[0] for n in parsed.nodes}
    assert node_names == set(clinic_dfg.activities) | {START_END}
    edge_pairs = {(e["src"], e["dst"]) for e in parsed.edges}
    assert edge_pairs == set(annotated.weights)


def test_emit_dot_debug_annotations(clinic_dfg):
    annotated, report = disclose(clinic_dfg, p1(FREQ, 0.4))
    text = emit_dot(annotated, report, annotate_debug=True)
    DOT_GRAPH.parse_string(text, parse_all=True)
    # annotations are separated by single-backslash DOT line breaks
    assert "\\neps=" in text and "\\nape=" in text
    assert "\\\\n" not in text


def test_emit_dot_debug_labels_need_the_report(clinic_dfg):
    annotated, report = disclose(clinic_dfg, p1(FREQ, 0.4))
    with pytest.raises(ValueError, match="annotate_debug needs the report"):
        emit_dot(annotated, annotate_debug=True)
    assert emit_dot(annotated, report, annotate_debug=True) != emit_dot(annotated)


def test_emit_dot_escapes_label_characters():
    log = parse_csv('case,activity,timestamp\nt,"say ""hi""",1\nt,B,2\n')
    dfg = build_dfg(log)
    annotated, report = disclose(dfg, p1(FREQ, 0.4))
    text = emit_dot(annotated, report)
    parsed = DOT_GRAPH.parse_string(text, parse_all=True)
    assert 'say "hi"' in {n[0] for n in parsed.nodes}


def test_disclose_dispatches_on_mode(clinic_dfg):
    _, a = disclose(clinic_dfg, p1(FREQ, 0.4))
    _, b = disclose(clinic_dfg, p2(FREQ, 0.3))
    assert a.request.mode is Mode.P1 and b.request.mode is Mode.P2


def _oracle_delta(epsilon: float, r: float, priors: list[float] | None) -> float:
    """The advantage over the given priors below 1, or over all priors."""
    if priors is None:
        return worst_case_delta_time(epsilon, r)
    return max([0.0, *(delta_from_epsilon_time(p, epsilon, r) for p in priors if p < 1.0)])


def _certified(epsilon: float, inverted: float, delta: float, r: float, priors: list[float] | None) -> bool:
    """P1's certified rule: the inverted epsilon where its advantage is at
    most delta, else a smaller epsilon whose advantage is at most delta and
    whose next float up exceeds it."""
    if _oracle_delta(inverted, r, priors) <= delta:
        return epsilon == inverted
    above = math.nextafter(epsilon, math.inf)
    return epsilon < inverted and _oracle_delta(epsilon, r, priors) <= delta < _oracle_delta(above, r, priors)


def test_edge_delta_equals_the_prior_oracle_and_p1_epsilon_is_certified():
    # Each mode reports the advantage its epsilon leaves, and P1 derives that
    # epsilon from the advantage target; recompute both occurrence by
    # occurrence from empirical_prior, bit for bit. A degenerate edge takes
    # the advantage maximized over all priors in either mode, over range 1
    # where its range is not positive.
    rng = random.Random(20240917)
    deltas = random.Random(20240918)
    checked = degenerate = stepped = 0
    for i in range(30):
        spec = SyntheticLogSpec(
            trace_count=rng.randint(3, 40),
            n_activities=rng.randint(2, 6),
            n_variants=rng.choice([None, 1, 3, 6]),
            duration_log_sigma=rng.uniform(0.3, 1.5),
            min_trace_len=2,
            max_trace_len=6,
        )
        dfg = build_dfg(generate_log(spec, seed=i))
        for kind in (k for k in AggregationKind if k.is_time):
            for precision in (0.1, 0.5):
                requests = (
                    p2(kind, rng.uniform(0.05, 1.5), precision, seed=i),
                    p1(kind, deltas.uniform(0.05, 0.95), precision, seed=i),
                )
                for request in requests:
                    annotated, report = disclose(dfg, request)
                    for e in report.edges:
                        durations = annotated.dfg.edges[(e.source, e.target)].durations
                        r = max(durations)
                        assert e.degenerate == (len(durations) == 1 or r <= 0.0), (i, request, e)
                        if e.degenerate:
                            r, priors = (r if r > 0.0 else 1.0), None
                            degenerate += 1
                        else:
                            priors = [empirical_prior(durations, t, precision, r) for t in durations]
                        if request.risk is not None:
                            delta = request.risk.delta
                            inverted = min(
                                UNBOUNDED if delta + p >= 1.0 else epsilon_from_delta(p, delta, r)
                                for p in priors or [worst_case_prior(delta)]
                            )
                            assert _certified(e.epsilon, inverted, delta, r, priors), (i, request, e)
                            stepped += e.epsilon != inverted
                        assert e.edge_delta == _oracle_delta(e.epsilon, r, priors), (i, request, e)
                        checked += 1
    assert 0 < degenerate < checked
    assert 0 < stepped


SAMPLE_DELTAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 0.99)


def _sample_dfgs(clinic_dfg) -> list[Dfg]:
    """The clinic DFG and those of the five checked-in CSVs."""
    names = ("simple", "simple-30", "skewed", "unique", "unique-20")
    return [clinic_dfg, *(build_dfg(read_log(DATA / f"{name}.csv", mapping=CANONICAL_MAPPING)) for name in names)]


def test_p1_edge_delta_is_at_most_delta_exactly(clinic_dfg):
    # Inverting the advantage in floats lands an ulp or two above delta on
    # about 4 in 10 of these edges; the certified epsilon leaves none above.
    edges = 0
    for dfg in _sample_dfgs(clinic_dfg):
        for kind in AggregationKind:
            for precision in (0.1, 0.5):
                for delta in SAMPLE_DELTAS:
                    _, report = disclose(dfg, p1(kind, delta, precision))
                    over = [e for e in report.edges if e.edge_delta > delta]
                    assert not over, (kind, precision, delta, over)
                    edges += len(report.edges)
    assert edges == 20_940


def _oracle_aggregate(values: list[float], kind: AggregationKind) -> float:
    if kind is AggregationKind.MIN:
        return min(values)
    if kind is AggregationKind.MAX:
        return max(values)
    total = math.fsum(values)
    return total / len(values) if kind is AggregationKind.AVG else total


def _window_advantage(durations: tuple[float, ...], i: int, kind: AggregationKind, precision: float, b: float) -> float:
    """The adversary's largest gain on occurrence i's window |v - d_i| <=
    precision * r, r the largest duration, by Bayes' rule. The others are
    fixed and the target takes each observed duration d_j with weight 1/n,
    so the release is f_j + Lap(b), f_j the aggregate with d_j in place.
    Between two kinks y = f_j the posterior of the window is a ratio of two
    functions a + c*exp(2y/b), hence monotone, and beyond the extremes it is
    constant, so its supremum is at a kink. At b = 0 the release is some f_j
    exactly.
    """
    window = precision * max(durations)
    hits = [abs(d - durations[i]) <= window for d in durations]
    prior = sum(hits) / len(durations)
    outputs = [_oracle_aggregate([*durations[:i], d, *durations[i + 1:]], kind) for d in durations]
    advantage = 0.0
    for y in set(outputs):
        weights = [float(f == y) if b == 0.0 else math.exp(-abs(y - f) / b) for f in outputs]
        posterior = math.fsum(w for w, hit in zip(weights, hits) if hit) / math.fsum(weights)
        advantage = max(advantage, posterior - prior)
    return advantage


def test_the_bayes_posterior_of_every_window_is_within_the_reported_advantage(clinic_dfg):
    # An oracle of the chain from durations to the report that shares no
    # code with it: units, range, sensitivity, noise scale and priors, in
    # both modes, on every non-boundary-constant time edge of at most 12
    # occurrences.
    edges = close = 0
    for dfg in _sample_dfgs(clinic_dfg):
        for kind in (k for k in AggregationKind if k.is_time):
            for precision in (0.1, 0.5):
                requests = [p1(kind, delta, precision) for delta in (0.05, 0.2, 0.4, 0.7, 0.99)]
                requests += [p2(kind, target, precision) for target in (0.1, 0.5, 1.5)]
                for request in requests:
                    annotated, report = disclose(dfg, request)
                    for e in report.edges:
                        durations = annotated.dfg.edges[(e.source, e.target)].durations
                        if e.boundary_constant or len(durations) > 12:
                            continue
                        worst = max(
                            _window_advantage(durations, i, kind, precision, e.noise_scale)
                            for i in range(len(durations))
                        )
                        assert worst <= e.edge_delta, (request, e, worst)
                        edges += 1
                        close += worst > e.edge_delta / 2
    assert edges == 11_392
    # Not vacuous: on some edges the oracle comes within half of the bound.
    assert close > 0


def test_p1_unbounded_epsilon_needs_the_forward_advantage_within_delta():
    # Priors {0.99, 1.0} at precision 0.5: 0.01 + 0.99 rounds to 1, which
    # once released this edge's max exactly, though the advantage 1 - 0.99
    # at an unbounded epsilon is 0.010000000000000009 > 0.01.
    durations = (5.0,) * 98 + (0.0, 10.0)
    rows = ["case,activity,timestamp"]
    for i, duration in enumerate(durations):
        rows += [f"c{i},A,0", f"c{i},B,{duration}"]
    dfg = build_dfg(parse_csv("\n".join(rows) + "\n"))
    request = p1(MAX, 0.01, 0.5, seed=1)
    (prepared,) = prepare(dfg, request).edges
    assert (prepared.r, prepared.priors) == (10.0, (0.99, 1.0))
    assert 1.0 - 0.99 > 0.01 and 0.01 + 0.99 >= 1.0
    _, report = disclose(dfg, request)
    (edge,) = report.edges
    assert edge.true_value == 10.0
    assert edge.epsilon < UNBOUNDED and edge.noise_scale > 0.0
    assert edge.released_value != 10.0
    assert edge.edge_delta <= 0.01
    assert edge_delta(math.nextafter(edge.epsilon, math.inf), 10.0, (0.99, 1.0)) > 0.01
    # A vacuous target still releases the edge exactly.
    _, report = disclose(dfg, p1(MAX, 0.02, 0.5, seed=1))
    assert report.edges[0].epsilon == UNBOUNDED and report.edges[0].released_value == 10.0


def test_shared_draw_memo_matches_fresh_draws_cell_by_cell():
    # run_sweep prepares each (log, aggregation) once and shares one memo of
    # unit draws across every log and cell of a grid; each row must come out
    # as a release with no memo gives it, in every column but the clock.
    logs = (
        LogSource("unique", synthetic=profile_spec("unique", 12), gen_seed=4),
        LogSource("skewed", synthetic=profile_spec("skewed", 25), gen_seed=5),
    )
    degenerate = unbounded = 0
    for include_boundary_time in (False, True):
        spec = SweepSpec(
            logs=logs, deltas=(0.1, 0.6), mapes=(0.2, 1.0), aggregations=tuple(AggregationKind), runs=3, seed=41,
            include_boundary_time=include_boundary_time,
        )
        grid = list(csv.reader(io.StringIO(run_sweep(spec))))
        assert grid[0] == GRID_HEADER
        clock = GRID_HEADER.index("wall_clock_ms")
        expected, draws, noised = [], {}, 0
        for source in spec.logs:
            dfg = build_dfg(source.load(spec.seed))
            for request in spec.requests:
                fresh = disclose(dfg, request)[1]
                report = release(prepare(dfg, request), request, draws)
                assert report == fresh, (source.name, request)
                assert emit_json(report) == emit_json(fresh)
                # Every run's noise is the reference draw of its own stream;
                # boundary-constant edges are released exactly, outside MAPE.
                edges = [e for e in fresh.edges if not e.boundary_constant]
                for run in range(request.runs):
                    noisy = [
                        e.true_value + sample_laplace(e.noise_scale, NoiseStream(spec.seed, e.source, e.target, run))
                        for e in edges
                    ]
                    assert fresh.run_mapes[run] == mape([e.true_value for e in edges], noisy)
                param = request.risk.delta if request.mode is Mode.P1 else request.utility.mape_target
                expected.append([
                    source.name, request.aggregation.value, request.mode.value, repr(param),
                    show_epsilon(fresh.median_epsilon, repr), repr(fresh.mape), repr(_se(fresh.run_mapes)),
                    repr(fresh.smape), repr(_se(fresh.run_smapes)), repr(median(e.edge_delta for e in fresh.edges)),
                    repr(fresh.overall_delta), "", "",
                ])
                noised += sum(e.noise_scale > 0.0 for e in fresh.edges) * request.runs
                degenerate += sum(e.degenerate for e in fresh.edges)
                unbounded += sum(e.epsilon == UNBOUNDED and not e.boundary_constant for e in fresh.edges)
        for row in grid[1:]:
            row[clock] = ""
        assert grid[1:] == expected
        assert len(expected) == 2 * len(spec.requests) == 2 * 5 * 4
        # Each stream is drawn once, however many cells scale it.
        assert 0 < sum(map(len, draws.values())) < noised
    assert degenerate > 0 and unbounded > 0


def test_release_rejects_a_request_the_preparation_did_not_see(clinic_dfg):
    prepared = prepare(clinic_dfg, p1(MAX, 0.4))
    for request in (
        p1(FREQ, 0.4),
        p1(MAX, 0.4, precision=0.1),
        p1(MAX, 0.4, include_boundary_time=True),
        p1(MAX, 0.4, time_unit="h"),
    ):
        with pytest.raises(ValueError, match="differs from the prepared"):
            release(prepared, request)
    # Mode, targets, seed and runs are the release's own.
    report = release(prepared, p2(MAX, 0.3, seed=3, runs=2))
    assert report == disclose(clinic_dfg, p2(MAX, 0.3, seed=3, runs=2))[1]


def test_one_memo_serves_dfgs_with_the_same_edges_and_other_durations():
    # The memo holds unit draws only: a DFG disclosed after another with the
    # same edge keys gets its own weights, priors and units, not the first's.
    log = generate_log(profile_spec("skewed", 20), 7)
    stretched = EventLog({
        case: tuple((a, ts + i * i * 3_600_000_000_000) for i, (a, ts) in enumerate(events))
        for case, events in log.traces.items()
    })
    first, second = build_dfg(log), build_dfg(stretched)
    assert first.edges.keys() == second.edges.keys() and first != second
    draws = {}
    for kind in AggregationKind:
        for request in (p1(kind, 0.3, runs=2), p2(kind, 0.4, runs=2)):
            reports = [release(prepare(dfg, request), request, draws) for dfg in (first, second)]
            assert reports == [disclose(dfg, request)[1] for dfg in (first, second)]
            # Frequencies match; every time weight differs.
            assert (reports[0].edges != reports[1].edges) == kind.is_time


# Small generated logs of every profile, as a (name, trace count, generation
# seed) triple.
SMALL_LOGS = st.tuples(st.sampled_from(sorted(PROFILES)), st.integers(2, 25), st.integers(0, 2**16))
NOISE_SEEDS = st.integers(-(2**40), 2**40)


def small_dfg(log):
    name, traces, gen_seed = log
    return build_dfg(generate_log(profile_spec(name, traces), gen_seed))


@settings(max_examples=40, deadline=None)
@given(
    log=SMALL_LOGS,
    kind=st.sampled_from(AggregationKind),
    deltas=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=4, unique=True),
    seed=NOISE_SEEDS,
)
def test_p1_run_mape_is_non_increasing_in_delta(log, kind, deltas, seed):
    # One seed draws the same unit noise per (edge, run) in every cell, and
    # a larger delta never gives an edge a larger noise scale.
    dfg = small_dfg(log)
    reports = [disclose(dfg, p1(kind, d, seed=seed, runs=4))[1] for d in sorted(deltas)]
    for lower, higher in zip(reports, reports[1:]):
        assert all(a >= b for a, b in zip(lower.run_mapes, higher.run_mapes)), (lower.run_mapes, higher.run_mapes)


@settings(max_examples=40, deadline=None)
@given(
    log=SMALL_LOGS,
    kind=st.sampled_from(AggregationKind),
    targets=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4, unique=True),
    seed=NOISE_SEEDS,
)
def test_p2_error_and_advantage_are_monotone_in_the_target(log, kind, targets, seed):
    # A looser error target never lowers an edge's noise scale, so run MAPE
    # cannot fall and the graph's advantage cannot rise.
    dfg = small_dfg(log)
    reports = [disclose(dfg, p2(kind, t, seed=seed, runs=4))[1] for t in sorted(targets)]
    for tight, loose in zip(reports, reports[1:]):
        assert all(a <= b for a, b in zip(tight.run_mapes, loose.run_mapes)), (tight.run_mapes, loose.run_mapes)
        assert tight.overall_delta >= loose.overall_delta


def _reference_release(prepared, request) -> DisclosureReport:
    """A release of ``prepared`` edge by edge, and each edge run by run,
    from the scalar oracles: every edge calibrated on its own, each run's
    noise a ``sample_laplace`` of its own ``NoiseStream``, then
    ``post_process``, ``ape`` and ``sape``, and each run's MAPE and SMAPE an
    ``ordered_sum`` over the noised edges in sorted order."""
    kind, runs = request.aggregation, request.runs
    edges, errors = [], []
    for edge in prepared.edges:
        true_value = edge.true_value
        if edge.boundary_constant:
            edges.append(EdgeDisclosure(
                edge.source, edge.target, true_value, UNBOUNDED, 0.0, true_value, true_value, None, None, 0.0,
                boundary_constant=True,
            ))
            continue
        if request.mode is Mode.P2:
            alpha = alpha_per_edge(true_value, request.utility.mape_target)
            eps = epsilon_from_alpha(edge.sensitivity, alpha, request.utility.beta)
        else:
            eps = epsilon_time(request.risk.delta, edge.r, edge.priors)[0]
        scale = 0.0 if eps == UNBOUNDED else edge.sensitivity / eps
        noisy = [
            true_value + sample_laplace(scale, NoiseStream(request.seed, edge.source, edge.target, run))
            for run in range(runs)
        ]
        released = [post_process(value, kind) for value in noisy]
        apes = [ape(true_value, value) for value in noisy]
        sapes = [sape(true_value, value) for value in released]
        edges.append(EdgeDisclosure(
            edge.source, edge.target, true_value, eps, scale, noisy[0], released[0], apes[0],
            ape(true_value, released[0]), edge_delta(eps, edge.r, edge.priors),
            degenerate=kind.is_time and edge.priors is None,
        ))
        errors.append((apes, sapes))
    count = len(errors)
    run_mapes = [ordered_sum(apes[run] for apes, _ in errors) / count if count else 0.0 for run in range(runs)]
    run_smapes = [ordered_sum(sapes[run] for _, sapes in errors) / count if count else 0.0 for run in range(runs)]
    return DisclosureReport(
        request, prepared.dfg.time_unit if kind.is_time else None, edges,
        ordered_sum(run_mapes) / runs, ordered_sum(run_smapes) / runs, median(e.epsilon for e in edges),
        max(e.edge_delta for e in edges), run_mapes, run_smapes,
    )


def _exact(value):
    """``value`` with every float replaced by its bits, so that -0.0 and
    0.0 differ and NaN equals itself."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return tuple(map(_exact, value))
    return value


def _release_outcome(compute) -> tuple:
    """Every field of the report ``compute`` returns, floats as bits, or
    the type and text of its error."""
    try:
        report = compute()
    except Exception as exc:
        return (type(exc), str(exc))
    return _exact((
        report.time_unit, report.edges, report.run_mapes, report.run_smapes, report.mape, report.smape,
        report.median_epsilon, report.overall_delta,
    ))


def _dfg_of(*traces: str) -> Dfg:
    """The DFG of one case per trace, a trace being ``"A@0 B@5"``: each
    event's activity and timestamp."""
    rows = ["case,activity,timestamp"]
    for case, trace in enumerate(traces):
        rows += [f"c{case},{event.replace('@', ',')}" for event in trace.split()]
    return build_dfg(parse_csv("\n".join(rows) + "\n"))


def _zero_weight_dfg() -> Dfg:
    """Three cases, each with A and B at the same instant: every time
    aggregation of (A, B) is 0."""
    return _dfg_of("A@0 B@0", "A@7 B@7", "A@19 B@19")


def _assert_release_is_the_reference(dfg, request, draws) -> tuple:
    """The outcome of ``release`` with ``draws`` must be the reference's,
    bit for bit; returns it."""
    prepared = prepare(dfg, request)
    expected = _release_outcome(lambda: _reference_release(prepared, request))
    assert _release_outcome(lambda: release(prepared, request, draws)) == expected, request
    return expected


RELEASE_LOGS = st.one_of(SMALL_LOGS.map(small_dfg), st.just(_zero_weight_dfg()))


@settings(max_examples=60, deadline=None)
@given(
    dfg=RELEASE_LOGS,
    mode=st.sampled_from(Mode),
    kind=st.sampled_from(AggregationKind),
    delta=st.floats(0.01, 0.99),
    target=st.floats(0.05, 2.0),
    precision=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    runs=st.integers(1, 12),
    include_boundary_time=st.booleans(),
    seed=NOISE_SEEDS,
    warm_runs=st.one_of(st.none(), st.integers(1, 12)),
)
@example(
    dfg=_zero_weight_dfg(), mode=Mode.P1, kind=AggregationKind.MIN, delta=0.3, target=0.5, precision=0.5,
    runs=3, include_boundary_time=False, seed=1, warm_runs=None,
)
@example(
    dfg=_zero_weight_dfg(), mode=Mode.P2, kind=AggregationKind.MIN, delta=0.3, target=0.5, precision=0.5,
    runs=3, include_boundary_time=True, seed=1, warm_runs=2,
)
# Edges without priors that share a calibration in P2 only where range,
# sensitivity and weight agree: frequency edges of one weight, two
# single-occurrence time edges of one duration, and frequency edges that
# differ only in weight.
@example(
    dfg=_dfg_of("A@0 B@1 C@2", "A@0 B@3 C@4", "A@5 B@6 C@9"), mode=Mode.P2, kind=FREQ, delta=0.3, target=0.5,
    precision=0.5, runs=3, include_boundary_time=False, seed=1, warm_runs=None,
)
@example(
    dfg=_dfg_of("A@0 B@5 C@10"), mode=Mode.P2, kind=MAX, delta=0.3, target=0.5, precision=0.5,
    runs=3, include_boundary_time=True, seed=1, warm_runs=None,
)
@example(
    dfg=_dfg_of("A@0 B@1", "A@0 B@3", "A@5 C@6"), mode=Mode.P2, kind=FREQ, delta=0.3, target=0.5,
    precision=0.5, runs=3, include_boundary_time=False, seed=1, warm_runs=None,
)
def test_release_is_bitwise_the_edge_by_edge_reference(
    dfg, mode, kind, delta, target, precision, runs, include_boundary_time, seed, warm_runs
):
    # warm_runs None releases with a fresh memo; otherwise the memo is
    # shared with a release of warm_runs runs, whose columns are shorter,
    # as long, or longer than this request reads.
    def request(runs):
        extra = dict(seed=seed, runs=runs, include_boundary_time=include_boundary_time)
        return p1(kind, delta, precision, **extra) if mode is Mode.P1 else p2(kind, target, precision, **extra)

    draws = {}
    if warm_runs is not None:
        try:
            release(prepare(dfg, request(warm_runs)), request(warm_runs), draws)
        except ValueError:
            pass
    _assert_release_is_the_reference(dfg, request(runs), draws)


def test_release_is_the_reference_on_the_sample_logs(clinic_dfg):
    # Fixed inputs that reach every kind of edge: boundary-constant,
    # degenerate, unbounded (scale 0), and the zero-weight errors.
    counts = dict.fromkeys(("boundary_constant", "degenerate", "unbounded", "noised", "error"), 0)
    shared = {}
    for dfg in (*_sample_dfgs(clinic_dfg), _zero_weight_dfg()):
        for kind in AggregationKind:
            for include_boundary_time in (False, True):
                requests = [
                    p1(kind, delta, seed=9, runs=runs, include_boundary_time=include_boundary_time)
                    for delta, runs in ((0.05, 12), (0.5, 1), (0.99, 5))
                ]
                requests += [
                    p2(kind, target, seed=9, runs=runs, include_boundary_time=include_boundary_time)
                    for target, runs in ((0.1, 5), (1.5, 12))
                ]
                for request in requests:
                    outcome = _assert_release_is_the_reference(dfg, request, {})
                    assert _release_outcome(lambda: release(prepare(dfg, request), request, shared)) == outcome
                    if outcome[0] is ValueError:
                        counts["error"] += 1
                        continue
                    for e in release(prepare(dfg, request), request).edges:
                        counts["boundary_constant"] += e.boundary_constant
                        counts["degenerate"] += e.degenerate
                        counts["unbounded"] += e.noise_scale == 0.0 and not e.boundary_constant
                        counts["noised"] += e.noise_scale > 0.0
    assert all(counts.values()), counts


@pytest.mark.parametrize("kind", [k for k in AggregationKind if k.is_time])
def test_a_zero_weight_time_edge_fails_the_release(kind):
    # (A, B) has weight 0 under every time aggregation: P1 noises it and
    # its APE has no denominator; P2 cannot scale an error target by it.
    dfg = _zero_weight_dfg()
    for include_boundary_time in (False, True):
        with pytest.raises(ValueError, match="^APE undefined for actual value 0$"):
            disclose(dfg, p1(kind, 0.4, include_boundary_time=include_boundary_time))
        with pytest.raises(ValueError, match="^edge weight must be positive, got 0.0$"):
            disclose(dfg, p2(kind, 0.5, include_boundary_time=include_boundary_time))
    # Its frequency is 3 and releases in both modes.
    for request in (p1(FREQ, 0.4), p2(FREQ, 0.5)):
        assert by_key(disclose(dfg, request)[1])[("A", "B")].true_value == 3.0


@pytest.mark.parametrize("kind", [FREQ, MAX])
def test_a_long_release_holds_one_run_row_at_a_time(kind):
    # 4000 runs of 49 frequency or 36 max edges, with the unit draws already
    # in the memo: the release keeps run 0's row and one float per run for
    # MAPE and SMAPE, not a column of runs per edge (14 to 19 MB).
    dfg = build_dfg(read_log(DATA / "skewed.csv", mapping=CANONICAL_MAPPING))
    request = p1(kind, 0.4, runs=4000)
    prepared = prepare(dfg, request)
    draws = {}
    release(prepared, request, draws)
    tracemalloc.start()
    try:
        report = release(prepared, request, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.edges) == len(prepared.edges) and len(report.run_mapes) == 4000
    assert peak < 2_000_000, peak

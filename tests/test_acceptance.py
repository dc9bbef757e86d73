"""Acceptance criteria, one test per criterion. Each prints one PASS/FAIL
line; run with `pytest tests/test_acceptance.py -v -s` to see them all.
"""
import csv
import io
import math
import random

import numpy as np
import pytest

from dpdfg import AggregationKind, DfgEdge, Mode, RiskParams, UtilityParams, build_dfg
from dpdfg.bench import LogSource, SweepSpec, SyntheticLogSpec, generate_log, profile_spec, run_sweep
from dpdfg.cli import main
from dpdfg.dfg import START_END
from dpdfg.noise import NoiseStream, sample_laplace
from dpdfg.pipeline import DisclosureRequest, disclose
from dpdfg.risk import (
    UNBOUNDED,
    delta_from_epsilon_freq,
    delta_from_epsilon_time,
    empirical_prior,
    epsilon_freq,
    epsilon_from_delta,
    epsilon_time,
    time_priors,
    worst_case_delta_time,
    worst_case_prior,
)
from dpdfg.utility import alpha_per_edge, epsilon_from_alpha

from conftest import clinic_csv_text

FREQ = AggregationKind.FREQUENCY
MAX = AggregationKind.MAX


def check(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_p1_frequency_worked_example():
    eps = epsilon_freq(0.4)
    ok = abs(eps - 1.695) <= 1e-3
    assert check("C1", ok, f"delta=0.4 -> epsilon={eps:.6f} (target 1.695 +- 0.001)"), eps


def test_c02_p1_time_worked_example():
    edge = DfgEdge("A", "C", (1.0, 6.0, 15.0))
    r, priors = time_priors(edge, MAX, precision=0.1)
    epsilon, priors = epsilon_time(delta=0.4, r=r, priors=priors)
    priors_ok = all(abs(p - 1 / 3) < 1e-12 for p in priors)
    eps_ok = abs(epsilon - 0.114) <= 1e-3
    ok = priors_ok and eps_ok
    assert check(
        "C2", ok,
        f"priors={tuple(round(p, 6) for p in priors)} epsilon={epsilon:.6f} "
        f"(targets: all 1/3, 0.114 +- 0.001)",
    ), (epsilon, priors)


def test_c03_p2_time_worked_example():
    durations = (1.0, 6.0, 15.0)
    r = max(durations)
    beta = 0.05
    alpha = alpha_per_edge(r, 0.3)
    eps = epsilon_from_alpha(1.0, alpha, beta)
    delta = max(
        delta_from_epsilon_time(empirical_prior(durations, t, 0.1, r), eps, r) for t in durations
    )
    # Laplace tail P(|Lap(1/eps)| > alpha) = exp(-eps*alpha) = beta at alpha = 4.5.
    eps_target = math.log(1 / beta) / 4.5
    alpha_ok = abs(alpha - 4.5) <= 1e-9
    eps_ok = abs(eps - eps_target) <= 1e-9
    tail = math.exp(-eps * 4.5)
    tail_ok = abs(tail - beta) <= 1e-12
    delta_ok = abs(delta - 0.666) <= 1e-3
    ok = alpha_ok and eps_ok and tail_ok and delta_ok
    check(
        "C3", ok,
        f"alpha={alpha:.6f} ({'ok' if alpha_ok else 'MISS'}), "
        f"epsilon={eps:.6f} vs ln(20)/4.5 = {eps_target:.6f} +- 1e-9 ({'ok' if eps_ok else 'MISS'}), "
        f"tail exp(-epsilon*alpha)={tail:.6f} vs beta=0.05 "
        f"({'ok' if tail_ok else 'MISS'}), edge delta={delta:.6f} ({'ok' if delta_ok else 'MISS'})",
    )
    assert alpha_ok, alpha
    assert delta_ok, delta
    # An earlier 0.667 target was 3/4.5 (ln 20 rounded to 3), which disagrees with C4's 3.329.
    assert eps_ok, f"epsilon {eps} not within 1e-9 of ln(20)/4.5 = {eps_target}"
    assert tail_ok, f"exp(-epsilon*alpha) = {tail} is not beta = {beta}"


def test_c04_p2_frequency_worked_example():
    eps3 = epsilon_from_alpha(1.0, alpha_per_edge(3.0, 0.3), 0.05)
    delta3 = delta_from_epsilon_freq(eps3)
    eps1 = epsilon_from_alpha(1.0, alpha_per_edge(1.0, 0.3), 0.05)
    delta1 = delta_from_epsilon_freq(eps1)
    ok = abs(eps3 - 3.329) <= 1e-3 and abs(delta3 - 0.682) <= 1e-3 and abs(delta1 - 0.986) <= 1e-3
    assert check(
        "C4", ok,
        f"weight 3: epsilon={eps3:.6f}, delta={delta3:.6f}; weight 1: delta={delta1:.6f} "
        f"(targets 3.329, 0.682, 0.986, all +- 0.001)",
    ), (eps3, delta3, delta1)


def test_c05_round_trip_property_suite():
    rng = np.random.default_rng(20210416)
    n = 10_000
    priors = rng.uniform(1e-3, 0.999, size=n)
    fractions = rng.uniform(1e-3, 0.999, size=n)
    ranges = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
    worst_time = 0.0
    for p, u, r in zip(priors, fractions, ranges):
        delta = u * (1.0 - p)
        eps = epsilon_from_delta(p, delta, r)
        back = delta_from_epsilon_time(p, eps, r)
        worst_time = max(worst_time, abs(back - delta) / delta)
    worst_freq = 0.0
    for delta in rng.uniform(1e-3, 0.999, size=n):
        back = delta_from_epsilon_freq(epsilon_freq(delta))
        worst_freq = max(worst_freq, abs(back - delta) / delta)
    ok = worst_time <= 1e-9 and worst_freq <= 1e-9
    assert check(
        "C5", ok,
        f"10^4 triples per path: worst relative error time={worst_time:.3e}, "
        f"freq={worst_freq:.3e} (limit 1e-9)",
    ), (worst_time, worst_freq)


def test_c06_worst_case_prior_optimality():
    rng = np.random.default_rng(77)
    failures = 0
    for delta in rng.uniform(0.01, 0.99, size=100):
        best = epsilon_from_delta(worst_case_prior(delta), delta, 1.0)
        grid = np.arange(1e-3, 1.0 - delta, 1e-3)
        eps = [epsilon_from_delta(p, delta, 1.0) for p in grid]
        if not all(best <= e + 1e-12 for e in eps):
            failures += 1
    ok = failures == 0
    assert check(
        "C6", ok,
        f"100 random deltas, grid step 1e-3: (1-delta)/2 minimal in {100 - failures}/100 cases",
    ), failures


def test_c07_laplace_tail_statistics():
    combos = [(1.0, 4.5, 0.05), (1.0, 0.9, 0.05), (0.125, 0.3, 0.05), (2.0, 3.0, 0.1), (1.0, 1.0, 0.02)]
    n = 100_000
    details = []
    ok = True
    for i, (sens, alpha, beta) in enumerate(combos):
        eps = epsilon_from_alpha(sens, alpha, beta)
        scale = sens / eps
        stream = NoiseStream(4242, "tail", f"combo{i}", 0)
        exceed = sum(1 for _ in range(n) if abs(sample_laplace(scale, stream)) > alpha) / n
        bound = 3.0 * math.sqrt(beta * (1.0 - beta) / n)
        ok = ok and abs(exceed - beta) < bound
        details.append(f"beta={beta}: {exceed:.4f} (+-{bound:.4f})")
    assert check("C7", ok, "; ".join(details)), details


def _random_log_spec(rng: random.Random) -> SyntheticLogSpec:
    unique = rng.random() < 0.15
    return SyntheticLogSpec(
        trace_count=rng.randint(3, 18),
        n_activities=rng.randint(2, 6),
        n_variants=None if unique else rng.randint(1, 6),
        variant_distribution=rng.choice(["uniform", "zipf"]),
        duration_log_sigma=rng.uniform(0.3, 1.5),
        outlier_rate=rng.choice([0.0, 0.02]),
        min_trace_len=2,
        max_trace_len=6,
    )


def _recomputed_edge_delta(edge, disclosure, kind, risk: RiskParams) -> float:
    if disclosure.boundary_constant:
        return 0.0
    if kind is FREQ:
        return delta_from_epsilon_freq(disclosure.epsilon)
    r = max(edge.durations)
    if len(edge.durations) == 1 or r <= 0.0:
        r_eff = r if r > 0.0 else 1.0
        return delta_from_epsilon_time(worst_case_prior(risk.delta), disclosure.epsilon, r_eff)
    worst = 0.0
    for t in edge.durations:
        prior = empirical_prior(edge.durations, t, risk.precision, r)
        if prior < 1.0:
            worst = max(worst, delta_from_epsilon_time(prior, disclosure.epsilon, r))
    return worst


def test_c08_c09_node_preservation_and_p1_soundness():
    rng = random.Random(20210416)
    soundness_violations = 0
    preservation_violations = 0
    runs = 0
    for i in range(200):
        log = generate_log(_random_log_spec(rng), seed=1000 + i)
        dfg = build_dfg(log)
        include_boundary = i % 3 == 0
        delta = rng.uniform(0.05, 0.9)
        target = rng.uniform(0.05, 1.5)
        precision = rng.choice([0.1, 0.5])
        for kind in AggregationKind:
            eligible = {
                key for key, e in dfg.edges.items()
                if kind is FREQ or include_boundary or not e.is_boundary
            }
            requests = [
                DisclosureRequest(
                    mode=Mode.P1, aggregation=kind, risk=RiskParams(delta, precision),
                    precision=precision, seed=i, include_boundary_time=include_boundary,
                ),
                DisclosureRequest(
                    mode=Mode.P2, aggregation=kind, utility=UtilityParams(target),
                    precision=precision, seed=i, include_boundary_time=include_boundary,
                ),
            ]
            for request in requests:
                annotated, report = disclose(dfg, request)
                runs += 1
                if annotated.dfg.activities != dfg.activities:
                    preservation_violations += 1
                if set(annotated.weights) != eligible:
                    preservation_violations += 1
                if request.mode is Mode.P1:
                    for e in report.edges:
                        recomputed = _recomputed_edge_delta(
                            annotated.dfg.edges[(e.source, e.target)], e, kind, request.risk
                        )
                        if recomputed > delta + 1e-9:
                            soundness_violations += 1
    ok8 = preservation_violations == 0
    ok9 = soundness_violations == 0
    check("C8", ok8, f"{runs} disclosures over 200 logs: node/edge preservation violations={preservation_violations}")
    check("C9", ok9, f"P1 delta recomputed from applied epsilon: violations={soundness_violations}")
    assert ok8 and ok9


def test_c10_cli_determinism(tmp_path):
    log_path = tmp_path / "clinic.csv"
    log_path.write_text(clinic_csv_text(), encoding="utf-8")
    payloads = {}
    for fmt in ("json", "csv"):
        blobs = []
        for threads, name in ((1, "r1"), (1, "r2"), (8, "r8")):
            out = tmp_path / f"{name}.{fmt}"
            code = main([
                "anonymize", "--input", str(log_path), "--agg", "max",
                "--delta", "0.4", "--precision", "0.1", "--seed", "2024",
                "--runs", "3", "--threads", str(threads),
                "--format", fmt, "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        payloads[fmt] = blobs[0] == blobs[1] == blobs[2]
    ok = all(payloads.values())
    assert check(
        "C10", ok,
        f"byte-identical outputs across reruns and threads 1 vs 8: json={payloads['json']}, csv={payloads['csv']}",
    ), payloads


@pytest.fixture(scope="module")
def sweep_rows():
    spec = SweepSpec(
        logs=(
            LogSource(name="simple", synthetic=profile_spec("simple", 60), gen_seed=101),
            LogSource(name="skewed", synthetic=profile_spec("skewed", 100), gen_seed=202),
            LogSource(name="unique", synthetic=profile_spec("unique", 50), gen_seed=303),
        ),
        deltas=(0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9),
        mapes=(0.05, 0.1, 0.2, 0.4, 0.8, 1.5),
        aggregations=tuple(AggregationKind),
        runs=10,
        seed=11,
        precision=0.5,
    )
    return list(csv.DictReader(io.StringIO(run_sweep(spec))))


def _eps_value(text: str) -> float:
    return UNBOUNDED if text == "unbounded" else float(text)


def test_c11_desk_scale_trends(sweep_rows):
    assert all(r["error"] == "" for r in sweep_rows)
    problems = []
    groups = {}
    for row in sweep_rows:
        groups.setdefault((row["log"], row["aggregation"], row["mode"]), []).append(row)

    for (log, agg, mode), rows in groups.items():
        rows = sorted(rows, key=lambda r: float(r["param"]))
        label = f"{log}/{agg}"
        if mode == "P1":
            eps = [_eps_value(r["median_epsilon"]) for r in rows]
            for a, b in zip(eps, eps[1:]):
                if b < a:
                    problems.append(f"{label}: median epsilon decreased ({a} -> {b})")
                if a != UNBOUNDED and b != UNBOUNDED and not a < b:
                    problems.append(f"{label}: median epsilon not strictly increasing ({a} -> {b})")
            smapes = [float(r["smape"]) for r in rows]
            ses = [float(r["smape_se"]) for r in rows]
            for (s1, e1), (s2, e2) in zip(zip(smapes, ses), zip(smapes[1:], ses[1:])):
                if s2 > s1 + 2.0 * math.hypot(e1, e2):
                    problems.append(f"{label}: SMAPE increased with delta ({s1:.4f} -> {s2:.4f})")
        else:
            eps = [_eps_value(r["median_epsilon"]) for r in rows]
            if not all(a > b for a, b in zip(eps, eps[1:])):
                problems.append(f"{label}: P2 median epsilon not strictly decreasing")
            med_delta = [float(r["median_delta"]) for r in rows]
            for a, b in zip(med_delta, med_delta[1:]):
                if b > a + 1e-12:
                    problems.append(f"{label}: median delta increased with error target ({a} -> {b})")
            if not med_delta[0] > med_delta[-1]:
                problems.append(f"{label}: median delta shows no overall decrease")
    ok = not problems
    assert check(
        "C11", ok,
        f"{len(sweep_rows)} sweep cells over 3 profiles x 5 aggregations: "
        + ("all trends hold" if ok else "; ".join(problems[:4])),
    ), problems

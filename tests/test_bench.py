import csv
import io
from collections import Counter

import pytest

from dpdfg import AggregationKind, build_dfg
from dpdfg.bench import (
    GRID_HEADER,
    LogSource,
    SweepSpec,
    SyntheticLogSpec,
    generate_log,
    profile_spec,
    run_sweep,
    synthesize,
)
from dpdfg.dfg import aggregate, convert_unit
from dpdfg.eventlog import CANONICAL_MAPPING, parse_csv, to_canonical_csv


def rows_of(grid_csv: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(grid_csv)))


def test_generate_log_rejects_empty():
    with pytest.raises(ValueError, match="empty log"):
        SyntheticLogSpec(trace_count=0)


def test_generate_log_deterministic():
    spec = SyntheticLogSpec(trace_count=50, n_activities=5, n_variants=3)
    a = generate_log(spec, seed=11)
    b = generate_log(spec, seed=11)
    assert a == b
    assert generate_log(spec, seed=12) != a


def test_uniform_variant_counts_reproducible():
    spec = SyntheticLogSpec(trace_count=100, n_activities=4, n_variants=2)
    _, stats1 = synthesize(spec, seed=5)
    _, stats2 = synthesize(spec, seed=5)
    counts = Counter(stats1.variant_of_trace)
    assert counts == Counter(stats2.variant_of_trace)
    assert sum(counts.values()) == 100
    assert set(counts) <= {0, 1}


def test_zipf_variants_are_skewed():
    spec = SyntheticLogSpec(
        trace_count=400, n_activities=6, n_variants=10,
        variant_distribution="zipf", zipf_exponent=1.8,
    )
    _, stats = synthesize(spec, seed=9)
    counts = Counter(stats.variant_of_trace)
    assert counts[0] > 400 / 10  # head variant well above the uniform share


def test_outlier_injection_stretches_edges():
    spec = SyntheticLogSpec(
        trace_count=200, n_activities=4, n_variants=2,
        duration_log_sigma=0.3, outlier_rate=0.01, outlier_multiplier=60.0,
    )
    log, stats = synthesize(spec, seed=21)
    assert stats.outlier_edges, "seeded run must inject at least one outlier"
    dfg = convert_unit(build_dfg(log), "h")
    for key in stats.outlier_edges:
        edge = dfg.edges[key]
        ratio = max(edge.durations) / (sum(edge.durations) / len(edge.durations))
        assert ratio > 10.0


def test_unique_profile_has_many_variants():
    spec = profile_spec("unique", 40)
    _, stats = synthesize(spec, seed=2)
    assert len(set(stats.variant_of_trace)) == 40


def test_generated_log_canonical_round_trip_at_2000_traces():
    # Start times must stay inside int64 nanoseconds for the canonical CSV
    # of a log this size to re-parse.
    log = generate_log(profile_spec("skewed", 2000), 1)
    assert parse_csv(to_canonical_csv(log), CANONICAL_MAPPING) == log


def test_profile_spec_unknown_name():
    with pytest.raises(ValueError, match="unknown profile"):
        profile_spec("nope")


def test_profile_with_zero_traces_is_rejected():
    with pytest.raises(ValueError, match="empty log"):
        profile_spec("skewed", 0)
    with pytest.raises(ValueError, match="empty log"):
        SweepSpec.from_dict({"logs": [{"profile": "skewed", "traces": 0}]})


def _one_log_spec(**kw):
    source = LogSource(name="tiny", synthetic=SyntheticLogSpec(trace_count=30, n_variants=2), gen_seed=3)
    return SweepSpec(logs=(source,), **kw)


def test_run_sweep_epsilon_from_known_delta():
    spec = _one_log_spec(deltas=(0.4,), mapes=(), aggregations=(AggregationKind.FREQUENCY,), runs=2)
    rows = rows_of(run_sweep(spec))
    assert len(rows) == 1
    assert float(rows[0]["median_epsilon"]) == pytest.approx(1.695, abs=1e-3)
    assert rows[0]["error"] == ""


def test_run_sweep_row_count_and_order():
    spec = _one_log_spec(
        deltas=(0.2, 0.4), mapes=(0.3,), aggregations=(AggregationKind.FREQUENCY, AggregationKind.MAX),
        runs=1,
    )
    grid = run_sweep(spec)
    rows = rows_of(grid)
    assert list(rows[0].keys()) == GRID_HEADER
    assert len(rows) == 1 * 2 * (2 + 1)
    assert [(r["aggregation"], r["mode"], r["param"]) for r in rows] == [
        ("frequency", "P1", "0.2"), ("frequency", "P1", "0.4"), ("frequency", "P2", "0.3"),
        ("max", "P1", "0.2"), ("max", "P1", "0.4"), ("max", "P2", "0.3"),
    ]


def test_run_sweep_runs_do_not_change_calibration():
    one = rows_of(run_sweep(_one_log_spec(deltas=(0.3,), mapes=(0.4,), aggregations=(AggregationKind.MAX,), runs=1)))
    ten = rows_of(run_sweep(_one_log_spec(deltas=(0.3,), mapes=(0.4,), aggregations=(AggregationKind.MAX,), runs=10)))
    for a, b in zip(one, ten):
        assert a["median_epsilon"] == b["median_epsilon"]
        assert a["median_delta"] == b["median_delta"]
        assert a["max_delta"] == b["max_delta"]
    assert one[0]["mape"] != ten[0]["mape"]


def test_run_sweep_records_per_log_failures_and_continues(tmp_path):
    good = LogSource(name="ok", synthetic=SyntheticLogSpec(trace_count=10, n_variants=1), gen_seed=1)
    bad = LogSource(name="broken", path=str(tmp_path / "missing.csv"))
    spec = SweepSpec(logs=(bad, good), deltas=(0.4,), mapes=(), aggregations=(AggregationKind.FREQUENCY,))
    rows = rows_of(run_sweep(spec))
    assert len(rows) == 2
    assert rows[0]["log"] == "broken" and rows[0]["error"].startswith("ERROR")
    assert rows[1]["log"] == "ok" and rows[1]["error"] == ""


def test_run_sweep_threads_deterministic():
    spec = _one_log_spec(deltas=(0.2, 0.5), mapes=(0.3,), aggregations=(AggregationKind.FREQUENCY,), runs=2)
    serial = rows_of(run_sweep(spec, threads=1))
    parallel = rows_of(run_sweep(spec, threads=4))
    drop_clock = lambda rows: [{k: v for k, v in r.items() if k != "wall_clock_ms"} for r in rows]
    assert drop_clock(serial) == drop_clock(parallel)


def test_sweep_spec_from_dict_profiles():
    spec = SweepSpec.from_dict({
        "logs": [{"profile": "simple", "traces": 20}, {"profile": "unique"}],
        "deltas": [0.1, 0.4],
        "mapes": [0.3],
        "aggregations": ["frequency", "avg"],
        "runs": 3,
        "seed": 9,
    })
    assert [s.name for s in spec.logs] == ["simple", "unique"]
    assert spec.logs[0].synthetic.trace_count == 20
    assert spec.aggregations == (AggregationKind.FREQUENCY, AggregationKind.AVG)
    assert spec.runs == 3


def test_sweep_spec_validation():
    source = LogSource(name="x", synthetic=SyntheticLogSpec(trace_count=5))
    with pytest.raises(ValueError):
        SweepSpec(logs=())
    with pytest.raises(ValueError):
        SweepSpec(logs=(source,), deltas=(), mapes=())
    with pytest.raises(ValueError):
        SweepSpec(logs=(source,), aggregations=())


def test_sweep_spec_rejects_duplicate_log_names():
    with pytest.raises(ValueError, match="unique, repeated: log$"):
        SweepSpec.from_dict({"logs": ["a/log.csv", "b/log.csv", {"profile": "simple"}]})
    with pytest.raises(ValueError, match="repeated: simple$"):
        SweepSpec.from_dict({"logs": [{"profile": "simple"}, {"profile": "simple", "traces": 20}]})


def test_generated_log_activities_within_alphabet():
    spec = SyntheticLogSpec(trace_count=25, n_activities=3, n_variants=4)
    log = generate_log(spec, seed=1)
    dfg = build_dfg(log)
    assert dfg.activities <= {"a00", "a01", "a02"}
    # durations are strictly positive for real edges
    for key, edge in dfg.edges.items():
        if not edge.is_boundary:
            assert all(d > 0 for d in edge.durations)
            assert aggregate(edge, AggregationKind.MIN) > 0

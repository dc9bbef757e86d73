import csv
import io
import traceback
from collections import Counter

import pytest

from dpdfg import AggregationKind, DisclosureRequest, Mode, RiskParams, UtilityParams, build_dfg
from dpdfg.bench import (
    GRID_HEADER,
    LogSource,
    SweepSpec,
    SyntheticLogSpec,
    generate_log,
    profile_spec,
    run_sweep,
)
from dpdfg.dfg import aggregate, convert_unit
from dpdfg.eventlog import CANONICAL_MAPPING, parse_csv, to_canonical_csv

from conftest import clinic_csv_text


def rows_of(grid_csv: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(grid_csv)))


def test_generate_log_rejects_empty():
    bounds = "^trace length bounds must satisfy 1 <= min <= max$"
    for knobs, message in (
        ({"trace_count": 0}, "^empty log: trace_count must be positive$"),
        ({"n_activities": 0}, "^n_activities must be positive$"),
        ({"n_variants": 0}, "^n_variants must be positive$"),
        ({"variant_distribution": "normal"}, "^unknown variant distribution 'normal'$"),
        ({"outlier_rate": -0.1}, r"^outlier_rate must be in \[0,1\]$"),
        ({"outlier_rate": 1.5}, r"^outlier_rate must be in \[0,1\]$"),
        ({"min_trace_len": 0}, bounds),
        ({"min_trace_len": 5, "max_trace_len": 4}, bounds),
    ):
        with pytest.raises(ValueError, match=message):
            SyntheticLogSpec(**{"trace_count": 5, **knobs})


def test_generate_log_deterministic():
    spec = SyntheticLogSpec(trace_count=50, n_activities=5, n_variants=3)
    a = generate_log(spec, seed=11)
    b = generate_log(spec, seed=11)
    assert a == b
    assert generate_log(spec, seed=12) != a


def _sequence_counts(log) -> Counter:
    """How many cases follow each distinct activity sequence of ``log``."""
    return Counter(tuple(activity for activity, _ in events) for events in log.traces.values())


def test_uniform_variant_counts_reproducible():
    spec = SyntheticLogSpec(trace_count=100, n_activities=4, n_variants=2)
    counts = _sequence_counts(generate_log(spec, seed=5))
    assert counts == _sequence_counts(generate_log(spec, seed=5))
    assert sum(counts.values()) == 100
    assert len(counts) <= 2


def test_zipf_variants_are_skewed():
    spec = SyntheticLogSpec(
        trace_count=400, n_activities=6, n_variants=10,
        variant_distribution="zipf", zipf_exponent=1.8,
    )
    counts = _sequence_counts(generate_log(spec, seed=9))
    # The head sequence takes 246 of 400 at seed 9; a uniform draw's largest
    # count is about 50 (45-51 at seeds 0-9), so this fails without the weights.
    assert max(counts.values()) > 400 * 0.3


def test_outlier_injection_stretches_edges():
    # A multiplier of 1 draws the same numbers as 60 but stretches nothing,
    # so the edges whose gaps differ are the ones that got an outlier.
    spec = SyntheticLogSpec(
        trace_count=200, n_activities=4, n_variants=2,
        duration_log_sigma=0.3, outlier_rate=0.01, outlier_multiplier=60.0,
    )
    plain = convert_unit(build_dfg(generate_log(spec._replace(outlier_multiplier=1.0), seed=21)), "h")
    dfg = convert_unit(build_dfg(generate_log(spec, seed=21)), "h")
    assert dfg.edges.keys() == plain.edges.keys()
    stretched = [key for key in dfg.edges if dfg.edges[key].durations != plain.edges[key].durations]
    assert stretched, "seeded run must inject at least one outlier"
    for key in stretched:
        edge = dfg.edges[key]
        ratio = max(edge.durations) / (sum(edge.durations) / len(edge.durations))
        assert ratio > 10.0


def test_unique_profile_has_many_variants():
    counts = _sequence_counts(generate_log(profile_spec("unique", 40), seed=2))
    assert len(counts) == 40


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


def test_sweep_requests_are_the_grid_in_row_order():
    freq, avg = AggregationKind.FREQUENCY, AggregationKind.AVG
    spec = _one_log_spec(deltas=(0.2, 0.4), mapes=(0.3,), aggregations=(freq, avg), runs=3, seed=-2, precision=0.25,
                         beta=0.1, include_boundary_time=True)
    shared = {"precision": 0.25, "seed": -2, "runs": 3, "include_boundary_time": True}
    assert spec.requests() == tuple(
        DisclosureRequest(mode, kind, risk, utility, **shared)
        for kind in (freq, avg)
        for mode, risk, utility in (
            (Mode.P1, RiskParams(0.2, 0.25), None),
            (Mode.P1, RiskParams(0.4, 0.25), None),
            (Mode.P2, None, UtilityParams(0.3, 0.1)),
        )
    )
    assert [r.utility.mape_target for r in spec._replace(deltas=()).requests()] == [0.3, 0.3]


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


def test_run_sweep_records_a_delta_too_small_as_an_error_row():
    spec = _one_log_spec(deltas=(1e-17, 0.4), mapes=(), aggregations=(AggregationKind.FREQUENCY, AggregationKind.MAX))
    rows = rows_of(run_sweep(spec))
    assert [row["param"] for row in rows] == ["1e-17", "0.4"] * 2
    for tiny, fine in (rows[:2], rows[2:]):
        assert tiny["error"].startswith("ERROR: delta 1e-17 is too small: its epsilon computes to ")
        assert not any(list(tiny.values())[4:-1]) and fine["error"] == ""


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


def test_run_sweep_reports_a_failed_load_without_re_raising_it():
    # A log that fails to load gives one ERROR row per cell; its one
    # exception is not raised again per cell, which would add a traceback
    # entry each time.
    class MissingLog(LogSource):
        def load(self, default_seed):
            raise error

    for deltas in ((0.1, 0.4), (0.1, 0.2, 0.4, 0.8)):
        error = OSError("no such log")
        spec = SweepSpec(
            logs=(MissingLog("gone"),), deltas=deltas, mapes=(0.3, 0.5),
            aggregations=(AggregationKind.FREQUENCY, AggregationKind.MAX),
        )
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))[1:]
        assert len(rows) == 2 * (len(deltas) + 2)
        assert all(row[-1] == "ERROR: no such log" and not any(row[4:-1]) for row in rows)
        assert len(list(traceback.walk_tb(error.__traceback__))) <= 2


def test_log_source_says_what_it_lacks(tmp_path):
    with pytest.raises(ValueError, match="^sweep log 'y' has both a path and a synthetic spec$"):
        LogSource("y", path=str(tmp_path / "y.csv"), synthetic=SyntheticLogSpec(trace_count=5))
    message = "sweep log 'x' has neither a path nor a synthetic spec"
    with pytest.raises(ValueError, match=f"^{message}$"):
        LogSource("x").load(0)
    spec = SweepSpec(logs=(LogSource("x"),), deltas=(0.4,), mapes=(), aggregations=(AggregationKind.FREQUENCY,))
    assert [row["error"] for row in rows_of(run_sweep(spec))] == [f"ERROR: {message}"]


def test_sweep_config_takes_a_log_object_with_a_path(tmp_path):
    # {"path": ...} names its rows after "name", or the file's stem without it.
    path = tmp_path / "clinic.csv"
    path.write_text(clinic_csv_text(), encoding="utf-8")
    spec = SweepSpec.from_dict({
        "logs": [{"path": str(path), "name": "ward"}, {"path": str(path)}],
        "deltas": [0.4], "mapes": [], "aggregations": ["frequency"], "runs": 1,
    })
    assert [(s.name, s.path) for s in spec.logs] == [("ward", str(path)), ("clinic", str(path))]
    rows = rows_of(run_sweep(spec))
    assert [(r["log"], r["error"]) for r in rows] == [("ward", ""), ("clinic", "")]
    assert {k: v for k, v in rows[0].items() if k not in ("log", "wall_clock_ms")} == {
        k: v for k, v in rows[1].items() if k not in ("log", "wall_clock_ms")
    }


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


def test_sweep_spec_rejects_bad_config_before_any_log_loads():
    logs = ["does/not/exist.csv"]
    with pytest.raises(ValueError, match=r"^delta must be in \(0,1\), got 1.5$"):
        SweepSpec.from_dict({"logs": logs, "deltas": [1.5]})
    with pytest.raises(ValueError, match="^mape_target must be positive"):
        SweepSpec.from_dict({"logs": logs, "mapes": [0]})
    with pytest.raises(ValueError, match="^runs must be >= 1"):
        SweepSpec.from_dict({"logs": logs, "runs": 0})
    with pytest.raises(ValueError, match="^beta must be in"):
        SweepSpec.from_dict({"logs": logs, "beta": 1})
    # Also when the grid has no P2 cell to use it.
    with pytest.raises(ValueError, match=r"^beta must be in \(0,1\), got 7$"):
        SweepSpec.from_dict({"logs": logs, "mapes": [], "beta": 7})
    # And a P2-only grid checks its precision in each request.
    with pytest.raises(ValueError, match=r"^precision must be in \[0,1\], got 1.5$"):
        SweepSpec.from_dict({"logs": logs, "deltas": [], "precision": 1.5})
    for config in ([{"logs": logs}], {"logs": "ab.csv"}, {"deltas": [0.4]}):
        with pytest.raises(ValueError, match="^sweep config must be an object with a 'logs' list$"):
            SweepSpec.from_dict(config)
    with pytest.raises(TypeError):
        SweepSpec.from_dict({"logs": logs, "deltas": 0.4})
    with pytest.raises(TypeError):
        SweepSpec.from_dict({"logs": [{"profile": "skewed", "traces": "5"}]})
    # A stretch that is not positive would reorder (or zero) the gaps it hits.
    for multiplier in (-5, 0):
        with pytest.raises(ValueError, match=f"^outlier_multiplier must be positive, got {multiplier}$"):
            SweepSpec.from_dict(
                {"logs": [{"synthetic": {"trace_count": 30, "outlier_rate": 0.5, "outlier_multiplier": multiplier}}]}
            )


def test_sweep_spec_rejects_non_finite_error_targets():
    for target in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^mape_target must be positive and finite, got {target}$"):
            SweepSpec.from_dict({"logs": ["does/not/exist.csv"], "mapes": [target]})


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


def test_sweep_spec_from_dict_rejects_values_it_cannot_use():
    logs = ["does/not/exist.csv"]
    for key, value in (("deltas", 0.4), ("mapes", 0.3), ("aggregations", "max")):
        with pytest.raises(TypeError, match=f"^sweep config '{key}' must be a list, got {value!r}$"):
            SweepSpec.from_dict({"logs": logs, key: value})
    # A value the spec holds as the config gives it is checked by the spec.
    with pytest.raises(TypeError, match="^include_boundary_time must be a bool, got 'no'$"):
        SweepSpec.from_dict({"logs": logs, "include_boundary_time": "no"})
    for key, value in (("seed", "abc"), ("seed", 1.5), ("seed", True), ("runs", 2.5)):
        with pytest.raises(TypeError, match=f"^{key} must be an integer, got {value!r}$"):
            SweepSpec.from_dict({"logs": logs, key: value})
    with pytest.raises(ValueError, match="^sweep config: unknown key 'delta'; expected "):
        SweepSpec.from_dict({"logs": logs, "delta": [0.4]})
    with pytest.raises(ValueError, match="^sweep log 0: unknown key 'trace'; expected gen_seed, name, profile, traces$"):
        SweepSpec.from_dict({"logs": [{"profile": "unique", "trace": 5}]})
    with pytest.raises(ValueError, match="^sweep log 1: unknown key 'traces'; expected name, path$"):
        SweepSpec.from_dict({"logs": [{"profile": "unique"}, {"path": "a.csv", "traces": 5}]})
    with pytest.raises(ValueError, match="^sweep log 0 must be a path or an object with a 'profile'"):
        SweepSpec.from_dict({"logs": [{"name": "x"}]})


def test_generate_log_rejects_negative_seeds():
    # random.Random seeds -3 exactly as it seeds 3.
    with pytest.raises(ValueError, match="^generation seed must be non-negative, got -3$"):
        generate_log(SyntheticLogSpec(trace_count=5), seed=-3)


def test_generate_log_stops_at_the_int64_limit():
    # One case starts per day, so case 106,752 starts past 2**63 ns, and the
    # canonical CSV of a log with it would not re-parse. A sweep reports the
    # log as failed.
    spec = SyntheticLogSpec(trace_count=106_800, n_variants=2, min_trace_len=2, max_trace_len=2)
    source = LogSource("long", synthetic=spec, gen_seed=1)
    grid = run_sweep(SweepSpec(logs=(source,), deltas=(0.4,), mapes=(), aggregations=(AggregationKind.FREQUENCY,)))
    (row,) = rows_of(grid)
    assert row["error"] == (
        "ERROR: case c106752 ends at 9223374269657994906 ns, past the int64 limit of 9223372036854775807 ns"
    )


def test_generate_log_refuses_a_gap_too_long_to_store():
    # Every knob passes the spec's checks, but a gap is infinite in
    # nanoseconds and once failed to round with an OverflowError. The error
    # names the knob that drew it, and a sweep reports the log as failed.
    spec = SyntheticLogSpec(5, outlier_rate=1.0, outlier_multiplier=1e308)
    limit = "is past the int64 limit of 9223372036854775807 ns$"
    with pytest.raises(ValueError, match=rf"^case c00000: a gap of \S+ h from outlier_multiplier 1e\+308 {limit}"):
        generate_log(spec, 1)
    # exp() of the lognormal draw overflows.
    with pytest.raises(ValueError, match=f"^case c00000: a gap of inf h from duration_log_mean 1000.0 and "
                                         f"duration_log_sigma 1.0 {limit}"):
        generate_log(SyntheticLogSpec(5, duration_log_mean=1000.0), 1)
    # A finite gap past int64 on its own is refused as it is drawn.
    with pytest.raises(ValueError, match=rf"^case c00000: a gap of \S+ h from duration_log_mean 20 and "
                                         rf"duration_log_sigma 1.0 {limit}"):
        generate_log(SyntheticLogSpec(5, duration_log_mean=20), 1)
    source = LogSource("stretched", synthetic=spec, gen_seed=1)
    grid = run_sweep(SweepSpec(logs=(source,), deltas=(0.4,), mapes=(0.3,), aggregations=(AggregationKind.FREQUENCY,)))
    rows = rows_of(grid)
    assert len(rows) == 2
    assert all(row["error"].startswith("ERROR: case c00000: a gap of ") for row in rows)


def test_synthetic_spec_rejects_non_finite_floats():
    for name in ("zipf_exponent", "duration_log_mean", "duration_log_sigma", "outlier_multiplier"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                SyntheticLogSpec(trace_count=5, **{name: value})


def test_synthetic_spec_checks_its_field_types():
    # A bool is no count, and a fractional count would fail only inside the generator.
    with pytest.raises(TypeError, match="^trace_count must be an integer, got True$"):
        SyntheticLogSpec(trace_count=True, n_activities=True)
    with pytest.raises(TypeError, match="^n_activities must be an integer, got 2.5$"):
        SyntheticLogSpec(trace_count=3, n_activities=2.5)


def test_sweep_spec_takes_synthetic_entries_and_seeds_it_can_use():
    # A null n_variants, an integer float field, and a non-negative gen_seed
    # under a negative noise seed.
    spec = SweepSpec.from_dict({
        "logs": [{"synthetic": {"trace_count": 5, "n_variants": None, "zipf_exponent": 2}, "gen_seed": 0}],
        "seed": -3,
    })
    assert spec.logs[0].synthetic == SyntheticLogSpec(trace_count=5, n_variants=None, zipf_exponent=2)

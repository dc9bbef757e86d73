"""Tests of the benchmark itself: generator, output checks, span arithmetic."""
import json
import shutil
import subprocess
import sys
import types
import weakref
from datetime import datetime, timezone

import pytest

import checks
import loggen
import run
import spans
from workloads import WORKLOADS, skewed, sparse

from dpdfg import bench, build_dfg, parse_csv
from dpdfg.dfg import AggregationKind
from dpdfg.pipeline import DisclosureRequest, Mode, disclose, emit_json
from dpdfg.risk import RiskParams


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    shape = skewed(200)
    first, again, other = loggen.generate(shape, 3), loggen.generate(shape, 3), loggen.generate(shape, 4)
    assert first.csv_text == again.csv_text
    assert first.csv_text != other.csv_text
    # The structure is fixed per shape, so the size of a workload is too.
    assert first.shape() == other.shape()


def test_generator_writes_iso_utc_inside_the_2020s():
    log = loggen.generate(sparse(50), 9)
    rows = [line.split(",") for line in log.csv_text.splitlines()[1:]]
    assert len(rows) == log.events
    stamps = [datetime.strptime(ts, "%Y-%m-%dT%H:%M:%S.%fZ").replace(tzinfo=timezone.utc) for _, _, ts in rows]
    assert min(stamps).year >= 2020 and max(stamps).year < 2030


@pytest.mark.parametrize("shape", [skewed(300), sparse(60)])
def test_generator_facts_match_the_program_dfg(shape):
    log = loggen.generate(shape, 5)
    dfg = build_dfg(parse_csv(log.csv_text))
    assert {k: e.frequency for k, e in dfg.edges.items()} == log.frequencies
    assert {k: max(e.durations) for k, e in dfg.edges.items()} == log.max_gap_ns


def test_zipf_quotas_sum_to_cases():
    quotas = loggen.zipf_quotas(1001, 12, 1.6)
    assert sum(quotas) == 1001
    assert quotas == sorted(quotas, reverse=True)


def _anonymize(aggregation: str, runs: int = 1):
    log = loggen.generate(skewed(150), 2)
    request = DisclosureRequest(Mode.P1, AggregationKind.parse(aggregation), risk=RiskParams(0.1), runs=runs)
    _, report = disclose(build_dfg(parse_csv(log.csv_text)), request)
    edges = [[s, t, n, log.max_gap_ns[(s, t)]] for (s, t), n in log.frequencies.items()]
    return emit_json(report), {"aggregation": aggregation, "delta": 0.1, "edges": edges}


@pytest.mark.parametrize("aggregation", ["frequency", "max"])
def test_check_anonymize_accepts_the_program_output(aggregation):
    text, expect = _anonymize(aggregation)
    checks.check_anonymize(text, expect)


def test_check_anonymize_rejects_an_edge_delta_above_delta():
    text, expect = _anonymize("max")
    report = json.loads(text)
    report["edges"][0]["edge_delta"] = 0.1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="edge_delta"):
        checks.check_anonymize(json.dumps(report), expect)


def test_check_anonymize_rejects_wrong_frequency_and_fractional_release():
    text, expect = _anonymize("frequency")
    report = json.loads(text)
    report["edges"][0]["true_value"] += 1
    with pytest.raises(checks.CheckFailed, match="frequency"):
        checks.check_anonymize(json.dumps(report), expect)
    report = json.loads(text)
    report["edges"][0]["released_value"] = 2.5
    with pytest.raises(checks.CheckFailed, match="integer"):
        checks.check_anonymize(json.dumps(report), expect)


def test_check_anonymize_rejects_a_missing_edge():
    text, expect = _anonymize("frequency")
    report = json.loads(text)
    del report["edges"][0]
    with pytest.raises(checks.CheckFailed, match="edge set"):
        checks.check_anonymize(json.dumps(report), expect)


@pytest.fixture(scope="module")
def small_sweep():
    workload = WORKLOADS["sweep-grid"]
    small = {"sparse": sparse(8), "skewed": skewed(15)}
    logs = {name: parse_csv(loggen.generate(small[name], 1).csv_text) for name, _ in workload.logs}

    class InMemoryLog(bench.LogSource):
        def load(self, default_seed):
            return logs[self.name]

    spec = bench.SweepSpec(
        logs=tuple(InMemoryLog(name) for name in logs),
        deltas=(0.05, 0.4), mapes=(0.1, 0.5),
        aggregations=(AggregationKind.FREQUENCY, AggregationKind.MAX, AggregationKind.AVG),
        runs=2,
    )
    return bench.run_sweep(spec), workload.sweep_cells()


def test_check_sweep_accepts_the_program_grid(small_sweep):
    text, cells = small_sweep
    checks.check_sweep(text, bench.GRID_HEADER, cells)


def _edit_row(text, row_no, column, value):
    lines = text.splitlines()
    fields = lines[row_no].split(",")
    fields[bench.GRID_HEADER.index(column)] = value
    lines[row_no] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_check_sweep_rejects_an_error_row(small_sweep):
    text, cells = small_sweep
    with pytest.raises(checks.CheckFailed, match="ERROR"):
        checks.check_sweep(_edit_row(text, 3, "error", "ERROR: boom"), bench.GRID_HEADER, cells)


def test_check_sweep_rejects_reordered_rows_and_high_max_delta(small_sweep):
    text, cells = small_sweep
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(checks.CheckFailed, match="grid order"):
        checks.check_sweep("\n".join(lines) + "\n", bench.GRID_HEADER, cells)
    with pytest.raises(checks.CheckFailed, match="max_delta"):
        checks.check_sweep(_edit_row(text, 1, "max_delta", "0.06"), bench.GRID_HEADER, cells)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_sweep("\n".join(text.splitlines()[:-1]) + "\n", bench.GRID_HEADER, cells)


def test_sweep_digest_ignores_only_wall_clock(small_sweep):
    text, _ = small_sweep
    timed = _edit_row(text, 2, "wall_clock_ms", "99999.000")
    assert checks.sweep_digest_text(timed, bench.GRID_HEADER) == checks.sweep_digest_text(text, bench.GRID_HEADER)
    changed = _edit_row(text, 2, "mape", "0.5")
    assert checks.sweep_digest_text(changed, bench.GRID_HEADER) != checks.sweep_digest_text(text, bench.GRID_HEADER)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 4), (3, 6), (9, 12)], 0, 10) == 6
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(2, 3), (2, 3)], 0, 10) == 1


def test_self_times_on_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S(0, "harness.op", 0.0, 10.0),
        S(0, "pipeline.disclose", 1.0, 4.0, parent=0, folded={"noise.NoiseStream": [3, 0.5]}),
        S(0, "risk.edge_epsilon_time", 3.0, 6.0, parent=0),  # overlaps the first child
        S(0, "dfg.convert_unit", 2.0, 3.0, parent=1),
        S(0, "bench.run_sweep", 9.0, 12.0, parent=0),  # runs past its parent's end
        S(1, "harness.op", 20.0, 21.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == {
        "harness.op": 10.0 - 5.0 - 1.0,
        "pipeline.disclose": 3.0 - 1.0 - 0.5,
        "noise.NoiseStream": 0.5,
        "risk.edge_epsilon_time": 3.0,
        "dfg.convert_unit": 1.0,
        "bench.run_sweep": 3.0,
    }
    assert selfs[1] == {"harness.op": 1.0}
    assert spans.call_counts(tree)[0]["noise.NoiseStream"] == 3


def test_recorder_wraps_restores_and_skips_missing_names():
    ticks = iter(range(100))
    pipeline = types.SimpleNamespace(
        emit_json=lambda x: pipeline.NoiseStream(x) + pipeline.NoiseStream(x),
        NoiseStream=lambda x: x + 1,
    )
    originals = dict(vars(pipeline))
    modules = {name: types.SimpleNamespace() for name in ("eventlog", "dfg", "risk", "bench")}
    recorder = spans.Recorder({**modules, "pipeline": pipeline}, clock=lambda: float(next(ticks)))

    result, took = recorder.run(0, lambda: pipeline.emit_json(1))
    assert result == 4
    assert vars(pipeline) == originals
    names = [s.name for s in recorder.spans]
    assert names == ["harness.op", "pipeline.emit_json"]
    assert recorder.spans[1].folded["noise.NoiseStream"] == [2, 2.0]
    assert took == 7.0
    metrics = spans.op_metrics(recorder)[0]
    assert metrics["noise.streams"] == 2
    assert metrics["eventlog.events"] == 0  # parse_csv is missing, so never called


def test_recorder_keeps_counts_not_results():
    class Log:
        def event_count(self):
            return 7

    made = []

    def parse(_):
        made.append(weakref.ref(log := Log()))
        return log

    eventlog = types.SimpleNamespace(parse_csv=parse)
    modules = {name: types.SimpleNamespace() for name in ("dfg", "risk", "pipeline", "bench")}
    recorder = spans.Recorder({**modules, "eventlog": eventlog})

    recorder.run(0, lambda: eventlog.parse_csv(b"") and None)
    assert made[0]() is None  # freed when the op dropped it
    assert recorder.counts[0]["eventlog.events"] == 7
    assert recorder.spans[0].folded["harness.counts"][0] == 1
    assert spans.op_metrics(recorder)[0]["eventlog.events"] == 7


def test_setup_probe_times_the_program_and_the_reference(tmp_path):
    log = loggen.generate(skewed(5), 1)
    (tmp_path / "log.csv").write_text(log.csv_text, encoding="utf-8")
    probe = run.HERE / "setup_probe.py"
    for args in ([str(run.ROOT / "src"), "dpdfg.bench", "1", str(tmp_path / "log.csv")], ["--reference"]):
        proc = subprocess.run([sys.executable, str(probe), *args], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) > 0


def test_tail_is_the_highest_sample_with_ten_above():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_declares_the_metrics_and_workloads_the_run_reports():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)

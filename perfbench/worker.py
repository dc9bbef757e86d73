"""Runs one workload in a fresh interpreter: the workload's own process.

The worker imports the program module the op needs, loads the input into
memory, then runs ops as a closed loop, one op after another in this one
process with ``threads=1``, for ``--seconds``. It checks every op's output
and prints one JSON line with the op times, failures, output digest, peak
RSS and, when traced, the per-layer metrics. ``run.py`` starts it; it is not
meant to be run by hand. ``setup_s`` is timed by ``setup_probe.py``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans
import speed
from setup_probe import load_input
from workloads import SWEEP_AGGREGATIONS, SWEEP_DELTAS, SWEEP_MAPES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
PRECISION = 0.5
# op_tail_s needs ten samples above it, so a run makes at least eleven
# timed ops even if that takes longer than --seconds (at most twice as long).
MIN_OPS = 11


def make_op(workload: Workload, inputs: dict, seed: int):
    """One op, calling the program through module attributes so that the
    traced run's wrappers see every call."""
    from dpdfg import dfg, eventlog, pipeline
    from dpdfg.dfg import AggregationKind
    from dpdfg.pipeline import DisclosureRequest, Mode
    from dpdfg.risk import RiskParams

    if workload.aggregation:
        request = DisclosureRequest(
            Mode.P1,
            AggregationKind.parse(workload.aggregation),
            risk=RiskParams(workload.delta, PRECISION),
            precision=PRECISION,
            seed=seed,
            runs=workload.runs,
        )
        data = inputs["log"]

        def anonymize() -> str:
            graph = dfg.build_dfg(eventlog.parse_csv(data))
            _, report = pipeline.disclose(graph, request, threads=1)
            return pipeline.emit_json(report)

        return anonymize

    from dpdfg import bench

    class InMemoryLog(bench.LogSource):
        def load(self, default_seed: int):
            return inputs[self.name]

    spec = bench.SweepSpec(
        logs=tuple(InMemoryLog(name) for name, _ in workload.logs),
        deltas=SWEEP_DELTAS,
        mapes=SWEEP_MAPES,
        aggregations=tuple(AggregationKind.parse(a) for a in SWEEP_AGGREGATIONS),
        runs=workload.runs,
        seed=seed,
        precision=PRECISION,
    )
    return lambda: bench.run_sweep(spec, threads=1)


def make_check(workload: Workload, expected: dict):
    """Return a function that checks one output and returns its digest."""
    if workload.aggregation:
        expect = {"aggregation": workload.aggregation, "delta": workload.delta, "edges": expected["log"]}

        def check_report(text: str) -> str:
            checks.check_anonymize(text, expect)
            return checks.sha256(text)

        return check_report

    from dpdfg.bench import GRID_HEADER

    cells = workload.sweep_cells()

    def check_grid(text: str) -> str:
        checks.check_sweep(text, GRID_HEADER, cells)
        return checks.sha256(checks.sweep_digest_text(text, GRID_HEADER))

    return check_grid


def measure(op, check, seconds: float, recorder: spans.Recorder | None) -> dict:
    """Closed loop for ``seconds``: a warm-up op of each kind, then ops
    back to back, with the reference kernel timed between every two ops.
    With a recorder, every second op is traced."""
    times: dict[bool, list[float]] = {False: [], True: []}
    normalised: dict[bool, list[float]] = {False: [], True: []}
    kernel_s: list[float] = []
    failures: Counter[str] = Counter()
    digests: Counter[str] = Counter()
    attempted = 0

    def one(op_id: int, traced: bool) -> float | None:
        nonlocal attempted
        attempted += 1
        try:
            if traced:
                out, took = recorder.run(op_id, op)
            else:
                start = time.perf_counter()
                out = op()
                took = time.perf_counter() - start
            digests[check(out)] += 1
        except Exception as exc:  # any failure of one op is counted, the loop goes on
            failures[f"{type(exc).__name__}: {exc}"[:300]] += 1
            return None
        return took

    kinds = (False, True) if recorder else (False,)
    for i, traced in enumerate(kinds):
        one(-1 - i, traced)
    speed.time_kernel()
    start = time.perf_counter()
    kernel_s.append(speed.time_kernel())
    op_id = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = min(len(times[k]) for k in kinds) >= MIN_OPS
        if elapsed >= 2 * seconds or (elapsed >= seconds and enough):
            break
        traced = kinds[op_id % len(kinds)]
        took = one(op_id, traced)
        kernel_s.append(speed.time_kernel())
        if took is not None:
            times[traced].append(took)
            normalised[traced].append(speed.normalised(took, (kernel_s[-2] + kernel_s[-1]) / 2))
        op_id += 1

    # Every output must be byte-identical to the most common one.
    digest, same = digests.most_common(1)[0] if digests else ("", 0)
    if same < sum(digests.values()):
        failures["output differs between ops of one run"] += sum(digests.values()) - same
    return {
        "op_s": times[False],
        "op_norm_s": normalised[False],
        "traced_op_norm_s": normalised[True],
        "kernel_s": kernel_s,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures.most_common(5)),
        "digest": digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    names = [name for name, _ in workload.logs]
    paths = [str(args.workdir / f"{name}.csv") for name in names]
    inputs = dict(zip(names, load_input(workload.program_module, workload.parsed_input, paths)))

    expected = json.loads((args.workdir / "expected.json").read_text(encoding="utf-8"))
    op = make_op(workload, inputs, args.seed)
    check = make_check(workload, expected)
    recorder = None
    if args.trace:
        # Only the modules the op imported: anonymize never loads bench.
        modules = {name.split(".")[1]: module for name, module in sys.modules.items() if name.startswith("dpdfg.")}
        recorder = spans.Recorder(modules)
    result = measure(op, check, args.seconds, recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        per_op = [m for op_id, m in spans.op_metrics(recorder).items() if op_id >= 0]
        layers = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]} if per_op else {}
        if result["traced_op_norm_s"] and result["op_norm_s"]:
            layers["trace.overhead_ratio"] = (
                statistics.median(result["traced_op_norm_s"]) / statistics.median(result["op_norm_s"])
            )
        result["layers"] = layers
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""dpdfg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload anonymize-freq --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
logs from ``--seed`` into ``.bench_work/``, times ``setup_s`` over several
fresh interpreters, each next to a reference import (``setup_probe.py``),
then runs the workload as a closed loop (one client, one op after another,
``threads=1``) in a fresh worker process (``worker.py``) for ``--seconds``,
checking every op's output. It prints every metric by name with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. An untraced run also prints the raw wall seconds behind its
speed-normalised times, as ``raw wall seconds: {...}``. A traced run skips
``setup_s`` and writes its spans to ``.bench_out/``. Without ``src/dpdfg``
beside this directory it exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# setup_s is given on a machine where the reference import takes this long.
REFERENCE_NOMINAL_S = 0.1
TAIL_SAMPLES = 10
# One thread everywhere: numpy would otherwise start a BLAS thread pool.
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("events_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerFailed(Exception):
    pass


def run_worker(script: str, args: list[str], timeout: float):
    """Run ``script`` of this directory in a fresh interpreter; return the
    JSON value on the last line of its output."""
    cmd = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{script} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least TAIL_SAMPLES samples above it, and
    its percentile. With too few samples, the maximum."""
    ordered = sorted(values)
    idx = len(ordered) - TAIL_SAMPLES - 1 if len(ordered) > TAIL_SAMPLES else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def time_setup(workload, workdir: Path) -> list[tuple[float, float]]:
    """SETUP_PROBES pairs of (set-up seconds, reference seconds), each pair
    run back to back in two fresh interpreters."""
    probe = [
        str(ROOT / "src"), workload.program_module, "1" if workload.parsed_input else "0",
        *(str(workdir / f"{name}.csv") for name, _ in workload.logs),
    ]
    return [
        (run_worker("setup_probe.py", probe, 120), run_worker("setup_probe.py", ["--reference"], 120))
        for _ in range(SETUP_PROBES)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dpdfg benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src" / "dpdfg"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no dpdfg sources at {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    base = ["--workdir", str(workdir), "--workload", workload.name, "--seed", str(args.seed)]
    try:
        shapes = write_inputs(workload, args.seed, workdir)
        setup = [] if args.trace else time_setup(workload, workdir)
        loop_args = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
            loop_args += ["--spans-out", str(out)]
        loop = run_worker("worker.py", loop_args, 2 * args.seconds + 120)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, shape in shapes.items():
        print(f"input {name}: " + ", ".join(f"{k}={v}" for k, v in shape.items()))
    print(f"output sha256 {loop['digest']}")
    print(f"error_rate {loop['failed'] / loop['attempted']} ({loop['failed']} failed of {loop['attempted']} attempted)")
    for message, count in loop["failures"].items():
        print(f"failure x{count}: {message}")

    if args.trace:
        layers = loop["layers"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in spans.PER_LAYER}
        print(f"traced ops {len(loop['traced_op_norm_s'])}, untraced ops {len(loop['op_norm_s'])}")
    else:
        ops = loop["op_norm_s"]
        p50 = statistics.median(ops)
        tail_s, pct = tail(ops)
        events = sum(shape["events"] for shape in shapes.values())
        values = {
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "events_per_s": events / p50,
            "cells_per_s": workload.cells_per_op / p50,
            "setup_s": statistics.median(s / r for s, r in setup) * REFERENCE_NOMINAL_S,
            "peak_rss_mb": loop["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"op_tail_s is p{pct:.1f} of {len(ops)} ops; setup_s is the median of {len(setup)} fresh starts")
        raw = {
            "op_p50_s": statistics.median(loop["op_s"]),
            "op_tail_s": tail(loop["op_s"])[0],
            "setup_s": statistics.median(s for s, _ in setup),
            "kernel_p50_s": statistics.median(loop["kernel_s"]),
            "reference_p50_s": statistics.median(r for _, r in setup),
        }
        print(
            f"raw wall seconds: {json.dumps(raw)} "
            f"(nominal: kernel {speed.NOMINAL_S} s, reference {REFERENCE_NOMINAL_S} s)"
        )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs the benchmark over many seeds, as a regression check does, and
records the baseline.

    python3 perfbench/baseline.py                                   # check only
    python3 perfbench/baseline.py --write perfbench/baseline.json   # and record

For every workload in ``BENCHMARK.json`` it makes SETS sets of runs of
``run.py`` with tracing off, one run per seed 1..SEEDS, then TRACE_SEEDS
runs with tracing on. Per end-to-end metric it prints the median and the
spread, the distance between the first and third quartile as a share of the
median, against a third of the metric's bound, and how far the second set's
median moved from the first set's. It also checks that a seed's output
digest is the same in every set. The record keeps, next to every
speed-normalised figure, the raw wall seconds each run printed. The exit
status is 1 if a run failed or a check did not hold.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10
SETS = 2
TRACE_SEEDS = 3
RAW_PREFIX = "raw wall seconds: "


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str, list[str], dict]:
    """One run's result line, output digest, input lines and raw wall
    seconds (empty for a traced run)."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("output sha256"))
    raw = next(
        (json.JSONDecoder().raw_decode(line[len(RAW_PREFIX):])[0] for line in lines if line.startswith(RAW_PREFIX)),
        {},
    )
    return json.loads(lines[-1]), digest, [line for line in lines if line.startswith("input ")], raw


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": q1, "q3": q3, "spread": (q3 - q1) / center if center else 0.0, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    ok = True
    record = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": BENCHMARK["run_seconds"],
        "seeds": list(range(1, SEEDS + 1)),
        "workloads": {},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        entry = record["workloads"].setdefault(workload, {"sets": [], "raw_wall_s": [], "sha256": {}})
        for set_no in range(SETS):
            values: dict[str, list[float]] = {}
            raw_values: dict[str, list[float]] = {}
            for seed in range(1, SEEDS + 1):
                result, digest, inputs, raw = run_once(workload, seed, 0)
                entry["inputs"] = inputs
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                    ok = False
                previous = entry["sha256"].setdefault(str(seed), digest)
                if previous != digest:
                    print(f"{workload} seed {seed}: output sha256 {digest} != {previous} of set 1")
                    ok = False
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                for name, value in raw.items():
                    raw_values.setdefault(name, []).append(value)
                print(f"{workload} set {set_no + 1} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            entry["sets"].append({name: summary(v) for name, v in values.items()})
            entry["raw_wall_s"].append({name: summary(v) for name, v in raw_values.items()})

        first, second = entry["sets"]
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"{workload:15s} {name:13s} median {first[name]['median']:.6g} spread"
            for stats in entry["sets"]:
                line += f" {stats[name]['spread']:.4f}"
                if stats[name]["spread"] > bound / 3:
                    line += f" (ABOVE {bound / 3:.4f})"
                    ok = False
            change = second[name]["median"] / first[name]["median"] - 1
            line += f"  median change {change:+.4f}"
            if (change if metric["better"] == "lower" else -change) > bound:
                line += f" (WORSE THAN BOUND {bound})"
                ok = False
            print(line, flush=True)

        layer_values: dict[str, list[float]] = {}
        for seed in range(1, TRACE_SEEDS + 1):
            result, _, _, _ = run_once(workload, seed, 1)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                layer_values.setdefault(name, []).append(m["value"])
        entry["per_layer_median"] = {n: statistics.median(v) for n, v in layer_values.items()}
        for name, value in entry["per_layer_median"].items():
            print(f"{workload:15s} {name:28s} {value:.6g}")

    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

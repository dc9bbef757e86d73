"""Command-line front end: anonymize one log, run parameter sweeps, or
inspect a log's DFG.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .bench import SweepSpec, run_sweep
from .dfg import AggregationKind, aggregate, build_dfg, choose_time_unit, convert_unit
from .eventlog import LOG_FORMATS, NS_PER_UNIT, TIMESTAMP_FORMATS, ColumnMapping, IngestError, read_log
from .noise import SEED_ENV_VAR
from .pipeline import (
    DisclosureRequest,
    Mode,
    disclose,
    emit_csv,
    emit_dot,
    emit_json,
)
from .risk import DEFAULT_PRECISION, RiskParams
from .utility import DEFAULT_BETA, UtilityParams

# exit codes: 0 success, 1 data/domain error, 2 usage error (argparse)
DATA_ERROR = 1


def _seed_flag(text: str) -> int:
    """``--seed``: an integer, or ``random`` for a fresh one."""
    if text == "random":
        return random.SystemRandom().randrange(2**63)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'random', got {text!r}") from None


def _env_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else _seed_flag("random")
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _load_log(args):
    mapping = ColumnMapping(
        case_col=args.case_col,
        activity_col=args.activity_col,
        timestamp_col=args.timestamp_col,
        timestamp_format=args.timestamp_format,
        number_unit=args.timestamp_unit,
    )
    return read_log(args.input, args.input_format, mapping)


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="path to the event log")
    parser.add_argument("--input-format", choices=LOG_FORMATS, default="auto")
    parser.add_argument("--case-col", default="case")
    parser.add_argument("--activity-col", default="activity")
    parser.add_argument("--timestamp-col", default="timestamp")
    parser.add_argument("--timestamp-format", choices=TIMESTAMP_FORMATS, default="auto")
    parser.add_argument("--timestamp-unit", choices=sorted(NS_PER_UNIT), default="h",
                        help="unit of numeric timestamps (default: hours)")


def _add_agg_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--agg", type=str.lower, choices=[kind.value for kind in AggregationKind], default="frequency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpdfg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    anon = sub.add_parser("anonymize", help="disclose a DFG under differential privacy")
    _add_input_flags(anon)
    _add_agg_flag(anon)
    anon.add_argument("--delta", type=float, help="guessing-advantage target (P1)")
    anon.add_argument("--mape", type=float, help="percentage-error target (P2)")
    anon.add_argument("--beta", type=float, default=None,
                      help=f"noise-exceedance probability (P2 only; default: {DEFAULT_BETA})")
    anon.add_argument("--precision", type=float, default=DEFAULT_PRECISION,
                      help="guess window as a fraction of the edge range")
    anon.add_argument("--seed", type=_seed_flag, default=None,
                      help=f"integer seed, or 'random' (default: ${SEED_ENV_VAR}, else random)")
    anon.add_argument("--runs", type=int, default=1)
    anon.add_argument("--include-boundary-time", action="store_true",
                      help="keep virtual start/end edges in time-annotated output")
    anon.add_argument("--time-unit", choices=sorted(NS_PER_UNIT), default=None,
                      help="bypass time-unit auto-scaling")
    anon.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility; evaluation is serial")
    anon.add_argument("--annotate-debug", action="store_true",
                      help="add epsilon/APE labels to DOT output")
    anon.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    anon.add_argument("--out", default=None, help="output path (default: stdout)")

    sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sweep.add_argument("--config", required=True, help="sweep configuration (JSON)")
    sweep.add_argument("--out", default=None, help="grid CSV path (default: stdout)")

    inspect = sub.add_parser("inspect", help="summarize a log and its DFG")
    _add_input_flags(inspect)
    _add_agg_flag(inspect)
    return parser


def _run_anonymize(args, parser) -> int:
    if (args.delta is None) == (args.mape is None):
        parser.error("--delta and --mape are mutually exclusive; provide exactly one")
    if args.delta is not None and args.beta is not None:
        parser.error("--beta applies to --mape (P2) only")
    if args.annotate_debug and args.format != "dot":
        parser.error("--annotate-debug applies to --format dot only")
    kind = AggregationKind(args.agg)
    seed = _env_seed() if args.seed is None else args.seed
    p1 = args.delta is not None
    request = DisclosureRequest(
        mode=Mode.P1 if p1 else Mode.P2,
        aggregation=kind,
        risk=RiskParams(args.delta, args.precision) if p1 else None,
        utility=None if p1 else UtilityParams(args.mape, DEFAULT_BETA if args.beta is None else args.beta),
        precision=args.precision,
        seed=seed,
        runs=args.runs,
        include_boundary_time=args.include_boundary_time,
        time_unit=args.time_unit,
    )
    annotated, report = disclose(build_dfg(_load_log(args)), request)

    if args.format == "json":
        payload = emit_json(report)
    elif args.format == "csv":
        payload = emit_csv(report)
    else:
        payload = emit_dot(annotated, report, annotate_debug=args.annotate_debug)

    _write_output(payload, args.out)
    # Only the JSON holds the seed; stderr names it so that any release can be rerun.
    print(f"dpdfg: {len(report.edges)} edges disclosed in {report.runtime_ms:.1f} ms, seed {seed}", file=sys.stderr)
    return 0


def _write_output(payload: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(payload)
        return
    try:
        Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc


def _run_sweep(args) -> int:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    try:
        spec = SweepSpec.from_dict(config)
    except TypeError as exc:  # a value of the wrong type, or a synthetic spec that lacks a field
        raise ValueError(exc) from exc
    _write_output(run_sweep(spec), args.out)
    return 0


def _run_inspect(args) -> int:
    kind = AggregationKind(args.agg)
    log = _load_log(args)
    dfg = build_dfg(log)
    lines = [
        f"traces: {len(log)}",
        f"events: {log.event_count()}",
        f"activities: {len(dfg.activities)}",
        f"edges: {len(dfg.edges)}",
    ]
    if kind.is_time and dfg.edges:
        unit = choose_time_unit(dfg, kind)
        dfg = convert_unit(dfg, unit)
        lines.append(f"time unit ({kind.value}): {unit}")
    for key in sorted(dfg.edges):
        e = dfg.edges[key]
        weight = f" {kind.value}={aggregate(e, kind):.6g}" if kind.is_time else ""
        lines.append(f"  {key[0]} -> {key[1]}: n={e.frequency}{weight}")
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "anonymize":
            return _run_anonymize(args, parser)
        if args.subcommand == "sweep":
            return _run_sweep(args)
        return _run_inspect(args)
    except (IngestError, ValueError, OSError) as exc:
        print(f"dpdfg: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())

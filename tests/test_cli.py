import ast
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tomllib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import dpdfg
from dpdfg.cli import main

from conftest import clinic_csv_text


@pytest.fixture()
def clinic_path(tmp_path):
    path = tmp_path / "clinic.csv"
    path.write_text(clinic_csv_text(), encoding="utf-8")
    return path


def test_anonymize_happy_path_json(clinic_path, tmp_path, capsys):
    out = tmp_path / "dfg.json"
    code = main([
        "anonymize", "--input", str(clinic_path),
        "--agg", "frequency", "--delta", "0.4", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["mode"] == "P1"
    assert len(report["edges"]) == 8
    assert all(abs(e["epsilon"] - 1.6946) < 1e-3 for e in report["edges"])


def test_anonymize_mutually_exclusive_flags(clinic_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "anonymize", "--input", str(clinic_path),
            "--agg", "frequency", "--delta", "0.4", "--mape", "0.3",
        ])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_anonymize_beta_is_a_p2_flag(clinic_path, capsys):
    # P1 has no beta, so one given with --delta would be silently dropped.
    with pytest.raises(SystemExit) as exc:
        main(["anonymize", "--input", str(clinic_path), "--delta", "0.4", "--beta", "7"])
    assert exc.value.code == 2
    assert "--beta applies to --mape (P2) only" in capsys.readouterr().err
    assert main(["anonymize", "--input", str(clinic_path), "--mape", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["beta"] == 0.05
    assert main(["anonymize", "--input", str(clinic_path), "--mape", "0.3", "--beta", "7"]) == 1
    assert "beta must be in (0,1), got 7.0" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [None, "json", "csv"])
def test_anonymize_annotate_debug_is_a_dot_flag(clinic_path, capsys, fmt):
    # Only the DOT output has labels, so the flag would be silently dropped.
    argv = ["anonymize", "--input", str(clinic_path), "--delta", "0.4", "--annotate-debug"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--format", fmt] if fmt else []))
    assert exc.value.code == 2
    assert "--annotate-debug applies to --format dot only" in capsys.readouterr().err


def test_anonymize_requires_one_target(clinic_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["anonymize", "--input", str(clinic_path), "--agg", "max"])
    assert exc.value.code == 2


def test_anonymize_p2_csv_has_delta_column(clinic_path, capsys):
    code = main([
        "anonymize", "--input", str(clinic_path),
        "--agg", "max", "--mape", "0.3", "--precision", "0.1", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split(",")[-1] == "delta"
    ac = next(line for line in lines if line.startswith("A,C,"))
    fields = ac.split(",")
    assert float(fields[3]) == pytest.approx(0.66572, abs=1e-4)
    assert float(fields[6]) == pytest.approx(0.666, abs=1e-3)


def test_anonymize_missing_input_is_data_error(tmp_path, capsys):
    code = main([
        "anonymize", "--input", str(tmp_path / "nope.csv"), "--agg", "frequency", "--delta", "0.4",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_anonymize_bad_column_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("who,what,when\nP1,A,1\n", encoding="utf-8")
    code = main(["anonymize", "--input", str(path), "--agg", "frequency", "--delta", "0.4"])
    assert code == 1
    assert "missing mapped column" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_anonymize_non_finite_error_target_is_data_error(clinic_path, capsys, target):
    code = main(["anonymize", "--input", str(clinic_path), "--agg", "max", "--mape", target])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dpdfg: error: mape_target must be positive and finite, got {target}\n"


def test_anonymize_error_target_that_overflows_an_edge_is_data_error(capsys):
    # 1e308 is a finite target, but the first edge's weight 2 times it is not.
    skewed = Path(__file__).parent / "data" / "skewed.csv"
    code = main([
        "anonymize", "--input", str(skewed), "--timestamp-format", "number", "--timestamp-unit", "ns",
        "--mape", "1e308", "--agg", "frequency",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpdfg: error: edge weight 2.0 times error target 1e+308 is not finite\n"


def test_cli_determinism_across_runs_and_threads(clinic_path, tmp_path):
    outputs = []
    for threads, name in ((1, "a.json"), (1, "b.json"), (8, "c.json")):
        out = tmp_path / name
        code = main([
            "anonymize", "--input", str(clinic_path),
            "--agg", "max", "--delta", "0.4", "--precision", "0.1",
            "--seed", "42", "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_seed_env_var(clinic_path, tmp_path, monkeypatch):
    out1, out2, out3 = (tmp_path / n for n in ("e1.json", "e2.json", "e3.json"))
    monkeypatch.setenv("DPDFG_SEED", "555")
    main(["anonymize", "--input", str(clinic_path), "--agg", "frequency", "--delta", "0.4", "--out", str(out1)])
    monkeypatch.delenv("DPDFG_SEED")
    main(["anonymize", "--input", str(clinic_path), "--agg", "frequency", "--delta", "0.4", "--seed", "555", "--out", str(out2)])
    main(["anonymize", "--input", str(clinic_path), "--agg", "frequency", "--delta", "0.4", "--out", str(out3)])
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_cli_seedless_anonymize_takes_a_fresh_seed(tmp_path, monkeypatch):
    # Under a public seed, such as the 20200510 of earlier versions, anyone
    # can redraw a frequency DOT's noise and round it away. A run with no
    # --seed and no DPDFG_SEED draws its seed from SystemRandom, as
    # --seed random does, and echoes it in the report.
    class Fixed:
        def randrange(self, stop):
            assert stop == 2**63
            return 987654321

    monkeypatch.delenv("DPDFG_SEED", raising=False)
    monkeypatch.setattr(random, "SystemRandom", Fixed)
    skewed = Path(__file__).parent / "data" / "skewed.csv"
    args = ["anonymize", "--input", str(skewed), "--timestamp-format", "number", "--timestamp-unit", "ns",
            "--agg", "frequency", "--delta", "0.05"]
    reports = []
    for name, seed in (("fresh.json", []), ("public.json", ["--seed", "20200510"])):
        out = tmp_path / name
        assert main([*args, *seed, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    fresh, public = reports
    assert (fresh["seed"], public["seed"]) == (987654321, 20200510)
    assert [e["noisy_value"] for e in fresh["edges"]] != [e["noisy_value"] for e in public["edges"]]


def test_cli_seedless_release_names_its_seed_on_stderr(monkeypatch, capsys):
    # A CSV or DOT holds no seed, so a seedless release could be neither
    # rerun nor audited if stderr did not name it.
    class Fixed:
        def randrange(self, stop):
            return 987654321

    monkeypatch.delenv("DPDFG_SEED", raising=False)
    monkeypatch.setattr(random, "SystemRandom", Fixed)
    skewed = Path(__file__).parent / "data" / "skewed.csv"
    args = ["anonymize", "--input", str(skewed), "--timestamp-format", "number", "--timestamp-unit", "ns",
            "--agg", "max", "--delta", "0.4", "--format", "csv"]
    assert main(args) == 0
    fresh = capsys.readouterr()
    (seed,) = re.fullmatch(r"dpdfg: \d+ edges disclosed in \d+\.\d ms, seed (-?\d+)\n", fresh.err).groups()
    assert seed == "987654321"
    assert main([*args, "--seed", seed]) == 0
    rerun = capsys.readouterr()
    assert rerun.out == fresh.out and rerun.err.endswith(f", seed {seed}\n")
    assert main([*args, "--seed", "20200510"]) == 0
    assert capsys.readouterr().out != fresh.out


def test_cli_unwritable_output_path(clinic_path, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main([
        "anonymize", "--input", str(clinic_path),
        "--agg", "frequency", "--delta", "0.4", "--out", str(out),
    ])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_dot_output(clinic_path, capsys):
    code = main([
        "anonymize", "--input", str(clinic_path),
        "--agg", "frequency", "--delta", "0.4", "--format", "dot", "--annotate-debug",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"--"' in out


def test_cli_inspect(clinic_path, capsys):
    code = main(["inspect", "--input", str(clinic_path), "--agg", "max"])
    assert code == 0
    out = capsys.readouterr().out
    assert "traces: 11" in out
    assert "events: 33" in out
    assert "time unit (max): h" in out


def test_cli_inspect_frequency(clinic_path, capsys):
    assert main(["inspect", "--input", str(clinic_path), "--agg", "frequency"]) == 0
    assert capsys.readouterr().out.split("\n")[4:] == [
        "  -- -> A: n=11",
        "  A -> --: n=2",
        "  A -> B: n=5",
        "  A -> C: n=3",
        "  A -> D: n=1",
        "  B -> C: n=5",
        "  C -> D: n=8",
        "  D -> --: n=9",
        "",
    ]


@pytest.mark.parametrize("command", ["anonymize", "inspect"])
def test_cli_agg_is_a_choice_in_any_case(clinic_path, capsys, command):
    target = ["--delta", "0.4", "--seed", "1"] if command == "anonymize" else []
    args = [command, "--input", str(clinic_path), *target]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--agg", "bogus"])
    assert exc.value.code == 2
    assert "argument --agg: invalid choice: 'bogus'" in capsys.readouterr().err
    outputs = []
    for agg in ("max", "MAX"):
        assert main([*args, "--agg", agg]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_sweep_subcommand(clinic_path, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "logs": [str(clinic_path)],
        "deltas": [0.4],
        "mapes": [],
        "aggregations": ["frequency"],
        "runs": 2,
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(1.695, abs=1e-3)


def test_cli_sweep_reports_a_failed_cell_and_goes_on(tmp_path):
    # Single-event cases have only boundary edges, which `max` drops, so
    # each `max` cell fails in its release while the frequency cells run.
    log = tmp_path / "single.csv"
    log.write_text("case,activity,timestamp\nP1,A,1\nP2,B,2\nP3,A,3\n", encoding="utf-8")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "logs": [str(log)], "deltas": [0.4], "mapes": [0.3], "aggregations": ["frequency", "max"], "runs": 2,
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert [(row["aggregation"], row["mode"]) for row in rows] == [
        ("frequency", "P1"), ("frequency", "P2"), ("max", "P1"), ("max", "P2"),
    ]
    for row in rows[:2]:
        assert row["error"] == "" and float(row["median_epsilon"]) > 0 and row["mape"] and row["wall_clock_ms"]
    for row in rows[2:]:
        assert row["error"] == "ERROR: cannot disclose an empty DFG"
        assert not any(list(row.values())[4:-1])


def test_cli_sweep_with_synthetic_profile(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "logs": [{"profile": "unique", "traces": 12, "gen_seed": 4}],
        "deltas": [0.2, 0.6],
        "mapes": [0.3],
        "aggregations": ["avg"],
        "runs": 2,
        "seed": 1,
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 3
    assert all(line.endswith(",") or "ERROR" not in line for line in lines)


def test_cli_sweep_rejects_duplicate_log_names(clinic_path, tmp_path, capsys):
    other = tmp_path / "other" / clinic_path.name
    other.parent.mkdir()
    other.write_text(clinic_csv_text(), encoding="utf-8")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"logs": [str(clinic_path), str(other)]}), encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 1
    assert f"repeated: {clinic_path.stem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"deltas": [1.5]}, "delta must be in (0,1), got 1.5"),
        ({"deltas": 0.4}, "'deltas' must be a list, got 0.4"),
        ({"logs": [{"profile": "skewed", "traces": "5"}]}, "sweep log 0 'traces' must be an integer, got '5'"),
        ({"logs": "ab.csv"}, "sweep config must be an object with a 'logs' list"),
        (["clinic.csv"], "sweep config must be an object with a 'logs' list"),
        ({"aggregations": "max"}, "'aggregations' must be a list, got 'max'"),
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"runs": 2.5}, "runs must be an integer, got 2.5"),
        ({"delta": [0.4]}, "sweep config: unknown key 'delta'"),
        ({"logs": [{"profile": "unique", "trace": 5}]}, "sweep log 0: unknown key 'trace'"),
        ({"include_boundary_time": "no"}, "'include_boundary_time' must be a bool, got 'no'"),
        ({"deltas": ["0.4"]}, "sweep config 'deltas' item must be a number, got '0.4'"),
        ({"mapes": [True]}, "sweep config 'mapes' item must be a number, got True"),
        ({"aggregations": [5]}, "sweep config 'aggregations' item must be a string, got 5"),
        ({"precision": "0.5"}, "sweep config 'precision' must be a number, got '0.5'"),
        ({"logs": [{"path": 5}]}, "sweep log 0 'path' must be a string, got 5"),
        ({"logs": [{"profile": "skewed", "gen_seed": "x"}]}, "sweep log 0 'gen_seed' must be an integer, got 'x'"),
        ({"logs": [{"profile": "skewed", "traces": True}]}, "sweep log 0 'traces' must be an integer, got True"),
        ({"mapes": [float("nan")]}, "mape_target must be positive and finite, got nan"),
        ({"mapes": [float("inf")]}, "mape_target must be positive and finite, got inf"),
        ({"logs": [{"synthetic": {"trace_count": "5"}}]},
         "sweep log 0 'synthetic' trace_count must be an integer, got '5'"),
        ({"logs": [{"synthetic": {"trace_cout": 5}}]}, "sweep log 0 'synthetic': unknown key 'trace_cout'"),
        ({"logs": [{"synthetic": {"trace_count": 5, "n_variants": True}}]},
         "sweep log 0 'synthetic' n_variants must be an integer or null, got True"),
        ({"logs": [{"synthetic": {"trace_count": 5, "zipf_exponent": "1"}}]},
         "sweep log 0 'synthetic' zipf_exponent must be a number, got '1'"),
        ({"logs": [{"synthetic": {"trace_count": 5, "duration_log_sigma": -1}}]},
         "duration_log_sigma must be non-negative, got -1"),
        ({"logs": [{"profile": "skewed", "gen_seed": -1}]}, "sweep log 'skewed': gen_seed must be non-negative"),
        ({"logs": [{"synthetic": {"trace_count": 5}}], "seed": -3}, "sweep log 'synthetic0': seed must be non-negative"),
        ({"logs": [{"synthetic": {"trace_count": 30, "outlier_rate": 0.5, "outlier_multiplier": -5}}]},
         "outlier_multiplier must be positive, got -5"),
        ({"logs": [{"synthetic": {"trace_count": 30, "outlier_multiplier": 0}}]},
         "outlier_multiplier must be positive, got 0"),
        ({"mapes": [], "beta": 7}, "beta must be in (0,1), got 7"),
        ({"mapes": [], "beta": float("nan")}, "beta must be in (0,1), got nan"),
        ({"aggregations": ["bogus"]},
         "dpdfg: error: unknown aggregation 'bogus'; expected one of frequency, sum, min, max, avg\n"),
    ],
)
def test_cli_sweep_bad_config_is_data_error(clinic_path, tmp_path, capsys, config, message):
    if isinstance(config, dict):
        config = {"logs": [str(clinic_path)], **config}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpdfg: error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_negative_noise_seeds_are_accepted(clinic_path, tmp_path):
    # Only a generated log needs a non-negative seed.
    assert main(["anonymize", "--input", str(clinic_path), "--delta", "0.4", "--seed", "-3",
                 "--out", str(tmp_path / "a.json")]) == 0
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"logs": [str(clinic_path)], "deltas": [0.4], "mapes": [], "seed": -3}),
                      encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert "ERROR" not in out.read_text(encoding="utf-8")


def test_anonymize_accepts_utf8_byte_order_mark(clinic_path, tmp_path):
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + clinic_path.read_bytes())
    outputs = []
    for path in (clinic_path, with_bom):
        out = tmp_path / f"{path.stem}.json"
        assert main([
            "anonymize", "--input", str(path), "--agg", "max", "--delta", "0.4", "--seed", "9", "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_module_entry_point(clinic_path, tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dpdfg",
         "anonymize", "--input", str(clinic_path),
         "--agg", "frequency", "--delta", "0.4", "--out", str(out)],
        capture_output=True, text=True, env=_env_importing_dpdfg(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["mode"] == "P1"


def test_package_version_matches_pyproject():
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert dpdfg.__version__ == pyproject["project"]["version"]


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a check the program relies on must raise.
    package = Path(dpdfg.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


# Modules that importing the package must not load: numpy, a test extra,
# and the cold-start work that no CSV release needs (dataclass machinery,
# the XML parser, statistics).
UNLOADED = {"numpy", "dataclasses", "inspect", "xml.etree.ElementTree", "statistics", "fractions"}


@pytest.mark.parametrize("module", ["dpdfg", "dpdfg.cli", "dpdfg.bench"])
def test_import_does_not_load_numpy(module):
    # The runtime needs only the standard library. The modules are compared
    # before and after the import, so a site hook that preloads one does not
    # count against the package.
    statement = "from dpdfg.cli import main" if module == "dpdfg.cli" else f"import {module}"
    script = f"import sys; before = set(sys.modules); {statement}; print(sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env_importing_dpdfg())
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert "dpdfg" in added and not added & UNLOADED, sorted(added & UNLOADED)


def test_cli_sweep_of_a_profile_runs_without_numpy(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "logs": [{"profile": "skewed", "traces": 20}], "deltas": [0.4], "mapes": [0.3], "aggregations": ["max"],
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"
    # A None entry in sys.modules makes `import numpy` raise ImportError.
    script = ("import sys; sys.modules['numpy'] = None; from dpdfg.cli import main; "
              f"sys.exit(main(['sweep', '--config', {str(config)!r}, '--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env_importing_dpdfg())
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 3 and all(row.endswith(",") for row in rows[1:])


def _env_importing_dpdfg() -> dict:
    """The environment plus a PYTHONPATH under which a child interpreter
    imports the same dpdfg as this test, with or without PYTHONPATH set."""
    package_root = str(Path(dpdfg.__file__).resolve().parent.parent)
    paths = [package_root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_cli_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # Each command runs in its own interpreter under two PYTHONHASHSEEDs. A
    # sweep of two profiles over three aggregations and three runs, with
    # boundary time, prepares each (log, aggregation) once for several cells
    # and shares one memo of noise draws across logs and cells; its grids
    # agree in every column but wall_clock_ms. The skewed log's P1 JSON and
    # P2 five-run CSV, and a P1 avg release of the sparse unique log with
    # boundary time (degenerate, boundary-constant and multi-prior edges),
    # are byte-identical.
    data = Path(__file__).parent / "data"
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "logs": [{"profile": "skewed", "traces": 20}, {"profile": "unique", "traces": 12}], "deltas": [0.4],
        "mapes": [0.3], "aggregations": ["frequency", "max", "avg"], "runs": 3, "include_boundary_time": True,
    }), encoding="utf-8")
    # A seedless anonymize takes a fresh seed, so each release names one.
    number = ["--timestamp-format", "number", "--timestamp-unit", "ns", "--seed", "20200510"]
    commands = {
        "grid.csv": ["sweep", "--config", str(config)],
        "skewed.json": ["anonymize", "--input", str(data / "skewed.csv"), *number, "--delta", "0.4", "--agg", "max"],
        "skewed-p2.csv": [
            "anonymize", "--input", str(data / "skewed.csv"), *number, "--mape", "0.3", "--runs", "5", "--format", "csv",
        ],
        "unique.json": [
            "anonymize", "--input", str(data / "unique.csv"), *number, "--delta", "0.4", "--agg", "avg",
            "--include-boundary-time", "--runs", "3",
        ],
    }
    outputs = {}
    for hash_seed in ("0", "20200510"):
        env = {**_env_importing_dpdfg(), "PYTHONHASHSEED": hash_seed}
        for name, command in commands.items():
            out = tmp_path / f"{hash_seed}-{name}"
            proc = subprocess.run(
                [sys.executable, "-m", "dpdfg", *command, "--out", str(out)], capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, (name, proc.stderr)
            outputs.setdefault(name, []).append(out.read_bytes())
    grids = [list(csv.DictReader(io.StringIO(grid.decode("utf-8")))) for grid in outputs.pop("grid.csv")]
    assert len(grids[0]) == len(grids[1]) == 12
    for a, b in zip(*grids):
        assert not a["error"], a
        del a["wall_clock_ms"], b["wall_clock_ms"]
        assert a == b
    for name, (first, second) in outputs.items():
        assert first == second, name


def test_cli_inspect_of_an_iso_log_matches_its_numeric_log(tmp_path, capsys):
    # An ISO-8601 rendering of a numeric log, truncated to the microsecond,
    # keeps each case's order, so its DFG has the same edges and counts.
    numeric = Path(__file__).parent / "data" / "skewed.csv"
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    with numeric.open(newline="", encoding="utf-8") as src:
        rows = csv.reader(src)
        lines = [",".join(next(rows))]
        lines += [f"{case},{activity},{(epoch + timedelta(microseconds=int(ns) // 1000)).isoformat()}"
                  for case, activity, ns in rows]
    iso = tmp_path / "skewed-iso.csv"
    iso.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["inspect", "--input", str(iso), "--agg", "frequency"]) == 0
    from_iso = capsys.readouterr().out
    number = ["--timestamp-format", "number", "--timestamp-unit", "ns"]
    assert main(["inspect", "--input", str(numeric), "--agg", "frequency", *number]) == 0
    assert from_iso == capsys.readouterr().out
    assert "edges: " in from_iso and "n=" in from_iso


def test_cli_xes_input(tmp_path):
    xes = tmp_path / "log.xes"
    xes.write_text(
        """<log><trace><string key="concept:name" value="t1"/>
        <event><string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2021-01-01T08:00:00Z"/></event>
        <event><string key="concept:name" value="B"/>
        <date key="time:timestamp" value="2021-01-01T10:30:00Z"/></event>
        </trace></log>""",
        encoding="utf-8",
    )
    out = tmp_path / "x.json"
    code = main(["anonymize", "--input", str(xes), "--agg", "max", "--mape", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["time_unit"] == "h"
    assert report["edges"][0]["true_value"] == pytest.approx(2.5)


@pytest.mark.parametrize("seed", ["abc", "1.5"])
def test_cli_seed_must_be_an_integer_or_random(clinic_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["anonymize", "--input", str(clinic_path), "--delta", "0.4", "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: expected an integer or 'random', got '{seed}'" in capsys.readouterr().err


def test_cli_bad_seed_env_var_is_data_error(clinic_path, capsys, monkeypatch):
    monkeypatch.setenv("DPDFG_SEED", "abc")
    assert main(["anonymize", "--input", str(clinic_path), "--delta", "0.4"]) == 1
    assert capsys.readouterr().err == "dpdfg: error: DPDFG_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"case,activity,timestamp,note\nP1,A,1," + b"x" * 140_000 + b"\n", "line 2: field larger than field limit (131072)"),
        (b"case,activity,timestamp\nP1,A,1\nP1,\xff,2\n", "line 3: not UTF-8 (invalid start byte)"),
    ],
    ids=["oversize-field", "not-utf8"],
)
@pytest.mark.parametrize("command", ["anonymize", "inspect"])
def test_cli_unreadable_csv_is_data_error(tmp_path, command, content, message):
    path = tmp_path / "log.csv"
    path.write_bytes(content)
    args = ["--agg", "frequency"] + (["--delta", "0.4"] if command == "anonymize" else [])
    proc = subprocess.run(
        [sys.executable, "-m", "dpdfg", command, "--input", str(path), *args],
        capture_output=True, text=True, env=_env_importing_dpdfg(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"dpdfg: error: {message}\n")



@pytest.mark.parametrize("case", ["sweep-to-missing-dir", "synthetic-without-trace-count", "inspect-missing-file"])
def test_cli_data_error_exits_1_with_one_error_line(clinic_path, tmp_path, capsys, case):
    # Each subcommand's data errors leave through the same exit: status 1,
    # nothing on stdout, and one `dpdfg: error:` line on stderr.
    config = tmp_path / "sweep.json"
    missing = tmp_path / "no" / "such" / "dir" / "grid.csv"
    if case == "sweep-to-missing-dir":
        config.write_text(json.dumps({
            "logs": [str(clinic_path)], "deltas": [0.4], "mapes": [], "aggregations": ["frequency"], "runs": 1,
        }), encoding="utf-8")
        argv, message = ["sweep", "--config", str(config), "--out", str(missing)], f"cannot write {missing}: "
    elif case == "synthetic-without-trace-count":
        config.write_text(json.dumps({"logs": [{"synthetic": {}}]}), encoding="utf-8")
        argv, message = ["sweep", "--config", str(config)], "missing 1 required positional argument: 'trace_count'"
    else:
        argv, message = ["inspect", "--input", str(missing)], "No such file or directory"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpdfg: error: ") and captured.err.count("\n") == 1
    assert captured.err.count("dpdfg: error:") == 1
    assert message in captured.err
    assert not missing.exists()

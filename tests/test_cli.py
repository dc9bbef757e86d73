import json
import os
import subprocess
import sys
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
    assert main(["sweep", "--config", str(config), "--out", str(out), "--threads", "3"]) == 0
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


def test_import_dpdfg_does_not_load_numpy():
    # Only dpdfg.bench needs numpy; keeping it out of `import dpdfg` keeps
    # the library's import time and resident memory down.
    proc = subprocess.run(
        [sys.executable, "-c", "import dpdfg, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=_env_importing_dpdfg(),
    )
    assert proc.returncode == 0, proc.stderr


def test_import_dpdfg_cli_does_not_load_numpy():
    # `anonymize` and `inspect` start without numpy; `sweep` imports it.
    proc = subprocess.run(
        [sys.executable, "-c", "import dpdfg.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=_env_importing_dpdfg(),
    )
    assert proc.returncode == 0, proc.stderr


def _env_importing_dpdfg() -> dict:
    """The environment plus a PYTHONPATH under which a child interpreter
    imports the same dpdfg as this test, with or without PYTHONPATH set."""
    package_root = str(Path(dpdfg.__file__).resolve().parent.parent)
    paths = [package_root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


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

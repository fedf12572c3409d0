import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catsim
from catsim.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def test_feasibility_writes_report(tmp_path, capsys):
    code, out = run(tmp_path, "feasibility", "--config", "discussion")
    # Discussion parameters sit on warn-level margins -> exit 1
    assert code == 1
    assert (out / "feasibility.txt").exists()
    with open(out / "feasibility.csv") as fh:
        rows = list(csv.DictReader(fh))
    names = {r["name"] for r in rows}
    assert "coupling_ceiling" in names
    captured = capsys.readouterr().out
    assert "phi_grav" in captured
    assert "overall:" in captured


def test_feasibility_bad_config(tmp_path, capsys):
    code, _ = run(tmp_path, "feasibility", "--config", "no_such_thing")
    assert code == 2


def test_feasibility_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    code, _ = run(tmp_path, "feasibility", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    for section in ("atom", "trap", "protocol"):
        assert section in err


def test_protocol_outputs(tmp_path):
    code, out = run(tmp_path, "protocol", "--config", "discussion")
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["phi_grav_rad"]) == pytest.approx(0.930, abs=0.001)
    assert float(rows[0]["p_down"]) == pytest.approx(0.799, abs=0.001)
    steps = [json.loads(line)
             for line in (out / "steps.jsonl").read_text().splitlines()]
    assert [s["label"] for s in steps] == [
        "prepare", "pi_half", "displace", "free_fall", "undisplace",
        "pi_half_close"]


def test_protocol_beta_zero(tmp_path):
    code, out = run(tmp_path, "protocol", "--config", "discussion",
                    "--beta", "0")
    assert code == 0
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["p_down"]) == pytest.approx(1.0, abs=1e-10)


def test_protocol_deterministic(tmp_path):
    _, out1 = run(tmp_path / "a", "protocol", "--config", "discussion",
                  "--thermal", "10", "--samples", "10", "--seed", "42")
    _, out2 = run(tmp_path / "b", "protocol", "--config", "discussion",
                  "--thermal", "10", "--samples", "10", "--seed", "42")
    assert (out1 / "summary.csv").read_bytes() == \
        (out2 / "summary.csv").read_bytes()


def test_protocol_thermal_rows_independent_of_sample_count(tmp_path):
    _, short = run(tmp_path / "s", "protocol", "--config", "discussion",
                   "--thermal", "10", "--samples", "8", "--seed", "1")
    _, long = run(tmp_path / "l", "protocol", "--config", "discussion",
                  "--thermal", "10", "--samples", "50", "--seed", "1")
    short_rows = (short / "summary.csv").read_bytes().splitlines()
    long_rows = (long / "summary.csv").read_bytes().splitlines()
    assert len(short_rows) == 9 and len(long_rows) == 51
    assert short_rows == long_rows[:9]


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_protocol_rejects_zero_samples(tmp_path, capsys):
    code, out = run(tmp_path, "protocol", "--config", "discussion",
                    "--thermal", "10", "--samples", "0")
    assert code == 2
    assert "count" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("nbar", ["-1", "nan", "inf"])
def test_protocol_rejects_bad_nbar(tmp_path, capsys, nbar):
    code, _ = run(tmp_path, "protocol", "--config", "discussion",
                  "--thermal", nbar, "--samples", "4")
    assert code == 2
    assert "nbar" in _one_line_error(capsys)


@pytest.mark.parametrize("alpha", ["foo", "nan"])
def test_protocol_rejects_bad_alpha(tmp_path, capsys, alpha):
    code, _ = run(tmp_path, "protocol", "--config", "discussion",
                  "--alpha", alpha)
    assert code == 2
    assert "--alpha" in _one_line_error(capsys)


_BAD_FLAGS = [
    ("protocol --beta nan", "--beta"),
    ("protocol --beta inf", "--beta"),
    ("sweep --min nan --max 1e-4", "--min"),
    ("sweep --min 1e-6 --max nan", "--max"),
    ("sweep --min 1e-6 --max inf", "--max"),
    ("sweep --min 1e-6 --max 1e-4 --points 0", "--points"),
    ("transient --points 0", "--points"),
    ("transient --points -3", "--points"),
]


@pytest.mark.parametrize("argv,flag", _BAD_FLAGS,
                         ids=[argv for argv, _ in _BAD_FLAGS])
def test_rejects_bad_numeric_flag(tmp_path, capsys, argv, flag):
    command, *rest = argv.split()
    code, out = run(tmp_path, command, "--config", "discussion", *rest)
    assert code == 2
    assert flag in _one_line_error(capsys)
    assert not out.exists()


def test_config_rejects_non_finite_value(tmp_path, capsys, discussion_doc):
    discussion_doc["protocol"]["free_fall_duration_s"] = math.inf
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(discussion_doc))     # written as Infinity
    assert "Infinity" in cfg.read_text()
    code, _ = run(tmp_path, "protocol", "--config", str(cfg))
    assert code == 2
    assert "protocol.free_fall_duration_s" in _one_line_error(capsys)


def test_protocol_csv_precision_round_trips(tmp_path):
    _, out = run(tmp_path, "protocol", "--config", "discussion")
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    for field in ("phi_grav_rad", "p_down", "visibility", "residual"):
        v = float(row[field])
        assert format(v, ".17g") == row[field]


def test_transient_output(tmp_path):
    code, out = run(tmp_path, "transient", "--config", "figure_transient",
                    "--points", "50")
    assert code == 0
    with open(out / "transient.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51
    first = rows[0]
    assert all(float(first[k]) == 0.0 for k in first)
    t_f = float(rows[-1]["t_s"])
    assert 1.2e6 < t_f < 1.3e6
    for row in rows[1:]:
        t = float(row["t_s"])
        omega = 2.0 * math.pi / t_f
        expected = 1.0 - math.sin(2.0 * omega * t) / (2.0 * omega * t)
        assert float(row["rel_error"]) == pytest.approx(expected, abs=1e-9)


def test_verify_quick(tmp_path, capsys):
    code, out = run(tmp_path, "verify", "--quick")
    assert code == 0
    assert "checks passed" in capsys.readouterr().out
    with open(out / "verify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "true" for r in rows)


def test_sweep_scaling_and_order(tmp_path):
    code, out = run(tmp_path, "sweep", "--config", "discussion",
                    "--min", "1e-6", "--max", "1e-4", "--points", "5")
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["index"]) for r in rows] == [0, 1, 2, 3, 4]
    # delta_x scales as 1/omega
    dx0, dx4 = float(rows[0]["delta_x_m"]), float(rows[4]["delta_x_m"])
    w0, w4 = float(rows[0]["omega_soft_radps"]), \
        float(rows[4]["omega_soft_radps"])
    assert dx0 / dx4 == pytest.approx(w4 / w0, rel=1e-9)


def test_sweep_deterministic(tmp_path):
    _, a = run(tmp_path / "a", "sweep", "--config", "discussion",
               "--min", "1e-6", "--max", "1e-4", "--points", "6")
    _, b = run(tmp_path / "b", "sweep", "--config", "discussion",
               "--min", "1e-6", "--max", "1e-4", "--points", "6")
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_single_point(tmp_path):
    code, out = run(tmp_path, "sweep", "--config", "discussion",
                    "--min", "1e-6", "--max", "1e-4", "--points", "1")
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["omega_soft_radps"]) for r in rows] == [1e-6]


def test_sweep_bad_range(tmp_path):
    code, _ = run(tmp_path, "sweep", "--config", "discussion",
                  "--min", "1e-4", "--max", "1e-6")
    assert code == 2


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(catsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run(
        [sys.executable, "-c",
         "import catsim.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)

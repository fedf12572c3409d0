import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catsim
from catsim import classical
from catsim.cli import _write, main
from catsim.params import ConfigError


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


def test_thermal_run_removes_a_coherent_runs_steps(tmp_path):
    """A thermal run into a coherent run's --out leaves no steps.jsonl
    behind, unless the thermal run fails and so changes nothing."""
    out = tmp_path / "out"
    thermal = ["protocol", "--config", "discussion", "--thermal", "10",
               "--samples", "5", "--out", str(out)]
    assert main(["protocol", "--config", "discussion", "--out", str(out)]) == 0
    steps = (out / "steps.jsonl").read_bytes()
    (out / "summary.csv").unlink()
    (out / "summary.csv").mkdir()       # the thermal run cannot write it
    assert main(thermal) == 2
    assert (out / "steps.jsonl").read_bytes() == steps
    (out / "summary.csv").rmdir()
    assert main(thermal) == 0
    assert [p.name for p in out.iterdir()] == ["summary.csv"]
    assert len((out / "summary.csv").read_text().splitlines()) == 6


def test_feasibility_fail_verdict_exits_3(tmp_path, capsys, discussion_doc):
    """A fail verdict is a report, not an input error: exit 3, both files."""
    discussion_doc["protocol"]["freefall_force_N"] = 1e-12
    cfg = tmp_path / "pushed.json"
    cfg.write_text(json.dumps(discussion_doc))
    code, out = run(tmp_path, "feasibility", "--config", str(cfg))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "" and "overall: fail" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "feasibility.csv", "feasibility.txt"]


def test_protocol_beta_zero(tmp_path):
    code, out = run(tmp_path, "protocol", "--config", "discussion",
                    "--beta", "0")
    assert code == 0
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["p_down"]) == pytest.approx(1.0, abs=1e-10)


# sha256 of a coherent run's two files, recorded before the step log was
# built straight from the kernel's step values: the bytes stay as they were
_PINNED = {
    ("--alpha", "1+1j"): (
        "e6772adb4eb5368a7e2fd4a4485bbe089d1ac7f369e45e1cf0138b711dd24a8e",
        "053f858d9e60c5fad2a01b4af2fe347a152e0e827ad83dc227923f1ad493ff34"),
    ("--alpha", "1+1j", "--beta", "0"): (
        "1a93e900f56707ffc4dc022af5eca0d76d16f768438fe932e007b136593b02ec",
        "f419b4cefc2d2389dbf130426b15ef782c58032d3b3e6f0b9759ff2dde0ff40a"),
}


@pytest.mark.parametrize("flags", list(_PINNED))
def test_protocol_files_are_pinned_bytes(tmp_path, flags):
    code, out = run(tmp_path, "protocol", "--config", "discussion", *flags)
    assert code == 0
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("steps.jsonl", "summary.csv")) == _PINNED[flags]


def test_protocol_steps_are_strict_json(tmp_path):
    """An accepted run writes no NaN or Infinity into steps.jsonl: at
    beta = 0 the rounding guard bounds no finite alpha, and step 8's
    recombined amplitude stays finite where a_d + a_u would overflow."""
    code, out = run(tmp_path, "protocol", "--config", "discussion",
                    "--alpha", "1e10+1.7e308j", "--beta", "0")
    assert code == 0

    def refuse(constant):
        raise ValueError(f"steps.jsonl holds {constant}")
    steps = [json.loads(line, parse_constant=refuse)
             for line in (out / "steps.jsonl").read_text().splitlines()]
    assert steps[-1]["label"] == "pi_half_close"


def test_protocol_beta_zero_takes_the_largest_alpha(tmp_path, capsys):
    """At beta = 0 the rounding guard bounds no finite alpha, and an alpha
    whose magnitude overflows is refused by name, quoting no NaN."""
    code, out = run(tmp_path, "protocol", "--config", "discussion",
                    "--alpha", "1.7976931348623157e308j", "--beta", "0")
    assert code == 0
    with open(out / "summary.csv") as fh:
        assert float(next(csv.DictReader(fh))["p_down"]) == 1.0
    capsys.readouterr()
    code, out = run(tmp_path / "inf", "protocol", "--config", "discussion",
                    "--alpha", "1.7e308+1.7e308j", "--beta", "0")
    assert code == 2
    err = _one_line_error(capsys)
    assert "alpha" in err and "nan" not in err


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
    _, one = run(tmp_path / "o", "protocol", "--config", "discussion",
                 "--thermal", "10", "--samples", "1", "--seed", "1")
    short_rows = (short / "summary.csv").read_bytes().splitlines()
    long_rows = (long / "summary.csv").read_bytes().splitlines()
    one_rows = (one / "summary.csv").read_bytes().splitlines()
    assert len(short_rows) == 9 and len(long_rows) == 51
    assert short_rows == long_rows[:9]
    # one draw is still a thermal run: its row, and no step log
    assert one_rows == long_rows[:2]
    assert not (one / "steps.jsonl").exists()


def test_thermal_columns_are_results_and_summary_rows(tmp_path,
                                                      discussion):
    """A thermal run stores the kernel's four columns once; ``results`` and
    summary.csv are both read from them."""
    dist = catsim.run_protocol(discussion, catsim.ThermalSample(10.0, 3, 40))
    columns = [dist.phi_grav_values, dist.p_down_values,
               dist.visibility_values, dist.residual_values]
    assert [len(c) for c in columns] == [40] * 4
    rows = [(r.phi_grav, r.p_down, r.visibility, r.residual)
            for r in dist.results]
    assert rows == list(zip(*(c.tolist() for c in columns)))
    assert dist == dist and dist != catsim.run_protocol(
        discussion, catsim.ThermalSample(10.0, 3, 40))
    _, out = run(tmp_path, "protocol", "--config", "discussion",
                 "--thermal", "10", "--samples", "40", "--seed", "3")
    with open(out / "summary.csv") as fh:
        written = list(csv.reader(fh))[1:]
    assert written == [[format(v, ".17g") for v in row] for row in rows]


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


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "-1+1j"), ("--alpha", "-0.5j"), ("--alpha", "-1e-3"),
    ("--beta", "-1e-4")])
def test_negative_value_after_its_flag(tmp_path, flag, value):
    """A negative value may follow its flag as the next word, as it may
    follow it after '=', with the same result."""
    argv = ["protocol", "--config", "discussion"]
    code, out = run(tmp_path / "separated", *argv, flag, value)
    joined_code, joined = run(tmp_path / "joined", *argv, f"{flag}={value}")
    assert code == joined_code == 0
    assert (out / "summary.csv").read_bytes() == \
        (joined / "summary.csv").read_bytes()


_BAD_FLAGS = [
    ("protocol --beta nan", "--beta"),
    ("protocol --beta inf", "--beta"),
    ("protocol --beta foo", "--beta"),
    ("protocol --thermal 10 --seed True", "--seed"),
    ("protocol --thermal 10 --samples 4 --seed -1", "seed"),
    # --samples, --seed and --alpha are checked whether or not --thermal
    # reads them
    ("protocol --samples 0", "--samples"),
    ("protocol --samples 1000001", "--samples"),
    ("protocol --thermal 10 --samples 1000001", "--samples"),
    ("protocol --seed -5", "--seed"),
    ("protocol --samples 0 --seed -5", "--samples"),
    ("protocol --thermal 10 --samples 5 --alpha nan", "--alpha"),
    ("protocol --thermal 10 --samples 5 --alpha foo", "--alpha"),
    ("protocol --alpha 1e300", "alpha"),    # would overflow the weights
    ("protocol --alpha 1e12", "alpha"),     # phi_grav lost to rounding
    ("protocol --alpha 1.7e308+1.7e308j", "alpha"),     # |alpha| overflows
    ("protocol --beta 1e6", "beta"),        # phi_grav lost to rounding
    ("protocol --thermal 1e308 --samples 3", "nbar"),
    ("transient --points 1.5", "--points"),
    ("sweep --min nan --max 1e-4", "--min"),
    ("sweep --min 1e-6 --max nan", "--max"),
    ("sweep --min 1e-6 --max inf", "--max"),
    ("sweep --min 1e-6 --max 1e-4 --points 0", "--points"),
    ("sweep --min 2.2e-311 --max 1e-4", "--min"),
    ("transient --points 0", "--points"),
    ("transient --points -3", "--points"),
    ("transient --points 1000001", "--points"),
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


@pytest.mark.parametrize("section,key,value,line", [
    ("protocol", "free_fall_duration_s", math.inf,
     "protocol.free_fall_duration_s must be finite, got inf"),
    ("atom", "linewidth_radps", 3e15,
     "atom.transition_frequency_radps must exceed linewidth_radps"),
    ("trap", "paul_frequency_soft_radps", 200.0,
     "trap.paul_frequency_soft_radps must be below "
     "paul_frequency_stiff_radps"),
], ids=["non-finite", "atom-cross-field", "trap-cross-field"])
def test_config_refusal_is_the_record_message(tmp_path, capsys,
                                              discussion_doc, section, key,
                                              value, line):
    """A record's refusal, read through the loader, is printed as the
    record words it: the message names section.field once."""
    discussion_doc[section][key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(discussion_doc))
    code, out = run(tmp_path, "feasibility", "--config", str(cfg))
    assert code == 2
    assert _one_line_error(capsys) == f"error: {line}\n"
    assert not out.exists()


def test_transient_rejects_zero_separation(tmp_path, capsys,
                                           discussion_doc):
    # the free-fall phase that rel_error divides by would be 0
    discussion_doc["protocol"]["superposition_size_m"] = 0.0
    cfg = tmp_path / "dx.json"
    cfg.write_text(json.dumps(discussion_doc))
    code, out = run(tmp_path, "transient", "--config", str(cfg))
    assert code == 2
    assert "superposition_size_m" in _one_line_error(capsys)
    assert not out.exists()


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
    assert len(rows) == 8
    assert all(r["passed"] == "true" for r in rows)
    for r in rows:
        assert float(r["headroom"]) == pytest.approx(
            float(r["measured"]) / float(r["tolerance"]), rel=1e-15)


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


def _env_with_src() -> dict:
    """The environment with this catsim's source directory on PYTHONPATH."""
    src = str(Path(catsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_warning_is_one_stderr_line(tmp_path):
    """A warning reaches a CLI user as one line, not as a source location."""
    proc = subprocess.run(
        [sys.executable, "-m", "catsim.cli", "protocol", "--config",
         "discussion", "--out", str(tmp_path / "out")],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: Lamb-Dicke parameter 0.645 > 0.3; sideband displacement "
        "beam is only marginally selective\n")


def test_cli_import_leaves_scipy_unloaded():
    """Neither the CLI nor the full oracle suite needs scipy."""
    subprocess.run(
        [sys.executable, "-c",
         "import catsim.cli, catsim.verify, sys; catsim.verify.run_all(); "
         "assert 'scipy' not in sys.modules"],
        env=_env_with_src(), check=True, timeout=60)


# the closed-form commands, which use math and cmath only
_NUMPY_FREE = [
    ["feasibility", "--config", "discussion"],
    ["protocol", "--config", "discussion", "--alpha", "1+1j"],
    ["transient", "--config", "figure_transient", "--points", "4"],
    ["sweep", "--config", "discussion", "--min", "1e-6", "--max", "1e-4",
     "--points", "3"],
]


@pytest.mark.parametrize("argv", _NUMPY_FREE, ids=lambda argv: argv[0])
def test_closed_form_command_leaves_numpy_unloaded(tmp_path, argv):
    """A fresh process pays for no numpy import unless it samples a thermal
    state or runs the oracles."""
    subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         "import sys, catsim.cli; "
         "code = catsim.cli.main(sys.argv[1:]); "
         "assert code in (0, 1), code; "
         "assert 'numpy' not in sys.modules, 'numpy was imported'",
         *argv, "--out", str(tmp_path / "out")],
        env=_env_with_src(), check=True, timeout=60,
        stdout=subprocess.DEVNULL)


def test_ode_oracle_runs_without_numpy():
    """The RK4 oracle is math only: in a process where numpy cannot be
    imported it runs a quench and returns the same point as here."""
    spec = classical.TimeDependentTrapSpec.sudden_quench(
        1e-15, 2.0, 0.5, 9.81, switch_time=0.4)
    args = (classical.PhaseSpacePoint(1e-6, 2e-21), spec, 1.0, 1e-3)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; "
         "from catsim.classical import *; "
         f"print(repr(tuple(ode_oracle{args!r})))"],
        env=_env_with_src(), check=True, timeout=60, capture_output=True,
        text=True)
    assert proc.stdout.strip() == repr(tuple(classical.ode_oracle(*args)))


_CATSIM = {f"catsim.{name}" for name in (
    "cli", "params", "classical", "gaussian", "fock_oracle", "protocol",
    "feasibility", "verify")}
# each command, and the catsim modules it must not load
_FOOTPRINT = [
    (["feasibility", "--config", "discussion"],
     _CATSIM - {"catsim.cli", "catsim.params", "catsim.feasibility"}),
    (["sweep", "--config", "discussion", "--min", "1e-6", "--max", "1e-4",
      "--points", "3"],
     _CATSIM - {"catsim.cli", "catsim.params", "catsim.feasibility"}),
    (["transient", "--config", "figure_transient", "--points", "4"],
     _CATSIM - {"catsim.cli", "catsim.params", "catsim.classical"}),
    (["protocol", "--config", "discussion", "--alpha", "1+1j"],
     {"catsim.classical", "catsim.fock_oracle", "catsim.verify"}),
    (["protocol", "--config", "discussion", "--thermal", "1", "--samples",
      "3"], {"catsim.classical", "catsim.fock_oracle", "catsim.verify"}),
    (["verify", "--quick"], {"catsim.protocol", "catsim.feasibility"}),
]


@pytest.mark.parametrize("argv,forbidden", _FOOTPRINT, ids=[
    "feasibility", "sweep", "transient", "protocol", "protocol_thermal",
    "verify"])
def test_command_imports_only_what_it_runs(tmp_path, argv, forbidden):
    """A fresh process running the command loads only the modules it runs."""
    env = _env_with_src()
    env["CATSIM_LOG"] = "DEBUG"     # an environment variable catsim ignores
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         "import sys, catsim.cli; "
         "code = catsim.cli.main(sys.argv[1:]); "
         "assert code in (0, 1), code; "
         "print(*sys.modules)",
         *argv, "--out", str(tmp_path / "out")],
        env=env, check=True, timeout=60, capture_output=True, text=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "catsim.params" in loaded
    assert not loaded & forbidden
    # records are NamedTuples, and nothing logs
    assert not loaded & {"dataclasses", "logging"}


def test_package_names_resolve_on_first_use():
    """``import catsim`` loads no submodule; each name in ``__all__``, and
    ``import *``, imports its module when first asked for."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys, catsim; "
         "assert not [m for m in sys.modules if m.startswith('catsim.')]; "
         "assert set(catsim.__all__) <= set(dir(catsim)); "
         "from catsim import *; "
         "names = dict(vars()); "
         "assert all(n in names for n in catsim.__all__); "
         "assert catsim.protocol.run_protocol is run_protocol; "
         "assert catsim.ThermalSample.__module__ == 'catsim.protocol'; "
         "import catsim.verify; assert catsim.verify.run_all"],
        env=_env_with_src(), check=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["feasibility", "--config", "discussion"],
    ["transient", "--config", "discussion", "--points", "4"],
    ["sweep", "--config", "discussion", "--min", "1e-6", "--max", "1e-4",
     "--points", "3"],
], ids=lambda argv: argv[0])
def test_force_only_where_it_is_read(tmp_path, capsys, argv):
    """Only protocol reads --force; elsewhere it is an unknown flag."""
    code, out = run(tmp_path, *argv, "--force")
    assert code == 2
    assert "--force" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["feasibility", "--config", "discussion"], "feasibility.txt"),
    (["feasibility", "--config", "discussion"], "feasibility.csv"),
    (["protocol", "--config", "discussion"], "summary.csv"),
    (["protocol", "--config", "discussion"], "steps.jsonl"),
    (["transient", "--config", "discussion", "--points", "4"],
     "transient.csv"),
    (["sweep", "--config", "discussion", "--min", "1e-6", "--max", "1e-4",
      "--points", "3"], "sweep.csv"),
    (["verify", "--quick"], "verify.csv"),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_output_file_that_is_a_directory(tmp_path, capsys, argv, name):
    """A run that cannot write one output leaves none of the others and
    prints nothing on stdout."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main([*argv, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1 and name in captured.err
    assert [p.name for p in out.iterdir()] == [name]


def test_failed_run_keeps_an_earlier_runs_files(tmp_path, capsys):
    """A run that cannot write one file leaves every file of an earlier
    run in --out as it was, and no temporary file."""
    out = tmp_path / "out"
    argv = ["feasibility", "--config", "discussion", "--out", str(out)]
    assert main(argv) == 1
    # marked, so that a rewrite with the same text would show too
    with open(out / "feasibility.txt", "a") as fh:
        fh.write("earlier run\n")
    report = (out / "feasibility.txt").read_bytes()
    (out / "feasibility.csv").unlink()
    (out / "feasibility.csv").mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    assert "feasibility.csv" in _one_line_error(capsys)
    assert (out / "feasibility.txt").read_bytes() == report
    assert sorted(p.name for p in out.iterdir()) == [
        "feasibility.csv", "feasibility.txt"]


@pytest.mark.parametrize("error,raised", [
    (OSError(28, "No space left on device"), ConfigError),
    (RuntimeError("writer failed"), RuntimeError),
])
def test_writer_that_fails_mid_file(tmp_path, error, raised):
    """A writer that raises after writing part of its file leaves the old
    file as it was and no temporary name behind."""
    (tmp_path / "a.csv").write_text("old run\n")

    def write(fh):
        fh.write("new run, half written")
        fh.flush()
        raise error

    with pytest.raises(raised):
        _write(str(tmp_path), {"b.csv": lambda fh: fh.write("b\n"),
                               "a.csv": write})
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "old run\n"


@pytest.mark.parametrize("digits", [400, 5000])
def test_config_rejects_integer_beyond_float_range(tmp_path, capsys,
                                                   discussion_doc, digits):
    discussion_doc["atom"]["mass_kg"] = "HUGE"
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(discussion_doc).replace(
        '"HUGE"', "1" + "0" * (digits - 1)))         # written out as digits
    code, _ = run(tmp_path, "feasibility", "--config", str(cfg))
    assert code == 2
    # past 4300 digits Python's json itself refuses the integer
    err = _one_line_error(capsys)
    assert "atom.mass_kg" in err or digits > 4300 and "not valid JSON" in err


@pytest.mark.parametrize("malformed,message", [
    # json alone would keep the second value and run on it
    (lambda text: text.replace('"mass_kg": 1e-15',
                               '"mass_kg": 1e-15, "mass_kg": 2e-15'),
     "key 'mass_kg' appears twice in one object"),
    # json alone raises RecursionError long before the end
    (lambda text: "[" * 200_000, "maximum recursion depth exceeded"),
], ids=["repeated_key", "nested_too_deep"])
def test_config_refuses_malformed_json(tmp_path, capsys, discussion_doc,
                                       malformed, message):
    """A key given twice in one object, and a document nested past the
    recursion limit, each exit 2 with one line naming the file."""
    text = json.dumps(discussion_doc)
    assert text.count('"mass_kg": 1e-15') == 1     # the nanoparticle's
    cfg = tmp_path / "malformed.json"
    cfg.write_text(malformed(text))
    code, out = run(tmp_path, "feasibility", "--config", str(cfg))
    assert code == 2
    err = _one_line_error(capsys)
    assert f"{cfg}: not valid JSON ({message}" in err
    assert not out.exists()


# --- no input ends in a traceback ----------------------------------------------

def _preset_doc():
    return json.loads((resources.files("catsim") / "presets"
                       / "discussion.json").read_text())


_DOC = _preset_doc()
# (section, key) to mutate; key None replaces or deletes the whole section
_TARGETS = ([(section, key) for section in _DOC for key in _DOC[section]]
            + [("trap", "paul_frequency_stiff_Hz"),
               ("protocol", "superposition_size_m"), ("atom", "bogus")]
            + [(section, None) for section in [*_DOC, "extra"]])
_WILD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-320,
                     1e308, "1e-6", "", True, None, [], {}]),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024]),
    st.floats(),
    st.integers(),
)
_DELETE = "<delete>"
# small sizes only: every command here runs in well under a second
_COMMANDS = [
    ["feasibility"],
    ["protocol"],
    ["protocol", "--thermal", "1", "--samples", "3"],
    ["transient", "--points", "4"],
    ["sweep", "--min", "1e-6", "--max", "1e-4", "--points", "3"],
]


@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
@pytest.mark.parametrize("config", ["", "dir", "discussion"])
def test_config_naming_a_directory(tmp_path, capsys, monkeypatch, command,
                                   config):
    """--config reads only a regular file as a path: '' (that is '.') and a
    directory exit 2 with one line, and a directory named like a preset
    does not shadow it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "discussion").mkdir()
    code = main([command[0], "--config", config, *command[1:]])
    if config == "discussion":
        assert code == (1 if command[0] == "feasibility" else 0)
        assert capsys.readouterr().err == ""
    else:
        assert code == 2
        assert f"config '{config}'" in _one_line_error(capsys)


def test_config_absolute_name_is_never_a_preset(tmp_path, capsys,
                                                discussion_doc):
    """Only a shipped stem names a preset: an absolute name that is not a
    file does not load <name>.json in its place."""
    (tmp_path / "other.json").write_text(json.dumps(discussion_doc))
    config = str(tmp_path / "other")
    code, out = run(tmp_path, "feasibility", "--config", config)
    assert code == 2
    assert f"config '{config}' is neither" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [command[0], "--config", "discussion", *command[1:]]
    for command in _COMMANDS] + [["verify", "--quick"]], ids=" ".join)
@pytest.mark.parametrize("out", ["file", "file/out"])
def test_out_that_is_or_lies_under_a_file(tmp_path, capsys, monkeypatch,
                                          argv, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code = main([*argv, "--out", out])
    assert code == 2
    assert f"--out '{out}'" in _one_line_error(capsys)


def _run_quietly(argv):
    """(exit code, stderr) of one in-process CLI run; warnings dropped."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([*argv, "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _check_outcome(argv, code, err):
    """A run succeeds, or exits 2 with one line that says why."""
    if err:
        assert code == 2 and err.startswith("error: ") \
            and err.count("\n") == 1, (argv, code, err)
    else:
        # feasibility exits 1 on a warn verdict and 3 on a fail verdict
        assert code == 0 or (argv[0] == "feasibility" and code in (1, 3)), \
            (argv, code)


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(
           st.tuples(st.sampled_from(_TARGETS),
                     st.one_of(_WILD, st.just(_DELETE))),
           min_size=1, max_size=3),
       command=st.sampled_from(_COMMANDS))
def test_mutated_scenario_never_raises(mutations, command):
    doc = copy.deepcopy(_DOC)
    for (section, key), value in mutations:
        value = copy.deepcopy(value)    # sampled lists and dicts are shared
        if key is None:                         # the whole section
            if value == _DELETE:
                doc.pop(section, None)
            else:
                doc[section] = value
        elif isinstance(doc.get(section), dict):
            if value == _DELETE:
                doc[section].pop(key, None)
            else:
                doc[section][key] = value
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        json.dump(doc, fh)
    try:
        argv = [command[0], "--config", fh.name, *command[1:]]
        _check_outcome(argv, *_run_quietly(argv))
    finally:
        os.unlink(fh.name)


def _flag_value(numbers):
    garbage = st.sampled_from(["nan", "inf", "-inf", "foo", "True", "",
                               "1e999", str(10 ** 400), "-" + str(10 ** 400)])
    return st.one_of(numbers.map(str), garbage)


_FLAGS = {
    "protocol": {
        "--alpha": _flag_value(st.complex_numbers()),
        "--beta": _flag_value(st.floats()),
        "--thermal": _flag_value(st.floats()),
        "--samples": _flag_value(st.integers(-3, 5)),
        "--seed": _flag_value(st.integers()),
    },
    "transient": {"--points": _flag_value(st.integers(-3, 5))},
    "sweep": {
        "--min": _flag_value(st.floats()),
        "--max": _flag_value(st.floats()),
        "--points": _flag_value(st.integers(-3, 5)),
    },
}


@st.composite
def _cli_flags(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--config", "discussion"]
    for flag, values in _FLAGS[command].items():
        # sweep needs --min and --max
        if command == "sweep" and flag in ("--min", "--max") \
                or draw(st.booleans()):
            value = draw(values)
            # joined by '=' or as the next word, which may start with '-'
            argv += ([f"{flag}={value}"] if draw(st.booleans())
                     else [flag, value])
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_cli_flags())
def test_numeric_flags_never_raise(argv):
    _check_outcome(argv, *_run_quietly(argv))

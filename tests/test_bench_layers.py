import json
import subprocess
import sys
from pathlib import Path

import pytest

from catsim import verify

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("verify.run_all", "fock_oracle.evolve_block_dim80",
          "fock_oracle.displace_dim80",
          "fock_oracle.eigenbasis_uncached_dim80",
          "classical.ode_oracle_segment", "params.scenario_from_dict",
          "feasibility.constraint_check", "protocol.set_up_uncached",
          "protocol.closed_form_uncached", "protocol.kernel_coherent", "protocol.kernel_coherent_log",
          "protocol.run_protocol_coherent",
          "protocol.run_protocol_thermal_2000",
          "protocol.run_protocol_thermal_2000_plain", "import.catsim_cli")


def test_bench_layers_writes_every_key(tmp_path):
    """A run on a tiny budget writes every timing with the host's speed
    next to it, the eigh counts of a cold and a warm verify run, the source
    line count and the host, with its speed gauged before and after the
    timings."""
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"),
                    "--budget", "0.3", "--out", str(out)],
                   check=True, timeout=120)
    result = json.loads(out.read_text())
    assert set(result) == {"timings_us", "speed_by_row", "eigh_calls",
                           "src_lines", "host"}
    rows = {f"verify.{check.__name__.removeprefix('check_')}"
            for check in verify._FULL}
    assert len(rows) == 12
    assert set(result["timings_us"]) == rows | set(LAYERS)
    assert all(t > 0 for t in result["timings_us"].values())
    assert list(result["speed_by_row"]) == list(result["timings_us"])
    assert all(s > 0 for s in result["speed_by_row"].values())
    assert result["eigh_calls"] == {"cold": 6, "warm": 0}
    assert result["src_lines"] == sum(
        len(path.read_text().splitlines())
        for path in (ROOT / "src" / "catsim").glob("*.py"))
    assert set(result["host"]) == {"cpus", "python", "numpy", "blas_threads",
                                   "budget_s", "speed"}
    speed = result["host"]["speed"]
    assert set(speed) == {"before", "after"}
    assert all(s > 0 for s in speed.values())


@pytest.mark.parametrize("budget", ["inf", "nan"])
def test_bench_layers_refuses_a_non_finite_budget(tmp_path, budget):
    """A non-finite budget is refused with exit code 2 before any timing:
    an infinite one would never end."""
    out = tmp_path / "bench.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_layers.py"),
         "--budget", budget, "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "--budget must be positive and finite" in run.stderr
    assert not out.exists()

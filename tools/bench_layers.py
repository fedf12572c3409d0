"""Per-layer timings of catsim, written as one JSON file.

    python3 tools/bench_layers.py --out BENCH.json [--budget SECONDS]

Run it from the repository root.  It imports catsim from ``src`` with BLAS
pinned to one thread and writes:

  timings_us  the median time of one call, warm, in microseconds: a whole
              ``verify.run_all()``, each of its rows, one block evolution
              at dim 80 (4 states at 3 times), one displacement, an
              uncached eigenbasis of the dim-80 quench bands (its
              ``eigh``), one ``classical.ode_oracle`` call over the period
              that ``check_classical_period`` integrates,
              ``scenario_from_dict`` on the preset's document,
              ``constraint_check``, an uncached ``protocol._set_up``, an
              uncached ``protocol._closed_form`` (the kernel's alpha-free
              half), the coherent kernel on a warm closed form without and
              with its step log, a coherent ``run_protocol``, a 2000-draw
              thermal one under the exact closing (the alpha = 0 run read
              once for every draw) and under the plain closing (the draws
              through the kernel), and ``import catsim.cli`` in a fresh
              interpreter;
  speed_by_row
              for each timing, the host's speed as a share of
              ``bench/refkernel.py``'s nominal: the mean of the gauge
              samples taken just before and just after that row;
  eigh_calls  the eigh calls of a ``verify.run_all()`` from cold caches,
              and of the next, warm one;
  src_lines   the line count of ``src/catsim/*.py``;
  host        CPU count, Python and numpy versions, the BLAS thread
              settings, the budget, and the host's speed gauged before the
              first row and after the last.

``--budget``, positive and finite, is the total time the timings and
their gauge samples may take, split evenly between the rows; a fifth of
each row's share goes to the gauge sample after it (one more precedes the
first row), and each timing takes at least 5 repeats of at least one call
and each sample at least one kernel.  The numbers are in-process and
unscaled, so the host's speed swings move them between rows and runs;
each row's speed says how far.  Compare commits, and claim a gain, with
``bench/run.py`` pairs.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
REPEATS = 5

os.environ.update(BLAS_ENV)     # before numpy is imported, here or in a child
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

from catsim import (  # noqa: E402
    classical, feasibility, fock_oracle, protocol, verify)
from catsim.params import load_scenario, scenario_from_dict  # noqa: E402
from catsim.protocol import Coherent, ThermalSample, run_protocol  # noqa: E402


def load_gauge():
    """A ``Gauge`` of bench/refkernel.py, loaded from its file without
    writing its bytecode, so nothing under bench/ changes."""
    spec = importlib.util.spec_from_file_location(
        "refkernel", ROOT / "bench" / "refkernel.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.Gauge()


def median_us(call, share: float) -> float:
    """The median over REPEATS of one call's time, each repeat as many
    calls as fit in ``share`` seconds."""
    once = min(timeit.repeat(call, number=1, repeat=2))
    number = max(1, int(share / REPEATS / max(once, 1e-9)))
    times = timeit.repeat(call, number=number, repeat=REPEATS)
    return statistics.median(times) / number * 1e6


def fresh_import_us(share: float) -> float:
    """The median wall time of a fresh interpreter that imports catsim.cli,
    over as many runs as fit in ``share`` seconds (at least one)."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    times = []
    deadline = time.perf_counter() + share
    while not times or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import catsim.cli"], env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def eigh_calls() -> dict:
    """eigh calls of a cold and then a warm verify.run_all()."""
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)
    fock_oracle._eigenbasis.cache_clear()
    np.linalg.eigh = counting
    try:
        verify.run_all()
        cold = len(calls)
        verify.run_all()
    finally:
        np.linalg.eigh = eigh
    return {"cold": cold, "warm": len(calls) - cold}


def layers() -> dict:
    """name: the call it times, once its caches are warm."""
    scenario = load_scenario("discussion")
    doc = json.loads((SRC_DIR / "catsim" / "presets" / "discussion.json")
                     .read_text(encoding="utf-8"))
    set_up = protocol._set_up(scenario)
    kernel = (1.0 + 1.0j, set_up.beta, True, set_up.couplings)
    dim, alphas, times = 80, (0j, 1.5, 1.5j, 1.0 - 1.0j), (0.1, 0.4, 1.0)
    bands = fock_oracle.quadratic_hamiltonian(*verify._QUENCH, dim)
    block = fock_oracle.coherent_to_fock(alphas, dim)
    state = fock_oracle.coherent_to_fock(0.2 + 0.1j, dim)
    thermal = ThermalSample(10.0, 1, 2000)
    # check_classical_period's trap, state and step, over its full period
    m, omega, g_E = 1e-15, 2.0, 9.81
    period = 2.0 * math.pi / omega
    segment = (classical.PhaseSpacePoint(1e-6, 2e-21),
               classical.TimeDependentTrapSpec.constant(m, omega, g_E),
               period, period / 20000)
    calls = {"verify.run_all": verify.run_all}
    calls.update((f"verify.{check.__name__.removeprefix('check_')}", check)
                 for check in verify._FULL)
    calls.update({
        "fock_oracle.evolve_block_dim80":
            lambda: fock_oracle.evolve(bands, block, times),
        "fock_oracle.displace_dim80":
            lambda: fock_oracle.displace(state, 0.8 - 0.4j),
        "fock_oracle.eigenbasis_uncached_dim80":
            lambda: fock_oracle._eigenbasis.__wrapped__(bands),
        "classical.ode_oracle_segment":
            lambda: classical.ode_oracle(*segment),
        "params.scenario_from_dict": lambda: scenario_from_dict(doc),
        "feasibility.constraint_check":
            lambda: feasibility.constraint_check(scenario),
        "protocol.set_up_uncached":
            lambda: protocol._set_up.__wrapped__(scenario),
        "protocol.closed_form_uncached":
            lambda: protocol._closed_form.__wrapped__(*kernel[1:]),
        "protocol.kernel_coherent": lambda: protocol._kernel(*kernel),
        "protocol.kernel_coherent_log":
            lambda: protocol._kernel(*kernel, []),
        "protocol.run_protocol_coherent":
            lambda: run_protocol(scenario, Coherent(1.0 + 1.0j)),
        "protocol.run_protocol_thermal_2000":
            lambda: run_protocol(scenario, thermal),
        "protocol.run_protocol_thermal_2000_plain":
            lambda: run_protocol(scenario, thermal, exact_phase=False),
    })
    for call in calls.values():
        call()
    return calls


def measure(budget: float) -> dict:
    eigh = eigh_calls()
    gauge = load_gauge()
    timings, speeds = {}, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the preset's Lamb-Dicke warning
        timers = {name: functools.partial(median_us, call)
                  for name, call in layers().items()}
        timers["import.catsim_cli"] = fresh_import_us
        share = budget / len(timers)
        sample = share / 5
        speeds.append(gauge.sample(sample))
        for name, timer in timers.items():
            timings[name] = timer(share - sample)
            speeds.append(gauge.sample(sample))
    return {
        "timings_us": {name: round(t, 2) for name, t in timings.items()},
        "speed_by_row": {name: round((a + b) / 2, 3) for name, a, b
                         in zip(timings, speeds, speeds[1:])},
        "eigh_calls": eigh,
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((SRC_DIR / "catsim").glob("*.py"))),
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
                 "budget_s": budget,
                 "speed": {"before": round(speeds[0], 3),
                           "after": round(speeds[-1], 3)}},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--budget", type=float, default=20.0,
                        help="seconds for all the timings together")
    args = parser.parse_args(argv)
    if not 0.0 < args.budget < math.inf:   # a NaN too; inf never ends
        parser.error("--budget must be positive and finite")
    result = measure(args.budget)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""catsim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each run starts fresh interpreters with
the repository's ``src`` on PYTHONPATH and BLAS pinned to one thread (the
single-threaded baseline), so nothing needs installing.  Workloads:

  thermal_mc     run_protocol over 2000 thermal samples (nbar=10) per
                 operation: the per-sample protocol/gaussian loop.
  coherent_scan  one coherent run_protocol per operation, with its step
                 log; one operation in four has beta=0 (null fringe).
  oracle_suite   verify.run_all(quick=False) per operation: fock_oracle
                 matrix exponentials and the classical RK4 oracle.
  cli_session    six catsim CLI commands per operation, each in a fresh
                 interpreter: import cost, transient, sweep, verify --quick.

Each workload is a closed loop with one caller.  With ``--trace 0`` the
last line of output carries the end-to-end metrics:

  setup_s      median of five fresh set-ups (interpreter start, imports,
               scenario load, input generation), two of them before and
               three after the measured run, at nominal host speed.
  op_norm_ms   median operation time at nominal host speed; for
               cli_session one operation is the whole six-command session.
  peak_rss_mb  peak resident memory of the worker, or of the CLI
               processes for cli_session.

The host is shared, and its speed swings by up to 1.7x over seconds and
over many minutes alike, so raw times of the same code differ that much
from one run to the next.  Both times are therefore taken next to a fixed
reference kernel (bench/refkernel.py) and scaled by the speed it shows at
that moment: the worker samples the kernel after every 0.1 s of operation
time, and this script samples it before and after each set-up.  The raw
times, their highest percentile with ten samples beyond it, and the mean
host speed are printed in the report lines.

With ``--trace 1`` it carries the per-layer metrics of a separate traced
run, and the spans of its first traced operation are written to
``.bench_out/traces/``.  The lines before the last one name the workload's
own figures with their units, the error rate and the environment.

The exit code is 0 when a result line was printed, 1 when a worker
failed, and 2 when the repository or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("thermal_mc", "coherent_scan", "oracle_suite", "cli_session")
SETUPS_BEFORE, SETUPS_AFTER = 2, 3  # fresh set-ups around the measured run
SETUP_GAUGE_S = 0.15                # reference-kernel time on either side
WORKER_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(argv: list[str], env: dict,
                 out_dir: Path) -> tuple[float, str]:
    """Run one worker; returns (seconds until it printed READY, the rest of
    its standard output)."""
    with tempfile.TemporaryFile("w+", dir=out_dir) as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
            stdout=subprocess.PIPE, stderr=stderr, env=env, text=True,
            cwd=ROOT)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.terminate()    # the worker then stops its own children
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        if ready != "READY\n" or proc.returncode != 0:
            stderr.seek(0)
            raise WorkerError(f"worker {' '.join(argv)} exited with "
                              f"{proc.returncode}:\n{stderr.read()[-3000:]}")
    return setup_s, rest


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (SRC_DIR / "catsim").glob("*.py"))


def main() -> int:
    # on SIGTERM, unwind so that child processes are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC_DIR / "catsim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no catsim sources under {SRC_DIR}\n")
        return 2

    os.environ.update(BLAS_ENV)     # the kernel below runs here too
    from refkernel import Gauge
    gauge = Gauge()

    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=OUT_ROOT))
    spans_file = OUT_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out_dir), "--spans-file", str(spans_file)]

    def setup_probe() -> tuple[float, float]:
        """(raw, nominal-speed) seconds of one fresh set-up."""
        before = gauge.sample(SETUP_GAUGE_S)
        raw = start_worker(worker_argv + ["--setup-only"], env, out_dir)[0]
        return raw, raw * 0.5 * (before + gauge.sample(SETUP_GAUGE_S))

    try:
        Gauge().sample(SETUP_GAUGE_S)   # first calls of the kernel
        probes = 0 if args.trace else SETUPS_BEFORE
        setups = [setup_probe() for _ in range(probes)]
        run_setup_s, output = start_worker(worker_argv, env, out_dir)
        probes = 0 if args.trace else SETUPS_AFTER
        setups += [setup_probe() for _ in range(probes)]
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = json.loads(output.strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    report = dict(result["report"])
    if setups:
        report["setup_raw_s"] = (statistics.median(s for s, _ in setups), "s")
        report["setup_s"] = (statistics.median(s for _, s in setups), "s")
    else:   # a traced run measures no set-up probes
        report["setup_raw_s"] = (run_setup_s, "s")
    report["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    report["error_rate"] = (failed / attempted, "fraction")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}: {attempted} operations, {failed} failed")
    for name, (value, unit) in report.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for err in result["errors"]:
        print(f"  error: {err}")
    env_record = {**result["env"], "nproc": os.cpu_count(),
                  "cpus_usable": len(os.sched_getaffinity(0)),
                  "src_lines": src_lines()}
    print(json.dumps({"env": env_record}))

    if args.trace:
        metrics = result["layers"]
        print(json.dumps({"parents": result["parents"]}))
    else:
        metrics = {
            "setup_s": report["setup_s"],
            "op_norm_ms": (1e3 * result["op_norm_s"], "ms"),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

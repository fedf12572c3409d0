"""One run of one benchmark workload, in a fresh interpreter.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and
BLAS pinned to one thread:

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                           --out DIR [--spans-file PATH] [--setup-only]

It sets the workload up (imports, scenario load, inputs drawn from the
seed), prints ``READY``, then runs a closed loop with one caller for S
seconds and prints one JSON line.  Every operation passes through the
workload's correctness gate; an operation that raises or fails its gate
counts as failed.  With ``--trace 1`` the first half of the time runs
untraced and the second half replays the same inputs with every layer
wrapped, which gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from refkernel import Gauge
from stats import MIN_BEYOND, beyond, percentile, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SCENARIO = BENCH_DIR / "discussion.json"

NBAR = 10.0
THERMAL_SAMPLES = 2000
PHASE_TOL = 1e-9
POOL = 4096             # distinct inputs drawn per run; operations cycle them
CLI_TIMEOUT_S = 120
BLOCK_S = 0.1           # operation time between two samples of the host speed
GAUGE_SHARE = 0.25      # reference-kernel time per second of operation time
GAUGE_WARMUP_S = 0.2


def phase_reference(scenario) -> tuple[float, float]:
    """phi = m g_E dx t / hbar and P_down = (1 + cos phi)/2, computed from
    the scenario fields, independently of catsim.protocol."""
    const = scenario.constants
    m = scenario.nanoparticle.mass_kg + scenario.atom.mass_kg
    phi = (m * const.g_E * scenario.protocol.superposition_size_m
           * scenario.protocol.free_fall_duration_s / const.hbar)
    return phi, 0.5 * (1.0 + math.cos(phi))


def phase_error(phi: float, p_down: float, phi_ref: float,
                p_ref: float) -> str | None:
    if abs(phi - phi_ref) > PHASE_TOL or abs(p_down - p_ref) > PHASE_TOL:
        return (f"phi={phi!r} p_down={p_down!r}, expected "
                f"phi={phi_ref!r} p_down={p_ref!r} within {PHASE_TOL:g}")
    return None


class ThermalMC:
    """run_protocol over a 2000-sample thermal draw (nbar=10) per operation."""
    item = "mc_samples"
    warmup = 1

    def __init__(self, seed: int, out_dir: Path):
        import catsim
        self.catsim = catsim
        self.scenario = catsim.load_scenario(SCENARIO)
        self.ref = phase_reference(self.scenario)
        rng = random.Random(seed)
        self.seeds = [rng.getrandbits(32) for _ in range(POOL)]

    def op(self, k: int):
        return self.catsim.protocol.run_protocol(
            self.scenario,
            self.catsim.ThermalSample(nbar=NBAR, seed=self.seeds[k % POOL],
                                      count=THERMAL_SAMPLES))

    def check(self, k: int, dist) -> tuple[str | None, int]:
        if len(dist.results) != THERMAL_SAMPLES:
            return (f"{len(dist.results)} samples, expected "
                    f"{THERMAL_SAMPLES}"), 0
        for res in dist.results:
            err = phase_error(res.phi_grav, res.p_down, *self.ref)
            if err:
                return err, 0
        return None, THERMAL_SAMPLES


class CoherentScan:
    """One coherent run_protocol (with its step log) per operation; alpha
    drawn from the nbar=10 distribution, every fourth one with beta=0."""
    item = "runs"
    warmup = 200

    def __init__(self, seed: int, out_dir: Path):
        import catsim
        self.catsim = catsim
        self.scenario = catsim.load_scenario(SCENARIO)
        self.ref = phase_reference(self.scenario)
        rng = random.Random(seed)
        scale = math.sqrt(NBAR / 2.0)
        self.inputs = [
            (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) * scale,
             k % 4 == 3)
            for k in range(POOL)]

    def op(self, k: int):
        alpha, null = self.inputs[k % POOL]
        return self.catsim.protocol.run_protocol(
            self.scenario, self.catsim.Coherent(alpha),
            beta=0.0 if null else None)

    def check(self, k: int, res) -> tuple[str | None, int]:
        null = self.inputs[k % POOL][1]
        err = phase_error(res.phi_grav, res.p_down,
                          *((0.0, 1.0) if null else self.ref))
        if err is None and not res.log:
            err = "coherent run returned no step log"
        return err, 1


class OracleSuite:
    """verify.run_all(quick=False) per operation."""
    item = "checks"
    warmup = 1      # the first scipy expm call pays a one-off cost

    def __init__(self, seed: int, out_dir: Path):
        import catsim.verify
        self.verify = catsim.verify

    def op(self, k: int):
        return self.verify.run_all(quick=False)

    def check(self, k: int, results) -> tuple[str | None, int]:
        failed = [r.name for r in results if not r.passed]
        if failed or not results:
            return f"verify checks failed: {failed or 'none ran'}", 0
        return None, len(results)


class CliSession:
    """One session of six catsim CLI commands, each in a fresh interpreter.

    Every session uses the workload seed, so each session after the first
    must reproduce the first one's output files byte for byte.
    """
    item = "commands"
    warmup = 0

    def __init__(self, seed: int, out_dir: Path):
        import catsim.cli
        self.cli = catsim.cli
        catsim.load_scenario(SCENARIO)
        self.out_dir = out_dir
        # key, argv, expected exit code, {output file: expected data rows}
        self.commands = (
            ("feasibility", ["feasibility", "--config", "discussion"], 1, {}),
            ("protocol", ["protocol", "--config", "discussion"], 0,
             {"summary.csv": 1}),
            ("protocol_thermal",
             ["protocol", "--config", "discussion", "--thermal", "10",
              "--samples", str(THERMAL_SAMPLES), "--seed", str(seed)], 0,
             {"summary.csv": THERMAL_SAMPLES}),
            ("transient", ["transient", "--config", "figure_transient",
                           "--points", "1000"], 0, {"transient.csv": 1001}),
            ("sweep", ["sweep", "--config", "discussion", "--min", "1e-6",
                       "--max", "1e-4", "--points", "25"], 0,
             {"sweep.csv": 25}),
            ("verify_quick", ["verify", "--quick"], 0, {"verify.csv": 8}),
        )
        self.reference_hashes: dict[str, str] | None = None
        self.in_process = False
        self.tracer = None
        self.gauge = None       # samples the host speed after each command
        self.bytes_written = 0

    def _session_dir(self, k: int) -> Path:
        return self.out_dir / f"session-{k}"

    def op(self, k: int):
        """Run the session; returns {key: (exit code, seconds, stderr,
        host-speed scale measured right after the command)}."""
        out = {}
        for key, argv, _, _ in self.commands:
            argv = argv + ["--out", str(self._session_dir(k) / key)]
            t0 = time.perf_counter()
            if self.in_process:
                code, err = self._main(key, argv)
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "catsim.cli", *argv],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, timeout=CLI_TIMEOUT_S)
                code, err = proc.returncode, proc.stderr
            secs = time.perf_counter() - t0
            scale = (self.gauge.sample(GAUGE_SHARE * secs) if self.gauge
                     else 1.0)
            out[key] = (code, secs, err, scale)
        return out

    def _main(self, key: str, argv: list[str]) -> tuple[int, str]:
        span = (self.tracer.span(f"cli.{key}") if self.tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, err.getvalue()

    def check(self, k: int, out) -> tuple[str | None, int]:
        session = self._session_dir(k)
        try:
            hashes = {}
            self.bytes_written = 0
            for key, _, want_code, want_rows in self.commands:
                code, _, err, _ = out[key]
                if code != want_code:
                    return (f"{key}: exit {code}, expected {want_code}: "
                            f"{err.strip()[-300:]}"), 0
                for path in sorted((session / key).iterdir()):
                    data = path.read_bytes()
                    self.bytes_written += len(data)
                    hashes[f"{key}/{path.name}"] = \
                        hashlib.sha256(data).hexdigest()
                    if path.name in want_rows:
                        rows = data.count(b"\n") - 1     # minus the header
                        if rows != want_rows[path.name]:
                            return (f"{key}/{path.name}: {rows} rows, "
                                    f"expected {want_rows[path.name]}"), 0
            if self.reference_hashes is None:
                self.reference_hashes = hashes
            elif hashes != self.reference_hashes:
                changed = sorted(name for name in hashes
                                 if hashes[name]
                                 != self.reference_hashes.get(name))
                return f"outputs differ from the first session: {changed}", 0
            return None, len(self.commands)
        finally:
            shutil.rmtree(session, ignore_errors=True)


WORKLOADS = {
    "thermal_mc": ThermalMC,
    "coherent_scan": CoherentScan,
    "oracle_suite": OracleSuite,
    "cli_session": CliSession,
}


# --- per-layer tracing --------------------------------------------------------

def _samples(args, kwargs, result) -> dict[str, float]:
    from catsim.protocol import RECOMBINE_TOL
    results = getattr(result, "results", (result,))
    return {"samples": len(results),
            "closed": sum(r.residual <= RECOMBINE_TOL for r in results)}


def _dense_bytes(args, kwargs, result) -> dict[str, float]:
    dim = args[0].shape[0]
    return {"dense_bytes": 16 * dim * dim}


def _rk4_steps(args, kwargs, result) -> dict[str, float]:
    t = args[2] if len(args) > 2 else kwargs["t"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    return {"rk4_steps": t / dt}


def install_layers(tracer) -> None:
    """Wrap each layer's public names in the namespaces that call them.

    Only names of modules the workload imported are wrapped; the others do
    no work.  A name that no longer exists reads as a layer doing no work.
    """
    mods = sys.modules
    plan = (
        # (calling namespace, attribute, span name, counter)
        ("catsim.params", "scenario_from_dict", "params.scenario_from_dict",
         None),
        ("catsim.cli", "scenario_from_dict", "params.scenario_from_dict",
         None),
        ("catsim.protocol", "derive", "params.derive", None),
        ("catsim.feasibility", "derive", "params.derive", None),
        ("catsim.feasibility", "constraint_check",
         "feasibility.constraint_check", None),
        ("catsim.cli", "constraint_check", "feasibility.constraint_check",
         None),
        ("catsim.protocol", "run_protocol", "protocol.run_protocol",
         _samples),
        ("catsim.protocol", "pi_half_pulse", "protocol.pi_half_pulse", None),
        ("catsim.protocol", "displacement_beam", "protocol.displacement_beam",
         None),
        ("catsim.protocol", "free_fall_segment", "protocol.free_fall_segment",
         None),
        ("catsim.protocol", "readout", "protocol.readout", None),
        ("catsim.protocol", "evolve_quench", "gaussian.evolve_quench", None),
        ("catsim.protocol", "apply_displacement",
         "gaussian.apply_displacement", None),
        ("catsim.fock_oracle", "evolve_schrodinger",
         "fock_oracle.evolve_schrodinger", None),
        ("catsim.fock_oracle", "apply_gate", "fock_oracle.apply_gate", None),
        ("catsim.fock_oracle", "expm", "fock_oracle.expm", _dense_bytes),
        ("catsim.classical", "ode_oracle", "classical.ode_oracle", _rk4_steps),
        ("catsim.classical", "phase_difference_harmonic",
         "classical.phase_difference_harmonic", None),
        ("catsim.verify", "run_all", "verify.run_all", None),
    )
    for module, attr, name, count in plan:
        if hasattr(mods.get(module), attr):
            tracer.wrap(mods[module], attr, name, count)

    def check_span(fn):
        return "verify." + fn.__name__.removeprefix("check_")
    # run_all iterates these tuples, so their members are the names through
    # which each check is called
    for attr in ("_FULL", "_QUICK"):
        if hasattr(mods.get("catsim.verify"), attr):
            tracer.wrap_each(mods["catsim.verify"], attr, check_span)


VERIFY_CHECKS = (
    "displaced_oscillator_fidelity", "displaced_oscillator_phase",
    "truncation_stability", "boost_phase", "quench_decomposition",
    "commutation_identity", "quench_second_order", "classical_period",
    "freefall_limit", "quench_classical_switch", "mode_quadratic",
    "action_phase_error",
)
CLI_COMMANDS = ("feasibility", "protocol", "protocol_thermal", "transient",
                "sweep", "verify_quick")
TIMED_SPANS = (
    "params.scenario_from_dict", "feasibility.constraint_check",
    "protocol.run_protocol", "protocol.pi_half_pulse",
    "protocol.displacement_beam", "protocol.free_fall_segment",
    "protocol.readout", "gaussian.evolve_quench",
    "gaussian.apply_displacement", "fock_oracle.evolve_schrodinger",
    "fock_oracle.apply_gate", "fock_oracle.expm", "classical.ode_oracle",
    "classical.phase_difference_harmonic",
)


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced operations of each
    operation's value.  A layer that does no work on a workload reads 0."""
    def med(fn) -> float:
        return statistics.median(fn(rec) for rec in records)

    def span(name: str, field: int):
        return lambda rec: rec["spans"].get(name, (0, 0.0, 0.0))[field]

    def counter(name: str):
        return lambda rec: rec["counters"].get(name, 0.0)

    def per_sample_us(rec) -> float:
        samples = rec["counters"].get("samples", 0)
        total = rec["spans"].get("protocol.run_protocol", (0, 0.0, 0.0))[2]
        return 1e6 * total / samples if samples else 0.0

    def closed_fraction(rec) -> float:
        samples = rec["counters"].get("samples", 0)
        return rec["counters"].get("closed", 0) / samples if samples else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = (med(span(name, 0)), "count")
        out[f"{name}.self_s"] = (med(span(name, 1)), "s")
    out["params.derive.calls"] = (med(span("params.derive", 0)), "count")
    out["protocol.us_per_sample"] = (med(per_sample_us), "us")
    out["protocol.warnings_per_op"] = (med(counter("warnings.protocol")),
                                       "count")
    out["protocol.closed_fraction"] = (med(closed_fraction), "fraction")
    out["fock_oracle.dense_bytes"] = (med(counter("dense_bytes")),
                                      "computed_bytes")
    out["classical.rk4_steps"] = (med(counter("rk4_steps")), "count")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (med(span(f"verify.{check}", 2)), "s")
    for key in CLI_COMMANDS:
        out[f"cli.{key}.run_s"] = (med(span(f"cli.{key}", 2)), "s")
    out["cli.bytes_written"] = (med(counter("cli.bytes_written")), "bytes")
    return out


def import_times(repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import times of catsim, scipy and numpy under
    ``import catsim.cli``, read from ``python -X importtime``; a package
    that is not imported reads 0."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import catsim.cli"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CLI_TIMEOUT_S, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{key}": (statistics.median(r.get(pkg, 0.0) for r in runs),
                              "s")
            for key, pkg in (("catsim_cli_s", "catsim"), ("scipy_s", "scipy"),
                             ("numpy_s", "numpy"))}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per top-level package: the sum of the cumulative times of
    its modules that were not imported from inside the same package."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals: dict[str, float] = {}
    ancestors: list[tuple[int, str]] = []
    # -X importtime prints children before their parent; walking the lines
    # backwards visits every parent first
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if all(a.split(".")[0] != package for _, a in ancestors):
            totals[package] = totals.get(package, 0.0) + seconds
        ancestors.append((depth, name))
    return totals


# --- loops --------------------------------------------------------------------

def run_op(workload, k: int):
    """One gated operation: (seconds, output, items, error or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.op(k)
        elapsed = time.perf_counter() - t0
        err, items = workload.check(k, out)
    except Exception as exc:      # a failed operation, counted and reported
        return (time.perf_counter() - t0, None, 0,
                f"op {k}: {type(exc).__name__}: {exc}")
    return elapsed, out, items, err and f"op {k}: {err}"


def traced_op(workload, tracer, k: int):
    """run_op with the layers wrapped and every warning counted."""
    cli = isinstance(workload, CliSession)
    if cli:
        workload.tracer = tracer
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = tracer.count_warning
            result = run_op(workload, k)
    finally:
        tracer.uninstall()
        if cli:
            workload.tracer = None
    spans, counters = tracer.take()
    if cli:
        counters["cli.bytes_written"] = workload.bytes_written
    return result, spans, counters


class Tally:
    """Operations attempted and failed, and the first few errors."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, err: str | None) -> None:
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(err)


def closed_loop(seconds: float, step) -> None:
    """Call step(k) for k = 0, 1, ... until ``seconds`` have passed."""
    k = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        step(k)
        k += 1


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the closed loop.  With ``trace`` the first half of the time is
    untraced and the second half replays the same inputs traced, so the
    two halves give the tracing overhead.

    The untraced loop times the reference kernel after every BLOCK_S of
    operation time, for GAUGE_SHARE of that time, and scales the block's
    operation times by the host speed it found (``norm_times``).
    """
    tally = Tally()
    for k in range(workload.warmup):
        tally.add(run_op(workload, POOL - 1 - k)[3])
    cli = isinstance(workload, CliSession)
    if trace and cli:
        workload.in_process = True
    Gauge().sample(GAUGE_WARMUP_S)  # first calls of the kernel, not counted
    gauge = Gauge()
    if cli:     # gauged after each command, which takes ~0.5 s on its own
        workload.gauge = gauge
    times = array.array("d")    # 8 bytes per operation, so peak RSS
    norm_times = array.array("d")   # hardly grows with the operation count
    items = 0
    pending = 0.0               # operation time since the last gauge sample
    per_command: dict[str, list[float]] = {}

    def normalise_block() -> None:
        nonlocal pending
        scale = gauge.sample(GAUGE_SHARE * pending)
        norm_times.extend(t * scale for t in times[len(norm_times):])
        pending = 0.0

    def untraced(k: int) -> None:
        nonlocal items, pending
        elapsed, out, n, err = run_op(workload, k)
        tally.add(err)
        items += n
        if not cli:
            times.append(elapsed)
            pending += elapsed
            if pending >= BLOCK_S:
                normalise_block()
            return
        if out is None:     # the session raised
            times.append(elapsed)
            norm_times.append(elapsed * gauge.speed())
            return
        # the session's own time, without the gauge samples between commands
        times.append(sum(secs for _, secs, _, _ in out.values()))
        norm_times.append(sum(secs * scale
                              for _, secs, _, scale in out.values()))
        if not err:
            for key, (_, secs, _, _) in out.items():
                per_command.setdefault(key, []).append(secs)

    closed_loop(seconds / 2 if trace else seconds, untraced)
    if cli:
        workload.gauge = None
    if len(norm_times) < len(times):
        normalise_block()
    m = {"tally": tally, "times": times, "norm_times": norm_times,
         "host_speed": gauge.speed(), "items": items,
         "per_command": per_command}
    if not trace:
        return m

    from tracing import Tracer, summarise
    tracer = Tracer()
    install_layers(tracer)
    traced_times: list[float] = []
    records: list[dict] = []

    def traced(k: int) -> None:
        (elapsed, _, _, err), spans, counters = traced_op(workload, tracer, k)
        tally.add(err)
        traced_times.append(elapsed)
        per_name, parents = summarise(spans)
        records.append({"spans": per_name, "parents": parents,
                        "counters": counters})
        if k == 0:
            m["first_spans"] = spans

    closed_loop(seconds / 2, traced)
    m.update(traced_times=traced_times, records=records)
    return m


# --- reporting ----------------------------------------------------------------

def report_metrics(name: str, m: dict) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end figures, named as users know them."""
    times = m["times"]
    p50 = statistics.median(times)
    out = {"op_p50_ms": (1e3 * p50, "ms"),
           f"{WORKLOADS[name].item}_per_s": (m["items"] / sum(times), "1/s")}
    if name == "coherent_scan":
        out["coherent_run_us.p50"] = (1e6 * p50, "us")
        if beyond(len(times), 99.0) >= MIN_BEYOND:
            out["coherent_run_us.p99"] = (
                1e6 * percentile(sorted(times), 99.0), "us")
    elif name == "oracle_suite":
        out["verify_suite_s"] = (p50, "s")
    elif name == "cli_session":
        out["cli_session_s"] = (p50, "s")
        for key, secs in m["per_command"].items():
            out[f"cli.{key}_s"] = (statistics.median(secs), "s")
    tail = tail_percentile(times)
    if tail:
        out[f"op_p{tail[0]:g}_ms"] = (1e3 * tail[1], "ms")
    out["op_norm_p50_ms"] = (1e3 * statistics.median(m["norm_times"]), "ms")
    out["host_speed"] = (m["host_speed"], "nominal")
    out["ops_timed"] = (len(times), "count")
    return out


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions, "blas": blas,
            "blas_threads": {key: os.environ.get(key) for key in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def main(argv: list[str]) -> int:
    # on SIGTERM, unwind so that child processes are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    import catsim
    if not Path(catsim.__file__).resolve().is_relative_to(SRC_DIR):
        sys.stderr.write(f"catsim imported from {catsim.__file__}, "
                         f"not from {SRC_DIR}\n")
        return 2

    m = measure(workload, args.seconds, bool(args.trace))
    # read before the statistics below allocate; the CLI's memory is that
    # of its own processes
    usage = (resource.RUSAGE_CHILDREN if args.workload == "cli_session"
             and not args.trace else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    times = m["times"]
    result = {
        "attempted": m["tally"].attempted, "failed": m["tally"].failed,
        "errors": m["tally"].errors,
        "op_norm_s": statistics.median(m["norm_times"]),
        "host_speed": m["host_speed"],
        "peak_rss_mb": peak_rss_mb,
        "report": report_metrics(args.workload, m),
        "env": environment(),
    }
    if args.trace:
        layers = layer_metrics(m["records"])
        layers.update(import_times())
        overhead = (statistics.median(m["traced_times"])
                    - statistics.median(times))
        layers["trace.overhead_ms"] = (1e3 * overhead, "ms")
        layers["trace.overhead_share"] = (overhead / statistics.median(times),
                                          "fraction")
        result["layers"] = layers
        parents: dict[str, set] = {}
        for rec in m["records"]:
            for span_name, names in rec["parents"].items():
                parents.setdefault(span_name, set()).update(names)
        result["parents"] = {k: sorted(v, key=str) for k, v in parents.items()}
        if args.spans_file:
            args.spans_file.parent.mkdir(parents=True, exist_ok=True)
            keys = ("id", "name", "start", "end", "parent", "op")
            args.spans_file.write_text(json.dumps(
                [dict(zip(keys, s)) for s in m["first_spans"]]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

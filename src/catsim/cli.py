"""Command-line front end.

Subcommands: feasibility | protocol | transient | verify | sweep.
All outputs are plain CSV / JSON-lines; identical configuration and seed
produce byte-identical files.  Numbers are written with 17 significant
digits so they round-trip through the text format without loss.

A command only computes: it returns its exit code, its stdout text and a
writer per output file.  ``main`` writes every file into ``--out`` or, if
one fails, none, and only then prints the stdout text.  Each command
imports the modules it runs in its own body, so that a fresh process
loads no other.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import errno
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

from .params import MAX_MAGNITUDE, MIN_MAGNITUDE, ConfigError, \
    ParameterError, ProtocolError, load_scenario, replace

_FMT = ".17g"
MAX_POINTS = 10**6


def _csv(header: list[str], rows):
    """A writer of one CSV file: floats with ``_FMT``, any other value as it
    is.  ``rows`` may be a generator; it is read while writing."""
    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(v, _FMT) if isinstance(v, float) else v
                     for v in row] for row in rows)
    return write


def _write(out_name: str, files: dict) -> None:
    """Create ``--out`` and write every file into it, or none.  Each file is
    streamed into a temporary name inside ``--out``; only once all of them
    are written are they renamed into place.  A file whose writer is None is
    a stale output of another kind of run, removed after the renames.  A run
    that fails removes its temporary files and touches no other."""
    out = Path(out_name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # --out is, or lies under, an existing file
        raise ConfigError(f"--out {out_name!r} is not a usable directory: "
                          f"{exc.strerror or exc}") from exc
    staged = {}                 # each output path -> its temporary name
    try:
        for name, write in files.items():
            if write is None:
                continue
            path = out / name
            if path.is_dir():   # refused before any file is renamed
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
            staged[path] = out / f".{name}.{os.getpid()}.tmp"
            # text with no newline translation
            with open(staged[path], "w", newline="", encoding="utf-8") as fh:
                write(fh)
        for path, temporary in staged.items():
            os.replace(temporary, path)
        for name, write in files.items():
            path = out / name   # a directory of that name is no output
            if write is None and path.is_file():
                path.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot write output file {str(path)!r}: "
                          f"{exc.strerror or exc}") from exc
    finally:                    # after a failure, the temporary files left
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def _check_count(flag: str, n: int, limit: int = MAX_POINTS) -> int:
    if not 1 <= n <= limit:
        raise ConfigError(
            f"{flag} must be a count between 1 and {limit}, got {n}")
    return n


# --- feasibility --------------------------------------------------------------

def _report_table(report) -> str:
    """The text of a ``feasibility.FeasibilityReport``."""
    lines = []
    lines.append(f"{'quantity':<22}{'value':>16}  unit")
    for name, value, unit in (
        ("omega_a", report.omega_a_radps, "rad/s"),
        ("tau_trap", report.tau_trap_s, "s"),
        ("eta", report.eta, "-"),
        ("omega_gg", report.omega_gg_radps, "rad/s"),
        ("delta_x", report.delta_x_m, "m"),
        ("phi_grav", report.phi_grav_rad, "rad"),
        ("phi3", report.phi3_rad, "rad"),
    ):
        lines.append(f"{name:<22}{value:>16.6g}  {unit}")
    lines.append("")
    lines.append(f"{'constraint':<22}{'lhs':>12}{'rhs':>12}"
                 f"{'margin':>12}  status")
    for v in report.verdicts:
        lines.append(f"{v.name:<22}{v.lhs:>12.4g}{v.rhs:>12.4g}"
                     f"{v.margin:>12.4g}  {v.status}")
    lines.append("")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"overall: {report.status}")
    return "\n".join(lines) + "\n"


def cmd_feasibility(args) -> tuple[int, str, dict]:
    from .feasibility import constraint_check
    report = constraint_check(load_scenario(args.config))
    table = _report_table(report)
    return report.exit_code, table, {
        "feasibility.txt": lambda fh: fh.write(table),
        "feasibility.csv": _csv(
            ["name", "lhs", "rhs", "margin", "status"],
            [(v.name, v.lhs, v.rhs, v.margin, v.status)
             for v in report.verdicts]),
    }


# --- protocol -----------------------------------------------------------------

def _parse_alpha(text: str) -> complex:
    try:
        alpha = complex(text)
    except ValueError:
        alpha = None
    if alpha is None or not cmath.isfinite(alpha):
        raise ConfigError(f"--alpha {text!r} is not a finite complex number")
    return alpha


def cmd_protocol(args) -> tuple[int, str, dict]:
    from . import protocol
    scenario = load_scenario(args.config)
    if args.beta is not None and not math.isfinite(args.beta):
        raise ConfigError(f"--beta {args.beta} is not a finite number")
    # checked with or without --thermal, so that no value passes unread
    _check_count("--samples", args.samples, protocol.MAX_SAMPLES)
    if args.seed < 0:
        raise ConfigError(
            f"--seed must be a non-negative integer, got {args.seed}")
    alpha = _parse_alpha(args.alpha)
    thermal = args.thermal is not None
    initial = (protocol.ThermalSample(args.thermal, args.seed, args.samples)
               if thermal else protocol.Coherent(alpha))
    run = protocol.run_protocol(scenario, initial, exact_phase=args.exact_phase,
                                force=args.force, beta=args.beta)
    files = {}
    if thermal:
        rows = list(zip(*(x.tolist() for x in (
            run.phi_grav_values, run.p_down_values, run.visibility_values,
            run.residual_values))))
        files["steps.jsonl"] = None     # a coherent run's, now stale
    else:
        rows = [(run.phi_grav, run.p_down, run.visibility, run.residual)]
        files["steps.jsonl"] = lambda fh: fh.writelines(
            json.dumps(record, sort_keys=True) + "\n" for record in run.log)
    files["summary.csv"] = _csv(
        ["phi_grav_rad", "p_down", "visibility", "residual"], rows)
    phi_grav, p_down, visibility, residual = rows[0]
    return 0, (f"runs={len(rows)} phi_grav={phi_grav:.6g} rad "
               f"p_down={p_down:.6g} visibility={visibility:.6g} "
               f"residual={residual:.3g}\n"), files


# --- transient ----------------------------------------------------------------

def cmd_transient(args) -> tuple[int, str, dict]:
    from . import classical
    scenario = load_scenario(args.config)
    n = _check_count("--points", args.points)
    const = scenario.constants
    m = scenario.total_mass_kg
    omega = scenario.trap.paul_frequency_soft_radps
    dx = scenario.protocol.superposition_size_m
    if not dx:                  # None, or 0: no free-fall phase to divide by
        raise ConfigError("transient needs a positive "
                          "protocol.superposition_size_m in the config")
    x20 = const.g_E / omega**2
    t_f = 2.0 * math.pi / omega

    def rows():                 # streamed: --points may be 10^6
        for i in range(n + 1):
            t = t_f * i / n
            if t == 0.0:
                yield 0.0, 0.0, 0.0, 0.0
                continue
            harm = classical.phase_difference_harmonic(
                x20, 0.0, dx, m, omega, t, const.hbar)
            grav = classical.phase_difference_freefall(
                dx, m, const.g_E, t, const.hbar)
            yield t, harm, grav, 1.0 - harm / grav

    return 0, f"wrote {n + 1} rows over [0, {t_f:.6g}] s\n", {
        "transient.csv": _csv(
            ["t_s", "dphi_harmonic_rad", "dphi_grav_rad", "rel_error"],
            rows())}


# --- verify -------------------------------------------------------------------

def cmd_verify(args) -> tuple[int, str, dict]:
    from . import verify    # the oracles, which no other command needs
    results = verify.run_all(quick=args.quick)
    failures = sum(not r.passed for r in results)
    text = "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured "
                   f"{r.measured:.3g} vs tolerance {r.tolerance:.3g} "
                   f"(headroom {r.headroom:.3g})\n" for r in results)
    text += f"{len(results) - failures}/{len(results)} checks passed\n"
    return 0 if failures == 0 else 1, text, {
        "verify.csv": _csv(
            ["name", "passed", "measured", "tolerance", "detail", "headroom"],
            [(r.name, str(r.passed).lower(), r.measured, r.tolerance,
              r.detail, r.headroom) for r in results])}


# --- sweep --------------------------------------------------------------------

def cmd_sweep(args) -> tuple[int, str, dict]:
    from .feasibility import constraint_check
    scenario = load_scenario(args.config)
    if not MIN_MAGNITUDE <= args.min < args.max <= MAX_MAGNITUDE:
        raise ConfigError(f"sweep needs {MIN_MAGNITUDE:g} <= --min < --max "
                          f"<= {MAX_MAGNITUDE:g}")
    n = _check_count("--points", args.points)
    # the swept scenarios recompute delta_x from the beam so the 1/omega
    # scaling is visible
    scenario = replace(scenario, protocol=replace(
        scenario.protocol, superposition_size_m=None))
    omegas = [args.min * (args.max / args.min) ** (i / (n - 1))
              for i in range(n)] if n > 1 else [args.min]
    reports = [constraint_check(replace(scenario, trap=replace(
        scenario.trap, paul_frequency_soft_radps=omega))) for omega in omegas]
    return 0, f"wrote {len(reports)} sweep rows\n", {
        "sweep.csv": _csv(
            ["index", "omega_soft_radps", "delta_x_m", "phi_grav_rad",
             "status"],
            [(index, omega, report.delta_x_m, report.phi_grav_rad,
              report.status)
             for index, (omega, report) in enumerate(zip(omegas, reports))])}


# --- parser -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a malformed flag as one error line, like any other input, and
    reads any word that starts like a number as a value: argparse alone
    takes only -N and -N.N, so ``--alpha -1+1j`` or ``--beta -1e-4`` would
    find no value.  No catsim flag starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catsim",
        description="Atom-nanoparticle cat-state protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario JSON path or preset name "
                            "(discussion, figure_transient)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("feasibility", help="parameter budget report")
    common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("protocol", help="run the interferometric protocol")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="run even if feasibility constraints fail")
    p.add_argument("--alpha", default="0",
                   help="initial coherent amplitude (python complex literal)")
    p.add_argument("--beta", type=float, default=None,
                   help="displacement-operator amplitude override")
    p.add_argument("--thermal", type=float, default=None, metavar="NBAR",
                   help="sample initial states from a thermal P-function")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-phase", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="reverse the evolved branch separation exactly")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("transient", help="phase-difference plot data")
    common(p)
    p.add_argument("--points", type=int, default=1000)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("verify", help="oracle-equivalence suite")
    p.add_argument("--out", default=".")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="soft-trap frequency sweep")
    common(p)
    p.add_argument("--min", type=float, required=True,
                   help="lowest soft-trap frequency, rad/s")
    p.add_argument("--max", type=float, required=True,
                   help="highest soft-trap frequency, rad/s")
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # each warning is one line, like an error; the filters are untouched
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args = build_parser().parse_args(argv)
            code, text, files = args.func(args)
            _write(args.out, files)
        sys.stdout.write(text)
        return code
    except (ConfigError, ParameterError, ProtocolError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Oracle-equivalence suite: closed forms vs brute-force propagation.

Every check pits a closed-form result from ``classical`` or ``gaussian``
against an independent oracle (gates and propagation of the one quench
Hamiltonian in a truncated Fock space, or fixed-step RK4) and reports the
measured deviation next to its tolerance.  ``gaussian.quench_linear_map``
is the quench the protocol kernel runs, and every quantum row but
``commutation_identity`` checks it, through ``evolve_quench``, the
displaced oscillator or the decomposition read off it, so seven rows test
the code behind ``phi_grav``.  Checks always call through the module
namespaces so a deliberately injected fault in a formula is caught here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import classical, fock_oracle, gaussian


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    @property
    def headroom(self) -> float:
        """measured / tolerance: how much of the tolerance is used up."""
        return self.measured / self.tolerance


def _result(name: str, measured: float, tolerance: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name, bool(measured <= tolerance), float(measured),
                       tolerance, detail)


# --- Quantum closed forms vs Fock oracle --------------------------------------

# (omega1, omega2, g1) of the quench the quench rows check: the closed form
# and the oracle's Hamiltonian both take g1, the coupling in the w1 basis
_QUENCH = (1.0, 0.5, math.sqrt(0.5) * 0.2)
_MODE = (1.0, 0.1)          # (omega, g) of the displaced oscillator


def _vs_oracle(model: str, times: tuple[float, ...],
               alphas: tuple[complex, ...], dim: int,
               references: bool = False):
    """(amplitudes, phases, states, references) of the displaced oscillator
    ("mode") or of the quench the kernel runs ("quench"): its closed form,
    |alpha> propagated under the quench Hamiltonian, (w, w, g) for the
    oscillator's (w, g), and with ``references`` the amplitudes' Fock block,
    from one coherent_to_fock call and one propagation.  Entry, and column,
    i len(times) + j of each is alphas[i] at times[j]."""
    evolution, couplings = {
        "mode": (gaussian.evolve_displaced_oscillator, _MODE),
        "quench": (gaussian.evolve_quench, _QUENCH)}[model]
    amplitudes, phases = zip(*[evolution(alpha, *couplings, t)
                               for alpha in alphas for t in times])
    vectors = fock_oracle.coherent_to_fock(
        alphas + amplitudes if references else alphas, dim)
    states = fock_oracle.evolve(fock_oracle.quadratic_hamiltonian(
        couplings[0], *couplings[-2:], dim), vectors[:, :len(alphas)],
        times).reshape(dim, -1)
    return amplitudes, phases, states, vectors[:, len(alphas):]


def check_displaced_oscillator_fidelity(dim: int = 60) -> CheckResult:
    """Exact coherent evolution vs the propagated Hamiltonian at w2 = w1."""
    *_, numeric, references = _vs_oracle(
        "mode", (0.05, 0.1, 0.2, 0.3, 0.4, 0.5), (1.0 + 0.0j,), dim, True)
    worst = max(0.0, (1.0 - fock_oracle.fidelity(references, numeric)).max())
    return _result("displaced_oscillator_fidelity", worst, 1e-8,
                   f"dim={dim}, infidelity over t<=0.5")


def check_displaced_oscillator_phase(dim: int = 60) -> CheckResult:
    """Global phase prefactor of the exact evolution, less the zero point
    w t/2 that the oracle's Hamiltonian keeps, vs the oracle."""
    times = (0.1, 0.3, 0.5)
    _, phases, numeric, references = _vs_oracle(
        "mode", times, (1.0 + 0.0j,), dim, True)
    worst = max(abs(_wrap(gap + 0.5 * _MODE[0] * t)) for gap, t in zip(
        fock_oracle.overlap_phase(references, numeric) - phases, times))
    return _result("displaced_oscillator_phase", worst, 1e-6,
                   f"dim={dim}, phase error in rad")


def check_truncation_stability() -> CheckResult:
    """Doubling the basis moves the oracle fidelity by < 1e-9."""
    fids = [fock_oracle.fidelity(
        *_vs_oracle("mode", (0.5,), (1.0 + 0.0j,), dim, True)[2:])[0]
        for dim in (60, 120)]
    return _result("truncation_stability", abs(fids[0] - fids[1]), 1e-9,
                   "fidelity shift under N -> 2N")


def check_boost_phase() -> CheckResult:
    """The quench's phase vs the propagated quench Hamiltonian.

    Phases are taken relative to the alpha = 0 evolution, so the
    alpha-independent global phase (zero point, drift, squeeze) cancels.
    """
    times = (0.1, 0.4, 1.0)
    _, phases, numeric, references = _vs_oracle(
        "quench", times, (0.0j, 1.5 + 0.0j, 0.0 + 1.5j, 1.0 - 1.0j), 60, True)
    # the oracle's phase less the closed form's, a row for each alpha and a
    # column for each t, so the first row is alpha = 0's
    gaps = (fock_oracle.overlap_phase(references, numeric)
            - phases).reshape(-1, len(times))
    worst = max(abs(_wrap(gap)) for gap in (gaps - gaps[0]).flat)
    return _result("boost_phase", worst, 1e-10,
                   "phase relative to alpha = 0 vs the quench's oracle, t<=1")


def check_quench_decomposition() -> CheckResult:
    """S(z) D(eps) R(phi) |alpha> vs the propagated quench Hamiltonian."""
    # from t = 0.4 the squeeze is large enough that a transposed gate, and a
    # map with t for sin(s)/w2 or without c2, misses the bound by orders of
    # magnitude; |1 - F| shows an infidelity that rounds negative
    dim, alpha, times = 80, 0.5 + 0.3j, (0.4, 1.0)
    gates = [gaussian.quench_params(*_QUENCH, t) for t in times]
    # R(phi) |alpha> = |alpha e^{i phi}>, coefficient by coefficient
    start, *turned = fock_oracle.coherent_to_fock(
        [alpha] + [alpha * np.exp(1j * qp.phi) for qp in gates], dim).T
    direct = fock_oracle.evolve(
        fock_oracle.quadratic_hamiltonian(*_QUENCH, dim), start, times)
    worst = 0.0
    for qp, psi, numeric in zip(gates, turned, direct.T):
        psi = fock_oracle.squeeze(fock_oracle.displace(psi, qp.epsilon), qp.z)
        worst = max(worst, abs(1.0 - fock_oracle.fidelity(psi, numeric)))
    return _result("quench_decomposition", worst, 1e-6,
                   "infidelity, decomposition vs direct propagation")


def check_commutation_identity() -> CheckResult:
    """S(z) D(xi) = D(gamma) S(z) as a vector-norm identity."""
    dim = 80
    z = 0.3 * np.exp(0.7j)
    xi = 0.8 - 0.4j
    gamma = gaussian.commute_squeeze_displacement(z, xi)
    psi = fock_oracle.coherent_to_fock(0.2 + 0.1j, dim)
    lhs, squeezed = fock_oracle.squeeze(
        np.stack([fock_oracle.displace(psi, xi), psi], axis=1), z).T
    rhs = fock_oracle.displace(squeezed, gamma)
    diff = float(np.linalg.norm(lhs - rhs))
    return _result("commutation_identity", diff, 1e-7, "vector norm")


def check_quench_second_order() -> CheckResult:
    """The quench's amplitude vs the mean <a> of the propagated state."""
    amplitudes, _, numeric, _ = _vs_oracle(
        "quench", (0.1, 0.4, 1.0), (0.0j, 0.5 + 0.3j, 1.0 - 0.2j), 60)
    # <a> = sum_n psi_n* sqrt(n + 1) psi_{n+1}, read off a's one band
    band = np.sqrt(np.arange(1.0, len(numeric)))[:, None]
    means = fock_oracle.overlap(numeric[:-1], band * numeric[1:])
    worst = float(abs(np.array(amplitudes) - means).max())
    return _result("quench_second_order", worst, 1e-10,
                   "amplitude vs the quench's oracle mean <a>, t<=1")


# --- Classical closed forms vs RK4 --------------------------------------------

def check_classical_period() -> CheckResult:
    """Closed-form trap trajectory vs RK4 over one full period."""
    m, omega, g_E = 1e-15, 2.0, 9.81
    s0 = classical.PhaseSpacePoint(1e-6, 2e-21)
    period = 2.0 * math.pi / omega
    spec = classical.TimeDependentTrapSpec.constant(m, omega, g_E)
    dt = period / 20000
    worst = 0.0
    for t in (period / 4, period / 2, period):
        num = classical.ode_oracle(s0, spec, t, dt)
        ref = classical.evolve_harmonic_gravity(s0, m, omega, g_E, t)
        scale_x = abs(s0.x) + g_E / omega**2
        scale_p = m * omega * scale_x
        worst = max(worst, abs(num.x - ref.x) / scale_x,
                    abs(num.p - ref.p) / scale_p)
    return _result("classical_period", worst, 1e-9, "relative error, RK4")


def check_freefall_limit() -> CheckResult:
    """omega = 0: RK4 recovers the free-fall kinematics exactly."""
    m, g_E = 1e-15, 9.81
    s0 = classical.PhaseSpacePoint(1e-6, 2e-21)
    spec = classical.TimeDependentTrapSpec.constant(m, 0.0, g_E)
    t = 0.37
    num = classical.ode_oracle(s0, spec, t, dt=1e-3)
    ref = classical.evolve_free_fall(s0, m, g_E, t)
    # RK4 is exact for polynomial dynamics up to machine rounding
    err = max(abs(num.x - ref.x) / max(abs(ref.x), 1e-300),
              abs(num.p - ref.p) / max(abs(ref.p), 1e-300))
    return _result("freefall_limit", err, 1e-12, "relative error at omega=0")


def check_quench_classical_switch() -> CheckResult:
    """Piecewise RK4 through a sudden quench vs composed closed forms."""
    m, omega1, omega2, g_E = 1e-15, 2.0, 0.5, 9.81
    s0 = classical.PhaseSpacePoint(1e-6, 0.0)
    t_switch, t_end = 0.3, 0.9
    spec = classical.TimeDependentTrapSpec.sudden_quench(
        m, omega1, omega2, g_E, switch_time=t_switch)
    num = classical.ode_oracle(s0, spec, t_end, dt=2e-5)
    mid = classical.evolve_harmonic_gravity(s0, m, omega1, 0.0, t_switch)
    ref = classical.evolve_harmonic_gravity(
        mid, m, omega2, g_E, t_end - t_switch)
    scale_x = abs(s0.x) + g_E / omega2**2
    err = max(abs(num.x - ref.x) / scale_x,
              abs(num.p - ref.p) / (m * omega2 * scale_x))
    return _result("quench_classical_switch", err, 1e-9,
                   "relative error through the switch")


def check_mode_quadratic() -> CheckResult:
    """The quench's amplitude at omega2 != omega1 vs the classical
    trajectory of its Hamiltonian: with [X, P] = 2i, <a> = (X + iP)/2 moves
    as a mass 1/w1 in a trap w2 under gravity g_E = 2 g1 w1."""
    (omega1, omega2, g1), a0 = _QUENCH, 0.7 - 0.2j
    start = classical.PhaseSpacePoint(2.0 * a0.real, 2.0 * a0.imag)
    worst = 0.0
    for t in (0.01, 0.4, 1.0):
        end = classical.evolve_harmonic_gravity(
            start, 1.0 / omega1, omega2, 2.0 * g1 * omega1, t)
        amplitude, _ = gaussian.evolve_quench(a0, *_QUENCH, t)
        worst = max(worst, abs(amplitude - complex(end.x, end.p) / 2.0))
    return _result("mode_quadratic", worst, 1e-10,
                   "amplitude vs the classical trajectory of the quench")


def check_action_phase_error() -> CheckResult:
    """Transient relative error follows 1 - sin(2wt)/(2wt)."""
    m, omega, g_E = 1e-15, 5e-6, 9.81
    dx = 1e-14
    x20 = g_E / omega**2
    worst = 0.0
    for frac in (0.01, 0.1, 0.25, 0.5, 0.9):
        t = frac * 2.0 * math.pi / omega
        harm = classical.phase_difference_harmonic(x20, 0.0, dx, m, omega, t)
        grav = classical.phase_difference_freefall(dx, m, g_E, t)
        rel = 1.0 - harm / grav
        expected = 1.0 - math.sin(2.0 * omega * t) / (2.0 * omega * t)
        worst = max(worst, abs(rel - expected))
    return _result("action_phase_error", worst, 1e-9,
                   "deviation from 1 - sin(2wt)/(2wt)")


# (check, runs in --quick), in verify.csv's order.  A quick row is the same
# computation as its full row.
_CHECKS = (
    (check_displaced_oscillator_fidelity, True),
    (check_displaced_oscillator_phase, True),
    (check_truncation_stability, False),
    (check_boost_phase, False),
    (check_quench_decomposition, False),
    (check_commutation_identity, True),
    (check_quench_second_order, True),
    (check_classical_period, True),
    (check_freefall_limit, True),
    (check_quench_classical_switch, False),
    (check_mode_quadratic, True),
    (check_action_phase_error, True),
)
_FULL = tuple(check for check, _ in _CHECKS)
_QUICK = tuple(check for check, quick in _CHECKS if quick)


def run_all(quick: bool = False) -> list[CheckResult]:
    # through _FULL/_QUICK as they are at call time, which a tracer may
    # have swapped for wrappers
    return [check() for check in (_QUICK if quick else _FULL)]


def _wrap(phi: float) -> float:
    """phi less the nearest multiple of 2 pi: one inside (-pi, pi) is kept
    exactly, however small."""
    return math.remainder(phi, math.tau)

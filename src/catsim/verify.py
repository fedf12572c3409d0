"""Oracle-equivalence suite: closed forms vs brute-force propagation.

Every check pits a closed-form result from ``classical`` or ``gaussian``
against an independent oracle (truncated Fock-space matrix exponentials,
or fixed-step RK4) and reports the measured deviation next to its
tolerance.  ``gaussian.evolve_quench`` is the quench the protocol kernel
runs, so the boost-phase, second-order and mode checks test the code
behind ``phi_grav``.  Checks always call through the module namespaces so
a deliberately injected fault in a formula is caught here.
"""

from __future__ import annotations

import inspect
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
    return CheckResult(name, measured <= tolerance, float(measured),
                       tolerance, detail)


# --- Quantum closed forms vs Fock oracle --------------------------------------

def _displaced_vs_oracle(t: float, dim: int, alpha: complex = 1.0 + 0.0j,
                         omega: float = 1.0, g: float = 0.1):
    """(closed-form branch, its Fock vector, Fock-propagated state) for an
    evolution under the mode Hamiltonian from |alpha>."""
    numeric = fock_oracle.evolve_schrodinger(
        fock_oracle.coherent_to_fock(alpha, dim),
        fock_oracle.mode_hamiltonian(omega, g, dim), t)
    branch = gaussian.evolve_displaced_oscillator(
        gaussian.CoherentBranch(alpha), omega, g, t)
    return branch, fock_oracle.coherent_to_fock(branch.alpha, dim), numeric


def check_displaced_oscillator_fidelity(dim: int = 60,
                                        quick: bool = False) -> CheckResult:
    """Exact coherent evolution vs expm of the mode Hamiltonian."""
    times = [0.1, 0.5] if quick else [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    worst = 0.0
    for t in times:
        _, reference, numeric = _displaced_vs_oracle(t, dim)
        worst = max(worst, 1.0 - fock_oracle.fidelity(reference, numeric))
    return _result("displaced_oscillator_fidelity", worst, 1e-8,
                   f"dim={dim}, infidelity over t<=0.5")


def check_displaced_oscillator_phase(dim: int = 60,
                                     quick: bool = False) -> CheckResult:
    """Global phase prefactor of the exact evolution vs the oracle."""
    times = [0.5] if quick else [0.1, 0.3, 0.5]
    worst = 0.0
    for t in times:
        branch, reference, numeric = _displaced_vs_oracle(t, dim)
        measured = fock_oracle.overlap_phase(reference, numeric)
        worst = max(worst, abs(_wrap(measured - _phase(branch.weight))))
    return _result("displaced_oscillator_phase", worst, 1e-6,
                   f"dim={dim}, phase error in rad")


def check_truncation_stability() -> CheckResult:
    """Doubling the basis moves the oracle fidelity by < 1e-9."""
    fids = [fock_oracle.fidelity(*_displaced_vs_oracle(0.5, dim)[1:])
            for dim in (60, 120)]
    return _result("truncation_stability", abs(fids[0] - fids[1]), 1e-9,
                   "fidelity shift under N -> 2N")


def check_boost_phase(dim: int = 60) -> CheckResult:
    """Second-order quench phase (boost + translation) vs the oracle.

    At omega2 = omega1 the quench the protocol runs is the second-order
    expansion of the displaced oscillator.  Compares phase differences
    between two initial amplitudes so the alpha-independent global phase
    (zero-point, drift) cancels.
    """
    omega, g, t = 1.0, 0.2, 0.02

    def oracle_phase(alpha):
        _, reference, numeric = _displaced_vs_oracle(t, dim, alpha, omega, g)
        return fock_oracle.overlap_phase(reference, numeric)

    def approx_phase(alpha):
        return _phase(gaussian.evolve_quench(
            gaussian.CoherentBranch(alpha), omega, omega, g, t).weight)

    # phases relative to the alpha = 0 evolution
    oracle0, approx0 = oracle_phase(0.0j), approx_phase(0.0j)
    worst = max(abs(_wrap((oracle_phase(alpha) - oracle0)
                          - (approx_phase(alpha) - approx0)))
                for alpha in (1.5 + 0.0j, 0.0 + 1.5j, 1.0 - 1.0j))
    # third-order terms dominate the residual: ~ |alpha| (w t)^2 g t
    return _result("boost_phase", worst, 5e-6,
                   "relative phase, 2nd-order expansion vs oracle")


def check_quench_decomposition(dim: int = 80) -> CheckResult:
    """S(z) D(eps) R(phi) |alpha> vs expm of the quench Hamiltonian."""
    omega1, omega2, g2 = 1.0, 0.5, 0.2
    alpha = 0.5 + 0.3j
    g1 = math.sqrt(omega2 / omega1) * g2
    worst = 0.0
    for t in (0.01, 0.05):
        qp = gaussian.quench_params(omega1, omega2, g2 / omega2, t)
        psi = fock_oracle.coherent_to_fock(alpha, dim)
        for gate in (fock_oracle.rotation_matrix(qp.phi, dim),
                     fock_oracle.displacement_matrix(qp.epsilon, dim),
                     fock_oracle.squeeze_matrix(qp.z, dim)):
            psi = fock_oracle.apply_gate(psi, gate)
        h = fock_oracle.quadratic_hamiltonian(omega1, omega2, g1, dim)
        numeric = fock_oracle.evolve_schrodinger(
            fock_oracle.coherent_to_fock(alpha, dim), h, t)
        worst = max(worst, 1.0 - fock_oracle.fidelity(psi, numeric))
    return _result("quench_decomposition", worst, 1e-6,
                   "infidelity, decomposition vs direct propagation")


def check_commutation_identity(dim: int = 80) -> CheckResult:
    """S(z) D(xi) = D(gamma) S(z) as a vector-norm identity."""
    z = 0.3 * np.exp(0.7j)
    xi = 0.8 - 0.4j
    gamma = gaussian.commute_squeeze_displacement(z, xi)
    psi = fock_oracle.coherent_to_fock(0.2 + 0.1j, dim)
    squeeze = fock_oracle.squeeze_matrix(z, dim)
    lhs = fock_oracle.apply_gate(fock_oracle.apply_gate(
        psi, fock_oracle.displacement_matrix(xi, dim)), squeeze)
    rhs = fock_oracle.apply_gate(fock_oracle.apply_gate(psi, squeeze),
                                 fock_oracle.displacement_matrix(gamma, dim))
    diff = float(np.linalg.norm(lhs - rhs))
    return _result("commutation_identity", diff, 1e-7, "vector norm")


def check_quench_second_order(quick: bool = False) -> CheckResult:
    """Second-order quench map vs the exact decomposition route.

    Both the coherent amplitude and the phase prefactor of the
    second-order map must approach the exact decomposition with an
    O(t^3) remainder; the measured value is the residual divided by t^3,
    which stays bounded by an O(1) constant at these unit-scale inputs.
    """
    omega1, omega2, g2 = 1.0, 0.5, 0.2
    alphas = [0.5 + 0.3j] if quick else [0.0j, 0.5 + 0.3j, 1.0 - 0.2j]
    worst = 0.0
    for alpha in alphas:
        for t in (0.001, 0.005, 0.01):
            approx = gaussian.evolve_quench(
                gaussian.CoherentBranch(alpha), omega1, omega2, g2, t)
            exact = gaussian.evolve_quench_exact(
                gaussian.CoherentBranch(alpha), omega1, omega2, g2, t)
            amp_err = abs(approx.alpha - exact.alpha) / t**3
            phase_err = abs(_wrap(_phase(approx.weight)
                                  - _phase(exact.weight))) / t**3
            worst = max(worst, amp_err, phase_err)
    return _result("quench_second_order", worst, 5.0,
                   "O(t^3) remainder coefficient, amplitude and phase")


# --- Classical closed forms vs RK4 --------------------------------------------

def check_classical_period(quick: bool = False) -> CheckResult:
    """Closed-form trap trajectory vs RK4 over one full period."""
    m, omega, g_E = 1e-15, 2.0, 9.81
    s0 = classical.PhaseSpacePoint(1e-6, 2e-21)
    period = 2.0 * math.pi / omega
    spec = classical.TimeDependentTrapSpec.constant(m, omega, g_E)
    dt = period / (5000 if quick else 20000)
    worst = 0.0
    times = [period] if quick else [period / 4, period / 2, period]
    for t in times:
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
    """Second-order mode amplitude vs the closed form, bounded ~ (wt)^3.

    The second-order amplitude is the protocol's quench at omega2 = omega1.
    """
    omega, g, a0 = 1.0, 0.3, 0.7 - 0.2j
    branch = gaussian.CoherentBranch(a0)
    worst = 0.0
    for t in (0.001, 0.01, 0.05):
        approx = gaussian.evolve_quench(branch, omega, omega, g, t).alpha
        exact = gaussian.evolve_displaced_oscillator(branch, omega, g, t).alpha
        bound = (abs(approx - exact)
                 / ((omega * t) ** 3 * (abs(a0) + g / omega)))
        worst = max(worst, bound)
    return _result("mode_quadratic", worst, 1.0,
                   "third-order remainder / analytic bound")


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


_FULL = (
    check_displaced_oscillator_fidelity,
    check_displaced_oscillator_phase,
    check_truncation_stability,
    check_boost_phase,
    check_quench_decomposition,
    check_commutation_identity,
    check_quench_second_order,
    check_classical_period,
    check_freefall_limit,
    check_quench_classical_switch,
    check_mode_quadratic,
    check_action_phase_error,
)

_QUICK = (
    check_displaced_oscillator_fidelity,
    check_displaced_oscillator_phase,
    check_commutation_identity,
    check_quench_second_order,
    check_classical_period,
    check_freefall_limit,
    check_mode_quadratic,
    check_action_phase_error,
)


def run_all(quick: bool = False) -> list[CheckResult]:
    results = []
    for fn in (_QUICK if quick else _FULL):
        kwargs = {}
        if "quick" in inspect.signature(fn).parameters:
            kwargs["quick"] = quick
        results.append(fn(**kwargs))
    return results


def _wrap(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _phase(w: complex) -> float:
    return math.atan2(w.imag, w.real)

"""Experimental design formulas and inequality constraints.

Evaluates the dipole-trap frequency and lifetime for the atom, the
two-photon Raman coupling and the resulting superposition size, then
grades every regime inequality with its numeric margin.  The "much
less/greater than" relations are graded by margin = big/small:
pass at margin >= 100, warn in [10, 100), fail below 10.  Plain
">=/~" relations (the lifetime budget) pass at margin >= 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import (
    CONSTANTS,
    AtomSpec,
    ParameterError,
    PhysicalConstants,
    PhysicalScenario,
    TrapConfig,
    cubic_phase,
    zero_point_motion,
)

MARGIN_PASS = 100.0
MARGIN_WARN = 10.0

_K_BOLTZMANN = 1.380649e-23     # J/K
_GAS_MASS_KG = 4.65e-26         # N2 molecule
_GAS_TEMPERATURE_K = 300.0


class AtomTrapResult(NamedTuple):
    omega_a_radps: float


def atom_trap_frequency(atom: AtomSpec, trap: TrapConfig,
                        constants: PhysicalConstants = CONSTANTS,
                        ) -> AtomTrapResult:
    """Dipole-trap frequency of the atom in the backscattered field.

    omega_a = sqrt(6 pi c^2 / (m_a w^2 omega_e^3) * I Gamma / Delta),
    with the trap width w half the trapping wavelength.
    """
    w = trap.wavelength_m / 2.0
    c = constants.c
    omega_e = atom.transition_frequency_radps
    val = (6.0 * math.pi * c * c
           / (atom.mass_kg * w * w * omega_e ** 3)
           * trap.intensity_W_per_m2 * atom.linewidth_radps
           / trap.detuning_radps)
    return AtomTrapResult(omega_a_radps=math.sqrt(val))


def trap_lifetime(atom: AtomSpec, trap: TrapConfig,
                  constants: PhysicalConstants = CONSTANTS) -> float:
    """Photon-recoil-limited trapping time tau = (m_a c^2 / hbar w_l^2)(Delta/Gamma)."""
    omega_l = 2.0 * math.pi * constants.c / trap.wavelength_m
    return (atom.mass_kg * constants.c ** 2 / (constants.hbar * omega_l ** 2)
            * trap.detuning_radps / atom.linewidth_radps)


def raman_coupling(atom: AtomSpec, intensity_W_per_m2: float,
                   delta3_radps: float,
                   constants: PhysicalConstants = CONSTANTS) -> float:
    """Two-photon coupling Omega_gg = (E d / hbar)^2 / Delta3, equal legs.

    E is the field amplitude of a beam of the given intensity,
    E = sqrt(2 I / (eps0 c)).
    """
    if delta3_radps <= 0:
        raise ParameterError("delta3_radps must be positive")
    if intensity_W_per_m2 <= 0:
        raise ParameterError("intensity_W_per_m2 must be positive")
    field = math.sqrt(2.0 * intensity_W_per_m2 / (constants.eps0 * constants.c))
    g = field * atom.dipole_moment_Cm / constants.hbar
    return g * g / delta3_radps


def superposition_size(scenario: PhysicalScenario, omega_n: float,
                       delta_t: float) -> float:
    """Spatial branch separation Delta x = hbar k Omega_gg dt / (2 m omega_n).

    The explicit 1/omega_n makes softening the trap before displacing
    strictly favourable.
    """
    if omega_n <= 0:
        raise ParameterError("omega_n must be positive")
    const = scenario.constants
    omega_gg = raman_coupling(
        scenario.atom, scenario.beam.intensity_W_per_m2,
        scenario.trap.raman_detuning_radps, const)
    k = scenario.trap.raman_wavevector_radpm
    m = scenario.total_mass_kg
    return const.hbar * k * omega_gg * delta_t / (2.0 * m * omega_n)


# --- Constraint report --------------------------------------------------------

class ConstraintVerdict(NamedTuple):
    name: str
    lhs: float
    rhs: float
    margin: float
    status: str     # "pass" | "warn" | "fail"


class FeasibilityReport(NamedTuple):
    omega_a_radps: float
    tau_trap_s: float
    eta: float
    omega_gg_radps: float
    delta_x_m: float
    phi_grav_rad: float
    phi3_rad: float
    verdicts: tuple[ConstraintVerdict, ...]
    notes: tuple[str, ...]

    @property
    def status(self) -> str:
        ranking = {"pass": 0, "warn": 1, "fail": 2}
        worst = max(self.verdicts, key=lambda v: ranking[v.status])
        return worst.status

    @property
    def exit_code(self) -> int:
        """0 pass, 1 warn, 3 fail; 2 is left to input errors."""
        return {"pass": 0, "warn": 1, "fail": 3}[self.status]


def _grade_much_less(name: str, lhs: float, rhs: float) -> ConstraintVerdict:
    margin = math.inf if lhs == 0.0 else rhs / lhs
    if margin >= MARGIN_PASS:
        status = "pass"
    elif margin >= MARGIN_WARN:
        status = "warn"
    else:
        status = "fail"
    return ConstraintVerdict(name, lhs, rhs, margin, status)


def _grade_at_least(name: str, lhs: float, rhs: float) -> ConstraintVerdict:
    margin = math.inf if rhs == 0.0 else lhs / rhs
    return ConstraintVerdict(name, lhs, rhs, margin,
                             "pass" if margin >= 1.0 else "fail")


def constraint_check(scenario: PhysicalScenario) -> FeasibilityReport:
    """Evaluate all regime inequalities for the soft-trap protocol stage."""
    const = scenario.constants
    atom, nano, trap = scenario.atom, scenario.nanoparticle, scenario.trap
    omega_n = trap.paul_frequency_soft_radps
    dt = scenario.protocol.free_fall_duration_s

    atom_trap = atom_trap_frequency(atom, trap, constants=const)
    omega_a = atom_trap.omega_a_radps
    tau = trap_lifetime(atom, trap, const)
    omega_gg = raman_coupling(
        atom, scenario.beam.intensity_W_per_m2,
        trap.raman_detuning_radps, const)
    delta_x = scenario.protocol.superposition_size_m
    if delta_x is None:
        delta_x = superposition_size(scenario, omega_n,
                                     scenario.beam.duration_s)
    m_total = scenario.total_mass_kg
    eta = trap.raman_wavevector_radpm * zero_point_motion(m_total, omega_n,
                                                          const)
    phi_grav = m_total * const.g_E * delta_x * dt / const.hbar
    phi3 = cubic_phase(phi_grav, omega_n, dt)

    lamb_dicke_floor = const.hbar / (2.0 * nano.mass_kg * trap.wavelength_m ** 2)
    coupling_ceiling = atom.mass_kg / nano.mass_kg * omega_a
    verdicts = (
        _grade_much_less("lamb_dicke_floor", lamb_dicke_floor, omega_n),
        _grade_much_less("coupling_ceiling", omega_n, coupling_ceiling),
        _grade_at_least("trap_lifetime", tau, dt),
        _grade_much_less("quench_duration", omega_n * dt, 1.0),
        _grade_much_less("freefall_force",
                         scenario.protocol.freefall_force_N,
                         m_total * const.g_E),
    )

    gas_wavelength = (2.0 * math.pi * const.hbar
                      / math.sqrt(2.0 * math.pi * _GAS_MASS_KG
                                  * _K_BOLTZMANN * _GAS_TEMPERATURE_K))
    notes = (
        f"trap frequency window for the soft stage: "
        f"{lamb_dicke_floor:.3g} rad/s << omega_n << "
        f"{coupling_ceiling:.3g} rad/s "
        f"(= {coupling_ceiling / (2.0 * math.pi):.3g} Hz if read as cyclic)",
        f"decoherence note: thermal gas wavelength "
        f"{gas_wavelength:.3g} m at {_GAS_TEMPERATURE_K:.0f} K vs "
        f"superposition size {delta_x:.3g} m -> "
        + ("which-path information strongly suppressed"
           if gas_wavelength > 10.0 * delta_x
           else "gas collisions resolve the superposition"),
    )
    return FeasibilityReport(
        omega_a_radps=omega_a,
        tau_trap_s=tau,
        eta=eta,
        omega_gg_radps=omega_gg,
        delta_x_m=delta_x,
        phi_grav_rad=phi_grav,
        phi3_rad=phi3,
        verdicts=verdicts,
        notes=notes,
    )

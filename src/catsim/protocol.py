"""The interferometric cat-state protocol as one closed-form kernel.

The working state is a hybrid of a two-level hyperfine qubit and a
motional coherent branch per populated level.  All motional amplitudes
are expressed in the stiff-trap mode basis; pulses are instantaneous
ideal maps; trap softening and release are merged into a single sudden
quench followed by transient free fall.  ``run_protocol`` calls the
kernel once; it runs each step in closed form on scalars at alpha = 0,
once per (beta, closing, trap) and cached, and reads phi_grav and P_down,
for one amplitude or an array of thermal draws, off the one form
Im(alpha delta), delta being the residual separation of the branches.
Where delta is 0j, under the exact closing or at beta = 0, a thermal run
reads the alpha = 0 run once and gives it to every draw.
A branch is its amplitude and the real theta of its weight
e^{i theta}/sqrt(2), a sum of the steps' phases.  The kernel carries the
branch differences, so phi_grav = -dtheta keeps its precision at any
thermal occupation; each branch's own values form only the step log.

Displacement convention: an operator amplitude b (real) separates the
two branches by Delta x = 2 delta_R b in physical units, so the
gravitational phase picked up over a fall of duration t is
2 g1 t b = m g_E Delta x t / hbar.  Half of it accumulates in the
evolution prefactors and half is released by the composition phases of
the closing displacement, which is why the bookkeeping below never
drops a phase.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from typing import TYPE_CHECKING, NamedTuple

from . import feasibility
from .gaussian import displace_compose, evolve_quench, quench_linear_map
# the CLI catches ProtocolError and ConstraintViolation without this module
from .params import LAMB_DICKE_FLAG, ConstraintViolation, ParameterError, \
    PhysicalScenario, ProtocolError, grav_coupling, validated, \
    zero_point_motion

if TYPE_CHECKING:               # numpy is imported by thermal runs only
    import numpy as np

RECOMBINE_TOL = 1e-6
MAX_SAMPLES = 10**6             # ~170 B per sample at peak: ~0.17 GB
PHASE_ROUNDING_LIMIT = 1e-10    # rad a branch phase may lose to rounding


# --- Full protocol ------------------------------------------------------------

class Coherent(NamedTuple):
    alpha: complex


@validated
class ThermalSample(NamedTuple):
    nbar: float
    seed: int
    count: int

    def _check(self):
        if (not isinstance(self.count, int) or isinstance(self.count, bool)
                or not 1 <= self.count <= MAX_SAMPLES):
            raise ParameterError(f"thermal count must be an integer between "
                                 f"1 and {MAX_SAMPLES}, got {self.count!r}")
        # any finite real nbar >= 0, however small: no magnitude rule here
        try:
            real = not isinstance(self.nbar, bool) and math.isfinite(self.nbar)
        except (TypeError, OverflowError):     # str, complex, None; 10**400
            real = False
        if not (real and self.nbar >= 0.0):
            raise ParameterError(f"thermal nbar must be a finite, non-negative "
                                 f"real number, got {self.nbar!r}")
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ParameterError(
                f"thermal seed must be a non-negative integer, got {self.seed}")


class ProtocolResult(NamedTuple):
    phi_grav: float
    p_down: float
    visibility: float
    residual: float              # motional mismatch after disentangling
    log: tuple[dict, ...] = ()   # steps.jsonl


class ProtocolDistribution:
    """A thermal run: the kernel's four columns, one entry per draw.
    Equal only to itself: == on arrays has no single truth."""
    __slots__ = ("phi_grav_values", "p_down_values", "visibility_values",
                 "residual_values")

    def __init__(self, phi_grav_values: np.ndarray, p_down_values: np.ndarray,
                 visibility_values: np.ndarray, residual_values: np.ndarray):
        self.phi_grav_values = phi_grav_values
        self.p_down_values = p_down_values
        self.visibility_values = visibility_values
        self.residual_values = residual_values

    @property
    def results(self) -> tuple[ProtocolResult, ...]:
        """One ProtocolResult per draw, built when read."""
        columns = (self.phi_grav_values, self.p_down_values,
                   self.visibility_values, self.residual_values)
        return tuple(map(ProtocolResult, *(x.tolist() for x in columns)))


def beam_amplitude(scenario: PhysicalScenario, delta_x: float) -> float:
    """Displacement-operator amplitude b = Delta x / (2 delta_R(omega1))
    in the stiff-trap basis."""
    m_total = scenario.total_mass_kg
    delta_r1 = zero_point_motion(
        m_total, scenario.trap.paul_frequency_stiff_radps, scenario.constants)
    return delta_x / (2.0 * delta_r1)


class _SetUp(NamedTuple):
    """What run_protocol needs of a scenario, whatever the call."""
    failed: tuple[str, ...]             # names of the failed verdicts
    # each call's texts, formatted once: None where the verdict lets it pass
    lamb_dicke: str | None              # warned
    freefall: str | None                # refused, even with force
    quench: str | None                  # warned
    beta: float                         # the default, from the report's Delta x
    couplings: tuple                    # evolve_quench's (omega1, omega2, g1, t)
    # the fall's a -> c1 a + c2 a* + d, in the sizes the rounding guard reads
    spread: float                       # |c1| + |c2|: its largest scaling
    drift: float                        # |d|: its shift of every branch
    shift_per_beta: float               # max(1, |c1 + c2|): see run_protocol


# a scan calls run_protocol on one scenario many times, so the report is
# graded, and its texts formatted, once per scenario; every cached field is
# immutable, so callers can share it.  tests/conftest.py clears this cache and
# _closed_form's before each test, so no test reads a value from before a patch
@functools.lru_cache(maxsize=8)
def _set_up(scenario: PhysicalScenario) -> _SetUp:
    report = feasibility.constraint_check(scenario)
    verdicts = {v.name: v for v in report.verdicts}
    fall, quench = verdicts["freefall_force"], verdicts["quench_duration"]
    m_total = scenario.total_mass_kg
    omega1 = scenario.trap.paul_frequency_stiff_radps
    omega2 = scenario.trap.paul_frequency_soft_radps
    dt = scenario.protocol.free_fall_duration_s
    couplings = (omega1, omega2,
                 grav_coupling(m_total, omega1, scenario.constants), dt)
    c1, c2, d = quench_linear_map(*couplings)
    return _SetUp(
        tuple(v.name for v in report.verdicts if v.status == "fail"),
        f"Lamb-Dicke parameter {report.eta:.3g} > {LAMB_DICKE_FLAG}; "
        "sideband displacement beam is only marginally selective"
        if report.eta > LAMB_DICKE_FLAG else None,
        f"not in free-fall regime: residual force {fall.lhs:.3g} N is not "
        f"small against m g_E = {fall.rhs:.3g} N"
        if fall.status == "fail" else None,
        f"omega2*dt = {quench.lhs:.3g} not << 1; phi_grav departs from "
        "m g_E dx dt / hbar" if quench.status == "fail" else None,
        beam_amplitude(scenario, report.delta_x_m), couplings,
        abs(c1) + abs(c2), abs(d), max(1.0, abs(c1 + c2)))


def run_protocol(scenario: PhysicalScenario,
                 initial: Coherent | ThermalSample,
                 exact_phase: bool = True,
                 force: bool = False,
                 beta: float | None = None,
                 ) -> ProtocolResult | ProtocolDistribution:
    """Execute protocol steps 2-9 (preparation and recapture are ideal).

    ``beta`` overrides the displacement-operator amplitude; otherwise it
    is derived from the feasibility report's superposition size.
    ``exact_phase`` selects whether the closing displacement reverses the
    evolved branch separation exactly or applies the plain -beta
    approximation.  ``force`` runs past failed feasibility constraints,
    except a failed free-fall regime, which is always refused.
    """
    (failed, lamb_dicke, freefall, quench, default_beta, couplings, spread,
     drift, shift_per_beta) = _set_up(scenario)
    if failed and not force:
        raise ConstraintViolation(
            "feasibility constraints failed: " + ", ".join(failed)
            + " (pass force=True to override)")
    thermal = isinstance(initial, ThermalSample)
    if thermal:
        import numpy as np      # a coherent run is math/cmath only
        rng = np.random.default_rng(initial.seed)
        # each row's two normals are one draw's real and imaginary parts
        alpha = (rng.standard_normal((initial.count, 2))
                 * math.sqrt(initial.nbar / 2)).view(np.complex128).ravel()
        amplitude = float(np.abs(alpha).max())
        name, value = "thermal nbar", initial.nbar
    else:
        alpha = complex(initial.alpha)
        # abs() raises OverflowError once |alpha| passes ~1.7e308; hypot
        # returns inf, which the check below refuses
        amplitude = math.hypot(alpha.real, alpha.imag)
        name, value = "alpha", alpha
    if beta is None:
        beta = default_beta
    # each of the kernel's phase terms that grow with the amplitudes is a
    # displacement (beta, gamma(beta) = (c1 + c2) beta or beta_back, one of
    # the two: up to ``shift``) times a branch amplitude, which the fall
    # takes up to ``reach``; phi_grav is their sum, so once their rounding
    # passes the limit it would be lost while every step stays finite.  At
    # beta = 0 there is no such term, whatever the amplitude
    if not (math.isfinite(amplitude) and math.isfinite(beta)):
        field = "beta" if math.isfinite(amplitude) else name
        raise ProtocolError(f"{field} and its modulus must be finite")
    shift = shift_per_beta * abs(beta)
    reach = spread * amplitude + drift + shift
    phase = shift * reach if shift else 0.0
    rounding = sys.float_info.epsilon * phase
    if not rounding <= PHASE_ROUNDING_LIMIT:
        raise ProtocolError(
            f"{name} {value:g}, beta {beta:g}: branch amplitudes up to "
            f"{reach:.3g} give phase terms ~{phase:.3g} rad whose "
            f"rounding, ~{rounding:.3g} rad, exceeds "
            f"{PHASE_ROUNDING_LIMIT:g} rad")
    if lamb_dicke:
        warnings.warn(lamb_dicke, stacklevel=2)
    if freefall:
        raise ProtocolError(freefall)
    if quench:
        warnings.warn(quench, stacklevel=2)
    if thermal:
        # delta = 0j makes the form +-0: every draw reads the alpha = 0 run,
        # so the kernel runs once on 0j.  Else the draws meet the form, and
        # the visibility and residual, which have no alpha, are one value
        _, _, _, _, _, delta, _, _ = _closed_form(beta, exact_phase, couplings)
        return ProtocolDistribution(*(
            x if isinstance(x, np.ndarray) else np.full(initial.count, x)
            for x in _kernel(alpha if delta else 0j, beta, exact_phase,
                             couplings)))
    log = []
    phi, p_down, visibility, residual = _kernel(
        alpha, beta, exact_phase, couplings, log)
    return ProtocolResult(phi, p_down, visibility, residual, tuple(log))


def _branch(level: str, a: complex, w: complex) -> dict:
    """One branch of a steps.jsonl record: its amplitude and weight."""
    return {"level": level, "re_alpha": a.real, "im_alpha": a.imag,
            "re_weight": w.real, "im_weight": w.imag}


_C = 1 / math.sqrt(2)           # every beam-splitter amplitude


# a scan over alpha reads one closed form per beta, so it is computed once per
# (beta, exact_phase, couplings), immutable; 0.0 and -0.0 share a key and bits
@functools.lru_cache(maxsize=32)
def _closed_form(beta: float, exact_phase: bool, couplings: tuple) -> tuple:
    """_kernel's alpha-free half: the alpha = 0 run, whose residual
    separation delta is also the coefficient of alpha's one form."""
    omega1, omega2, _, t = couplings
    c1, c2, _ = quench_linear_map(*couplings)     # for the step log's gamma
    # the opening pi/2 puts both levels at alpha = 0, and D(beta) on |down>
    # makes delta = beta with no phase.  The quench's squeeze is the same on
    # both branches and is dropped; its drift too, for delta, which runs the
    # map at g1 = 0, fall = gamma(beta): a_u becomes d, and dth gains
    # Im(gamma(beta)* d).  The exact closing reverses fall
    a_u, _ = evolve_quench(0j, *couplings)
    fall, _ = evolve_quench(beta, omega1, omega2, 0.0, t)
    beta_back = -fall if exact_phase else -beta
    dth_fall = (fall.conjugate() * a_u).imag
    # D(beta_back) on |down> = |a_u + delta>: dth gains its composition phase
    delta, back = displace_compose(beta_back, fall)
    dth0 = dth_fall + (back + (beta_back * a_u.conjugate()).imag)
    # readout: the closing pi/2 gives P_down = (1 + Re(e^{i dth} <a_u|a_d>))/2
    # with <a_u|a_u + delta> = V e^{i Im(a_u* delta)}.  That phase is 0 for a
    # real beta: delta is 0j, or (c1 + c2 - 1) beta, a real multiple of a_u = d
    visibility = math.exp(-0.5 * (delta.real * delta.real
                                  + delta.imag * delta.imag))
    return c1, c2, a_u, fall, dth_fall, delta, dth0, visibility


def _kernel(alpha, beta: float, exact_phase: bool, couplings: tuple,
            log: list | None = None):
    """Steps 1-8: a cached run at alpha = 0 plus one form in alpha.

    The up branch (a_u, th_u), th_u the phase of its weight _C e^{i th_u},
    and the differences delta = a_d - a_u and dth = th_d - th_u run once.
    Each step's map is affine in the amplitude and its phase is linear in
    it, so delta never depends on alpha, and alpha reaches the readout only
    through the residual separation:
      dth = dth0 + Im(alpha delta),
      psi = dth0 + 2 Im(alpha delta),
    psi = dth + Im(a* delta) being the fringe's argument, a the up branch
    at the readout, whose Im(a_u* delta) at alpha = 0 is 0 (_closed_form).
    Both hold under either closing because the fall's map
    a -> c1 a + c2 a* + d has c2 purely imaginary and |c1|^2 - |c2|^2 = 1.
    The exact closing beta_back = -gamma(beta), gamma(a) = c1 a + c2 a*
    (-beta without ``exact_phase``), makes delta exactly 0j, so every alpha
    reads one phi_grav and one P_down, bit for bit (Scala et al., PRL 111,
    180403).
    _closed_form runs each step once per (beta, closing, trap), on
    scalars, so a call computes only the form, the log and the one cos.

    ``alpha`` is a complex number or a 1-D array, told apart by its type;
    both meet the same expressions, and only the cos differs: math's for a
    complex number, numpy's for anything else, a one-draw array too.
    run_protocol passes thermal draws only where delta is not 0j.
    ``couplings`` holds evolve_quench's (omega1, omega2, g1, t).  Returns
    (phi_grav, p_down, visibility, residual).  ``log`` (a complex alpha
    only) collects every step record and refuses one that is not finite,
    at its step: the kernel's only refusal.  run_protocol's rounding guard
    refuses a non-finite alpha or beta and bounds |beta| |alpha| (at
    beta = 0 the form is 0), so only the log's th_u = Im(gamma(alpha)* d)
    overflows.
    """
    if isinstance(alpha, complex):
        cos, worst = math.cos, float
    else:
        import numpy as np      # a coherent run is math/cmath only
        cos, worst = np.cos, np.maximum.reduce
    (c1, c2, a_u, fall, dth_fall, delta, dth0,
     visibility) = _closed_form(beta, exact_phase, couplings)
    re, im = alpha.real, alpha.imag
    form = delta.imag * re + delta.real * im      # Im(alpha delta)
    dth = dth0 + form
    psi = dth0 + 2.0 * form
    if log is not None:         # the down weight is w_u e^{i dth}
        log.append({"step": 1, "label": "prepare",
                    "branches": [_branch("down", alpha, 1.0 + 0.0j)]})
        gamma = c1 * alpha + c2 * alpha.conjugate()
        a_fall = a_u + gamma        # a_u is d, so th_u = Im(gamma* d)
        w_fall = _C * cmath.exp(1j * (gamma.conjugate() * a_u).imag)
        for number, label, a_u, w_u, diff, dth_step in (
                (2, "pi_half", alpha, _C + 0j, 0j, 0.0),
                (4, "displace", alpha, _C + 0j, beta, -beta * im),
                (6, "free_fall", a_fall, w_fall, fall, dth_fall - beta * im),
                (7, "undisplace", a_fall, w_fall, delta, dth)):
            a_d, w_d = a_u + diff, w_u * cmath.exp(1j * dth_step)
            # exp gives NaN for a non-finite phase, and |w_d| <= _C: the
            # sum is finite exactly when every value of the record is
            if not cmath.isfinite(a_d + w_d):
                raise ProtocolError(f"branch amplitude or phase stopped "
                                    f"being finite at step {label}")
            log.append({"step": number, "label": label, "branches": [
                _branch("down", a_d, w_d), _branch("up", a_u, w_u)]})
        if abs(delta) <= RECOMBINE_TOL:       # the non-empty recombined levels
            # equal moduli: the plain mean, free of a_d + a_u's overflow
            a = a_u + delta / 2
            branches = [_branch(level, a, w) for level, w
                        in (("down", _C * (w_d + w_u)),
                            ("up", _C * (w_u - w_d)))
                        if abs(w) ** 2 >= 1e-24]
        else:                                 # step 7's pair, closed
            branches = [_branch("down", a_d, w_d), _branch("up", a_u, w_u)]
        log.append({"step": 8, "label": "pi_half_close", "branches": branches})
    p_down = 0.5 * (1.0 + visibility * cos(psi))
    # -dth wrapped into (-pi, pi]; a phase inside is left exact, and the
    # floor division runs only when some phase is not.  0 - dth, not -dth,
    # reads a zero phase as +0
    phi = 0.0 - dth
    if not worst(abs(phi)) < math.pi:
        phi = phi + math.tau * ((math.pi - phi) // math.tau)
    return phi, p_down, visibility, abs(delta)

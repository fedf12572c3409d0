"""Coherent-state algebra and closed-form quantum evolutions.

Implements the sudden frequency-plus-equilibrium quench and the branch
phase differences that make up the interferometric observable.  The
quench is derived once, as the exact Heisenberg map the protocol kernel
runs (``quench_linear_map``); its squeeze-displacement-rotation
decomposition and the displaced oscillator, the quench at equal
frequencies, are read off that map.

Global phases are never discarded, and every evolution is a unit phase
times a new coherent amplitude: each returns that amplitude and the real
phase gained, so a branch's phase accumulates as a sum of reals.  The
whole protocol's observable lives in these phases.  ``CoherentBranch`` is
an (amplitude, complex weight) record kept for the public API only.

Conventions: D(a) = exp(a ad - a* a) (so a real displacement shifts the
adimensional position X = <a + ad> by 2a), S(z) = exp((z ad^2 - z* a^2)/2),
R(phi) = exp(i phi ad a).  The mode Hamiltonian is H/hbar = w ad a + g(ad + a)
with g = g_E sqrt(m / (2 hbar w)) > 0 for gravity along -x.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .params import ParameterError, cubic_phase


class CoherentBranch(NamedTuple):
    """A coherent amplitude plus its accumulated complex weight, kept for
    the public API: nothing in catsim builds one (the step log holds dicts)."""
    alpha: complex
    weight: complex = 1.0 + 0.0j


def displace_compose(alpha: complex, beta: complex) -> tuple[complex, float]:
    """Compose D(alpha) D(beta) = e^{i Im(alpha beta*)} D(alpha + beta).

    The first argument is the operator applied last (leftmost).  Returns
    the composed amplitude and the phase.
    """
    return alpha + beta, (alpha * beta.conjugate()).imag


def evolve_displaced_oscillator(alpha: complex, omega: float, g: float,
                                t: float) -> tuple[complex, float]:
    """Exact evolution under H/hbar = w ad a + g (ad + a).

    |a> -> e^{(g/2w)[a*(1 - e^{iwt}) - a (1 - e^{-iwt})]}
           |a e^{-iwt} + (g/w)(e^{-iwt} - 1)>
    times the state-independent phase e^{i (g/w)^2 (wt - sin wt)} from the
    shifted ground-state energy -g^2/w (it cancels between interferometer
    branches but is kept so the evolution is exactly unitary-equivalent
    to the Schrodinger evolution).  This is the quench at omega2 = omega1,
    plus that phase.  Returns the new amplitude and the phase gained.
    """
    amplitude, phase = evolve_quench(alpha, omega, omega, g, t)
    return amplitude, phase + (g / omega) ** 2 * (omega * t
                                                  - math.sin(omega * t))


# --- Sudden frequency + equilibrium quench ------------------------------------

class QuenchParams(NamedTuple):
    z: complex          # dynamical squeeze, |z| e^{i theta}
    epsilon: complex    # displacement
    phi: float          # rotation angle


def quench_params(omega1: float, omega2: float, g1: float,
                  t: float) -> QuenchParams:
    """The sudden quench as S(z) D(epsilon) R(phi), read off its map.

    With a -> c1 a + c2 ad + d from ``quench_linear_map``, phi = arg c1 and
    z = asinh|c2| e^{i(arg c2 + phi)}, so that c1 = e^{i phi} cosh|z| and
    c2 = e^{i(theta - phi)} sinh|z| with theta = arg z.  The drift obeys
    S(z) D(epsilon) = D(d) S(z), and S(z)^dagger = S(-z), so epsilon is
    ``commute_squeeze_displacement(-z, d)``.
    """
    c1, c2, d = quench_linear_map(omega1, omega2, g1, t)
    mod = abs(c2)
    z = 0.0j if mod == 0.0 else math.asinh(mod) * (c2 / mod) * (c1 / abs(c1))
    return QuenchParams(z=z, epsilon=commute_squeeze_displacement(-z, d),
                        phi=cmath.phase(c1))


def commute_squeeze_displacement(z: complex, xi: complex) -> complex:
    """gamma such that S(z) D(xi) = D(gamma) S(z).

    gamma = xi cosh|z| - xi* sinh|z| e^{i(theta + pi)}, theta = arg z.
    """
    mod = abs(z)
    if mod == 0.0:
        return xi
    phase = z / mod
    return xi * math.cosh(mod) + xi.conjugate() * math.sinh(mod) * phase


# a warm verify.run_all() asks for 10 maps 37 times: a hit takes ~0.15 us
# against ~1.2 us to compute, ~40 us of its ~900 us (CPython 3.11)
@functools.lru_cache(maxsize=16)
def quench_linear_map(omega1: float, omega2: float, g1: float, t: float
                      ) -> tuple[complex, complex, complex]:
    """The quench's exact Heisenberg map a -> c1 a + c2 ad + d.

    In the stiff-trap mode basis the quench Hamiltonian is
    H/hbar = (w1/4) P^2 + (w2^2 / 4 w1) X^2 + g1 X, g1 being g at w = w1.
    With s = w2 t, S = sin(s)/w2 and C = (1 - cos s)/w2^2:
      c1 = cos s - i (w1^2 + w2^2) S / (2 w1),
      c2 = i (w1^2 - w2^2) S / (2 w1),
      d = -w1 g1 C - i g1 S.
    Returns (c1, c2, d).  S and C are written as t sinc(s) and
    (t^2/2) sinc(s/2)^2: at the preset s ~ 5e-12, where 1 - cos s rounds
    to 0, they are exactly t and t^2/2.
    """
    if omega1 <= 0 or omega2 <= 0:
        raise ParameterError("omega1 and omega2 must be positive")
    s = omega2 * t
    S = t * _sinc(s)
    C = 0.5 * t * t * _sinc(0.5 * s) ** 2
    c1 = math.cos(s) - 1j * (omega1**2 + omega2**2) * S / (2.0 * omega1)
    c2 = 1j * (omega1**2 - omega2**2) * S / (2.0 * omega1)
    d = -omega1 * g1 * C - 1j * g1 * S
    return c1, c2, d


def _sinc(x: float) -> float:
    return math.sin(x) / x if x else 1.0


def evolve_quench(alpha: complex, omega1: float, omega2: float, g1: float,
                  t: float) -> tuple[complex, float]:
    """Exact quench evolution of a coherent amplitude, squeeze dropped.

    |a> -> e^{i Im(gamma* d)} |gamma + d>, gamma = c1 a + c2 a*, with the
    map of ``quench_linear_map``; the state also carries a squeeze and a
    phase that do not depend on a, the same on every branch.  ``alpha`` is
    one complex number; returns its new amplitude and the phase gained.
    At omega2 = omega1 it is
    ``evolve_displaced_oscillator`` up to that a-independent phase.
    """
    c1, c2, d = quench_linear_map(omega1, omega2, g1, t)
    gamma = c1 * alpha + c2 * alpha.conjugate()
    return gamma + d, (gamma.conjugate() * d).imag


def branch_phase_difference(beta: float, g: float, t: float,
                            omega2: float) -> tuple[float, float]:
    """Leading gravitational phase g t beta and its cubic correction.

    ``beta`` is the adimensional branch separation Delta x / delta_R (twice
    the displacement-operator amplitude).  Returns (phi_grav, phi3) with
    phi3 = -(1/6) g w2^2 t^3 beta from ``params.cubic_phase``.
    """
    phi_grav = g * t * beta
    return phi_grav, cubic_phase(phi_grav, omega2, t)

"""Closed-form classical trajectories in a trap with gravity.

Covers the exact harmonic-plus-gravity solution, its free-fall limit, a
fixed-step RK4 oracle for independent verification, and the branch phase
differences behind the long-time phase-difference curves.  The quantum
mode amplitudes live in ``gaussian``.

The RK4 oracle takes n = ceil(duration/dt) classical RK4 steps on each
constant-coefficient segment.  One such step is an affine map of (x, p),
a 2x2 matrix and an offset read off the stage formulas of ``_rk4_step``,
raised to the n-th power by squaring in plain floats instead of applied in
a loop: the discretisation is the same, only the rounding differs.

Sign convention: the Hamiltonian is H = p^2/2m + m w^2 x^2 / 2 + m g_E x,
so gravity pulls toward negative x and the displaced equilibrium sits at
x = -g_E/w^2.  Frame 2 is shifted so that the equilibrium is at its origin:
x2 = x1 + g_E/w^2, p2 = p1.

All phases are reported unwrapped (no mod 2*pi).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import CONSTANTS, ParameterError

_RK4_STEP_FRACTION = 2.0 * math.pi / 50.0   # dt must stay below 2*pi/(50 w)


class PhaseSpacePoint(NamedTuple):
    x: float
    p: float


def evolve_harmonic_gravity(s0: PhaseSpacePoint, m: float, omega: float,
                            g_E: float, t: float) -> PhaseSpacePoint:
    """Exact trap-frame trajectory under harmonic confinement plus gravity."""
    if omega <= 0:
        raise ParameterError(
            "omega must be positive; use evolve_free_fall for omega = 0")
    c, s = math.cos(omega * t), math.sin(omega * t)
    shift = g_E / omega**2
    x = s0.x * c + s0.p / (m * omega) * s + shift * (c - 1.0)
    p = -m * omega * s0.x * s + s0.p * c - m * omega * shift * s
    return PhaseSpacePoint(x, p)


def evolve_free_fall(s0: PhaseSpacePoint, m: float, g_E: float,
                     t: float) -> PhaseSpacePoint:
    x = s0.x + s0.p * t / m - 0.5 * g_E * t * t
    p = s0.p - m * g_E * t
    return PhaseSpacePoint(x, p)


# --- RK4 oracle ---------------------------------------------------------------

class TimeDependentTrapSpec(NamedTuple):
    """Piecewise-constant trap: (omega, linear acceleration) switching once.

    The equation of motion is x'' = -omega^2 x - accel, i.e. ``accel`` is
    the uniform acceleration from any linear potential term (gravity net of
    radiation pressure).
    """
    mass: float
    omega_initial: float
    omega_final: float
    accel_initial: float
    accel_final: float
    switch_time: float = 0.0

    @classmethod
    def constant(cls, mass: float, omega: float,
                 accel: float) -> "TimeDependentTrapSpec":
        return cls(mass, omega, omega, accel, accel, switch_time=0.0)

    @classmethod
    def sudden_quench(cls, mass: float, omega1: float, omega2: float,
                      g_E: float = CONSTANTS.g_E,
                      switch_time: float = 0.0) -> "TimeDependentTrapSpec":
        """Stiff balanced trap for t <= switch, soft trap with gravity after."""
        return cls(mass, omega1, omega2, 0.0, g_E, switch_time)


def _rk4_step(x, p, m: float, w2: float, accel: float, h: float):
    """One classical RK4 step of Hamilton's equations
    dx/dt = p/m, dp/dt = -m w^2 x - m accel."""
    k1x = p / m
    k1p = -m * (w2 * x + accel)
    k2x = (p + 0.5 * h * k1p) / m
    k2p = -m * (w2 * (x + 0.5 * h * k1x) + accel)
    k3x = (p + 0.5 * h * k2p) / m
    k3p = -m * (w2 * (x + 0.5 * h * k2x) + accel)
    k4x = (p + h * k3p) / m
    k4p = -m * (w2 * (x + h * k3x) + accel)
    return (x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0,
            p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)


def _rk4_segment(x: float, p: float, m: float, omega: float, accel: float,
                 duration: float, dt: float) -> tuple[float, float]:
    if duration <= 0:
        return x, p
    n = max(1, math.ceil(duration / dt))
    h = duration / n
    # with constant coefficients one step is an affine map: the image of the
    # origin is its offset, those of (1, 0) and (0, 1) less it its columns
    (x0, p0), (xx, px), (xp, pp) = (
        _rk4_step(*point, m, omega * omega, accel, h)
        for point in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    xx, px, xp, pp = xx - x0, px - p0, xp - x0, pp - p0
    while n:        # (x, p) through the map's n-th power, by squaring it
        if n & 1:
            x, p = xx * x + xp * p + x0, px * x + pp * p + p0
        xx, xp, px, pp, x0, p0 = (
            xx * xx + xp * px, xx * xp + xp * pp, px * xx + pp * px,
            px * xp + pp * pp, xx * x0 + xp * p0 + x0, px * x0 + pp * p0 + p0)
        n >>= 1
    return x, p


def ode_oracle(s0: PhaseSpacePoint, spec: TimeDependentTrapSpec, t: float,
               dt: float) -> PhaseSpacePoint:
    """Fixed-step RK4 integration of Hamilton's equations, split at the switch."""
    if not dt > 0:                      # a NaN fails too
        raise ParameterError(f"dt must be positive, got {dt:g}")
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and non-negative, got {t:g}")
    omega_max = max(spec.omega_initial, spec.omega_final)
    if omega_max > 0 and dt >= _RK4_STEP_FRACTION / omega_max:
        raise ParameterError(
            f"dt={dt:g} too large: must be below 2*pi/(50*omega) = "
            f"{_RK4_STEP_FRACTION / omega_max:g}")
    # a segment of length <= 0 is skipped, so a switch outside (0, t) runs
    # one trap for the whole of t
    switch = min(t, max(0.0, spec.switch_time))
    x, p = _rk4_segment(s0.x, s0.p, spec.mass, spec.omega_initial,
                        spec.accel_initial, switch, dt)
    x, p = _rk4_segment(x, p, spec.mass, spec.omega_final, spec.accel_final,
                        t - switch, dt)
    return PhaseSpacePoint(x, p)


# --- Branch phase differences ------------------------------------------------

def phase_difference_harmonic(x20: float, p20: float, dx: float, m: float,
                              omega: float, t: float,
                              hbar: float = CONSTANTS.hbar) -> float:
    """Action-phase difference between harmonic paths offset by dx in height."""
    if dx < 0:
        raise ParameterError("dx must be non-negative")
    return (dx * m * omega * (dx + 2.0 * x20) / (4.0 * hbar)
            * math.sin(2.0 * omega * t)
            + dx * p20 / hbar * math.sin(omega * t)**2)


def phase_difference_freefall(dx: float, m: float, g_E: float, t: float,
                              hbar: float = CONSTANTS.hbar) -> float:
    """Transient free-fall phase difference m g_E dx t / hbar."""
    return m * g_E * dx * t / hbar


import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim.classical import (
    PhaseSpacePoint,
    TimeDependentTrapSpec,
    evolve_free_fall,
    evolve_harmonic_gravity,
    ode_oracle,
    phase_difference_freefall,
    phase_difference_harmonic,
)
from catsim.gaussian import evolve_displaced_oscillator
from catsim.params import CONSTANTS, ParameterError

M = 1e-15
G_E = 9.81
HBAR = CONSTANTS.hbar


def hamiltonian_energy(s, m, omega, g_E):
    return s.p**2 / (2.0 * m) + 0.5 * m * omega**2 * s.x**2 + m * g_E * s.x


def action_phase(x0, p0, m, omega, t):
    """Action phase of the harmonic path from (x0, p0) in frame 2.

    phi = sin(2wt) (p0^2 - (m w x0)^2) / (4 m w hbar) - (p0 x0 / hbar) sin^2(wt)
    """
    return (math.sin(2.0 * omega * t) * (p0 * p0 - (m * omega * x0)**2)
            / (4.0 * m * omega * HBAR)
            - (p0 * x0 / HBAR) * math.sin(omega * t)**2)


def test_equilibrium_is_fixed_point():
    omega = 2.0
    s0 = PhaseSpacePoint(-G_E / omega**2, 0.0)
    s1 = evolve_harmonic_gravity(s0, M, omega, G_E, 0.7)
    assert s1.x == pytest.approx(s0.x, rel=1e-12)
    assert s1.p == pytest.approx(0.0, abs=1e-25)


def test_period_returns_initial():
    omega = 3.0
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    s1 = evolve_harmonic_gravity(s0, M, omega, G_E, 2.0 * math.pi / omega)
    assert s1.x == pytest.approx(s0.x, rel=1e-12)
    assert s1.p == pytest.approx(s0.p, rel=1e-9, abs=1e-30)


def test_energy_conserved_along_exact_solution():
    omega = 2.0
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    e0 = hamiltonian_energy(s0, M, omega, G_E)
    for t in (0.1, 0.5, 1.3, 2.9):
        st_ = evolve_harmonic_gravity(s0, M, omega, G_E, t)
        e = hamiltonian_energy(st_, M, omega, G_E)
        assert e == pytest.approx(e0, rel=1e-12)


def test_free_fall_kinematics():
    s0 = PhaseSpacePoint(1.0, 2e-16)
    s1 = evolve_free_fall(s0, M, G_E, 3.0)
    assert s1.x == pytest.approx(1.0 + (2e-16 / M) * 3.0 - 0.5 * G_E * 9.0)
    assert s1.p == pytest.approx(2e-16 - M * G_E * 3.0)


def test_rk4_matches_closed_form():
    omega = 2.0
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    spec = TimeDependentTrapSpec.constant(M, omega, G_E)
    t = 2.0 * math.pi / omega
    num = ode_oracle(s0, spec, t, dt=t / 20000)
    ref = evolve_harmonic_gravity(s0, M, omega, G_E, t)
    scale = abs(s0.x) + G_E / omega**2
    assert abs(num.x - ref.x) / scale < 1e-9
    assert abs(num.p - ref.p) / (M * omega * scale) < 1e-9


def test_rk4_step_guard():
    spec = TimeDependentTrapSpec.constant(M, 100.0, G_E)
    with pytest.raises(ParameterError, match="dt"):
        ode_oracle(PhaseSpacePoint(0.0, 0.0), spec, 1.0, dt=0.01)
    with pytest.raises(ParameterError, match="dt"):
        ode_oracle(PhaseSpacePoint(0.0, 0.0), spec, 1.0, dt=0.0)


@pytest.mark.parametrize("t, dt, name", [
    (1.0, math.nan, "dt"), (math.nan, 1e-3, "t"), (math.inf, 1e-3, "t"),
    (-1.0, 1e-3, "t")])
def test_rk4_refuses_nan_and_infinite_times(t, dt, name):
    """A NaN dt or a NaN, infinite or negative t is refused by name, not
    left to fail later in the step count or, for t < 0, to skip both
    segments and return the initial point."""
    spec = TimeDependentTrapSpec.constant(M, 1.0, G_E)
    with pytest.raises(ParameterError, match=rf"^{name} must be"):
        ode_oracle(PhaseSpacePoint(0.0, 0.0), spec, t, dt)


def test_rk4_at_zero_time_is_the_identity():
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    spec = TimeDependentTrapSpec.constant(M, 1.0, G_E)
    assert ode_oracle(s0, spec, 0.0, 1e-3) == s0


def _rk4_loop(x, p, m, omega, accel, duration, n):
    """Reference: n classical RK4 steps of x'' = -w^2 x - accel, stage by
    stage in a Python loop."""
    h = duration / n
    w2 = omega * omega
    for _ in range(n):
        k1x = p / m
        k1p = -m * (w2 * x + accel)
        k2x = (p + 0.5 * h * k1p) / m
        k2p = -m * (w2 * (x + 0.5 * h * k1x) + accel)
        k3x = (p + 0.5 * h * k2p) / m
        k3p = -m * (w2 * (x + 0.5 * h * k2x) + accel)
        k4x = (p + h * k3p) / m
        k4p = -m * (w2 * (x + h * k3x) + accel)
        x += h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        p += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return x, p


def _assert_close(num, x, p, omega, accel):
    scale_x = 1e-6 + accel / omega**2
    assert abs(num.x - x) / scale_x < 1e-12
    assert abs(num.p - p) / (M * omega * scale_x) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_ode_oracle_matches_stepwise_rk4(n):
    """The squared one-step map takes the same n steps as the loop."""
    omega, h = 2.0, 0.05             # below the dt guard 2 pi / (50 omega)
    t = n * h
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    spec = TimeDependentTrapSpec.constant(M, omega, G_E)
    # dt just above t/n makes ode_oracle take exactly n steps
    num = ode_oracle(s0, spec, t, dt=h * (1 + 1e-9))
    _assert_close(num, *_rk4_loop(s0.x, s0.p, M, omega, G_E, t, n),
                  omega, G_E)


def test_ode_oracle_matches_stepwise_rk4_through_switch():
    spec = TimeDependentTrapSpec.sudden_quench(M, 2.0, 0.5, G_E,
                                               switch_time=0.4)
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    # coarse steps, so that one step more or less would show: 8 + 12
    num = ode_oracle(s0, spec, 1.0, dt=0.0501)
    x, p = _rk4_loop(s0.x, s0.p, M, 2.0, 0.0, 0.4, 8)
    _assert_close(num, *_rk4_loop(x, p, M, 0.5, G_E, 0.6, 12), 0.5, G_E)


@pytest.mark.parametrize("switch", [1.0, 1.5, math.inf, 0.0, -0.3])
def test_switch_outside_the_run_is_one_trap(switch):
    """A switch at or after t runs the initial trap throughout, one at or
    below 0 the final trap, exactly as a constant trap would."""
    spec = TimeDependentTrapSpec.sudden_quench(M, 2.0, 0.5, G_E,
                                               switch_time=switch)
    omega, accel = (2.0, 0.0) if switch >= 1.0 else (0.5, G_E)
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    assert (ode_oracle(s0, spec, 1.0, dt=0.0501)
            == ode_oracle(s0, TimeDependentTrapSpec.constant(M, omega, accel),
                          1.0, dt=0.0501))


def test_rk4_through_switch():
    spec = TimeDependentTrapSpec.sudden_quench(M, 2.0, 0.5, G_E,
                                               switch_time=0.4)
    s0 = PhaseSpacePoint(1e-6, 0.0)
    num = ode_oracle(s0, spec, 1.0, dt=1e-5)
    mid = evolve_harmonic_gravity(s0, M, 2.0, 0.0, 0.4)
    ref = evolve_harmonic_gravity(mid, M, 0.5, G_E, 0.6)
    scale = abs(s0.x) + G_E / 0.5**2
    assert abs(num.x - ref.x) / scale < 1e-9


def test_mode_exact_matches_phase_space():
    """The quantum mode amplitude reproduces the classical trajectory."""
    omega = 2.0
    # X = x / delta_x and P = p / delta_p at the mode scales of (M, omega)
    delta_x = math.sqrt(HBAR / (2.0 * M * omega))
    delta_p = math.sqrt(HBAR * M * omega / 2.0)
    s0 = PhaseSpacePoint(1e-6, 2e-21)
    a0 = (s0.x / delta_x + 1j * s0.p / delta_p) / 2.0
    g = G_E * math.sqrt(M / (2.0 * HBAR * omega))
    for t in (0.3, 1.1):
        a_t = evolve_displaced_oscillator(a0, omega, g, t)[0]
        ref = evolve_harmonic_gravity(s0, M, omega, G_E, t)
        assert a_t.real * 2.0 == pytest.approx(ref.x / delta_x, rel=1e-9)
        assert a_t.imag * 2.0 == pytest.approx(ref.p / delta_p, rel=1e-9)


def test_phase_difference_short_time_equals_freefall():
    omega, dx = 5e-6, 1e-14
    x20 = G_E / omega**2
    t = 1e-3
    harm = phase_difference_harmonic(x20, 0.0, dx, M, omega, t)
    grav = phase_difference_freefall(dx, M, G_E, t)
    assert harm == pytest.approx(grav, rel=1e-8)


def test_phase_difference_relative_error_identity():
    omega, dx = 5e-6, 1e-14
    x20 = G_E / omega**2
    for frac in (0.05, 0.3, 0.7):
        t = frac * 2.0 * math.pi / omega
        harm = phase_difference_harmonic(x20, 0.0, dx, M, omega, t)
        grav = phase_difference_freefall(dx, M, G_E, t)
        rel = 1.0 - harm / grav
        assert rel == pytest.approx(
            1.0 - math.sin(2.0 * omega * t) / (2.0 * omega * t), abs=1e-9)


def test_phase_difference_from_action_phases():
    """The closed-form difference equals the difference of action phases."""
    omega, dx = 2.0, 1e-9
    x20, p20 = 1e-6, 2e-21
    t = 0.8
    lo = action_phase(x20, p20, M, omega, t)
    hi = action_phase(x20 + dx, p20, M, omega, t)
    direct = phase_difference_harmonic(x20, p20, dx, M, omega, t)
    assert direct == pytest.approx(-(hi - lo), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-1e-3, 1e-3),
    p=st.floats(-1e-18, 1e-18),
    omega=st.floats(0.1, 50.0),
    t=st.floats(0.0, 10.0),
)
def test_energy_conservation_property(x, p, omega, t):
    s0 = PhaseSpacePoint(x, p)
    s1 = evolve_harmonic_gravity(s0, M, omega, G_E, t)
    e0 = hamiltonian_energy(s0, M, omega, G_E)
    e1 = hamiltonian_energy(s1, M, omega, G_E)
    scale = abs(e0) + M * G_E**2 / omega**2
    assert abs(e1 - e0) <= 1e-9 * scale

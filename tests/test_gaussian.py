import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim.gaussian import (
    branch_phase_difference,
    commute_squeeze_displacement,
    evolve_displaced_oscillator,
    evolve_quench,
    quench_linear_map,
    quench_params,
)
from catsim import fock_oracle
from catsim.params import ParameterError

complexes = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def test_displaced_oscillator_free_evolution():
    # g = 0: pure rotation, no phase
    alpha, phase = evolve_displaced_oscillator(1.0 + 1.0j, 2.0, 0.0, 0.4)
    assert alpha == pytest.approx((1.0 + 1.0j) * cmath.exp(-0.8j), rel=1e-12)
    assert phase == pytest.approx(0.0, abs=1e-12)


def test_displaced_oscillator_period():
    omega, g, a = 2.0, 0.3, 0.7 - 0.4j
    t = 2.0 * math.pi / omega
    alpha, phase = evolve_displaced_oscillator(a, omega, g, t)
    assert alpha == pytest.approx(a, rel=1e-12)
    # over one period only the state-independent phase survives
    assert phase == pytest.approx((g / omega) ** 2 * omega * t, rel=1e-9)


def test_displaced_oscillator_composes():
    """Evolving t1 then t2 equals evolving t1 + t2 (group property)."""
    omega, g = 1.3, 0.4
    a0 = 0.8 + 0.1j
    mid, first = evolve_displaced_oscillator(a0, omega, g, 0.3)
    one, second = evolve_displaced_oscillator(mid, omega, g, 0.5)
    two, whole = evolve_displaced_oscillator(a0, omega, g, 0.8)
    assert one == pytest.approx(two, rel=1e-12)
    # the phases of the two steps add up to the whole evolution's
    assert abs(math.remainder(first + second - whole, math.tau)) < 1e-12


def test_quadratic_expansion_matches_exact_at_small_t():
    """At omega2 = omega1 the quench is the exact displaced-oscillator
    evolution, less that evolution's alpha-independent phase."""
    omega, g, t = 1.0, 0.3, 1e-3
    a0 = 0.5 - 0.7j
    alpha, phase = evolve_quench(a0, omega, omega, g, t)
    exact, exact_phase = evolve_displaced_oscillator(a0, omega, g, t)
    common = (g / omega) ** 2 * (omega * t - math.sin(omega * t))
    assert abs(alpha - exact) < 1e-15
    assert abs(phase + common - exact_phase) < 1e-15


def test_quench_phase_coefficients():
    """The phase gained is Im(gamma* d), gamma = c1 a + c2 a*, which is
    -g1 S Re(a) - w1 g1 C Im(a) with S = sin(s)/w2, C = (1 - cos s)/w2^2:
    at a = 1 and a = 1j it reads the two coefficients."""
    omega1, omega2, g1, t = 1.0, 0.25, 0.15, 2.0
    s = omega2 * t
    _, _, d = quench_linear_map(omega1, omega2, g1, t)
    _, along_re = evolve_quench(1.0 + 0.0j, omega1, omega2, g1, t)
    _, along_im = evolve_quench(1j, omega1, omega2, g1, t)
    assert along_re == pytest.approx(-g1 * math.sin(s) / omega2, rel=1e-14)
    assert along_im == pytest.approx(-omega1 * g1 * (1.0 - math.cos(s))
                                     / omega2**2, rel=1e-14)
    for a in (2.0 + 1.0j, -0.3 + 0.8j):
        alpha, phase = evolve_quench(a, omega1, omega2, g1, t)
        gamma = alpha - d
        assert phase == pytest.approx((gamma.conjugate() * d).imag, rel=1e-14)
        assert phase == pytest.approx(
            along_re * a.real + along_im * a.imag, rel=1e-14)
    assert evolve_quench(0.0j, omega1, omega2, g1, t) == (d, 0.0)


def test_quench_amplitude_composes():
    """The map is the exact Heisenberg map of one Hamiltonian, so falling
    t1 then t2 moves the amplitude as falling t1 + t2 does."""
    omega1, omega2, g2, a = 1.0, 0.5, 0.2, 0.7 - 0.2j
    once, _ = evolve_quench(a, omega1, omega2, g2, 0.8)
    mid, _ = evolve_quench(a, omega1, omega2, g2, 0.3)
    twice, _ = evolve_quench(mid, omega1, omega2, g2, 0.5)
    assert abs(twice - once) < 1e-15
def test_quench_params_at_zero_time():
    qp = quench_params(1.0, 0.5, 0.3, 0.0)
    assert qp.z == 0.0
    assert abs(qp.epsilon) == 0.0
    assert qp.phi == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t,z,epsilon,phi", [
    (0.05, 0.0005856782065557786 + 0.018737797925710235j,
     -4.420481787648992e-05 - 0.007072402482917024j, -0.031246339120413916),
    (0.4, 0.03646452629074165 + 0.14390812452571092j,
     -0.0028715983787521047 - 0.05724039993485995j, -0.24816439016497827),
])
def test_quench_params_match_the_squeeze_relation(t, z, epsilon, phi):
    """Read off the map, the gates are those of the squeeze relation
    e^{i theta} tanh|z| = (e^{-2is} - 1) tanh r / (1 - e^{-2is} tanh^2 r),
    r = ln(w2/w1)/2 and s = w2 t, at w1 = 1, w2 = 0.5 and g1 = 0.1 sqrt 2."""
    qp = quench_params(1.0, 0.5, 0.1 * math.sqrt(2.0), t)
    assert abs(qp.z - z) < 1e-14
    assert abs(qp.epsilon - epsilon) < 1e-14
    assert abs(qp.phi - phi) < 1e-14


def test_quench_params_domain():
    with pytest.raises(ParameterError):
        quench_params(0.0, 0.5, 0.1, 1.0)


def test_commute_squeeze_displacement_real_squeeze():
    # real z: gamma = xi cosh|z| + xi* sinh|z|
    z, xi = 0.4, 0.7 - 0.2j
    gamma = commute_squeeze_displacement(z, xi)
    assert gamma == pytest.approx(
        xi * math.cosh(z) + xi.conjugate() * math.sinh(z), rel=1e-14)
    assert commute_squeeze_displacement(0.0, xi) == xi


def test_quench_reduces_to_displaced_oscillator_at_equal_frequencies():
    """At omega2 = omega1 the map is a e^{-iwt} + (g/w)(e^{-iwt} - 1) at
    any t."""
    omega, g = 0.7, 0.3
    for t in (0.01, 1.0, 3.0):
        rot = cmath.exp(-1j * omega * t)
        c1, c2, d = quench_linear_map(omega, omega, g, t)
        assert c1 == pytest.approx(rot, rel=1e-15)
        assert c2 == 0.0
        assert d == pytest.approx((g / omega) * (rot - 1.0), rel=1e-14)


def test_quench_linear_map_coefficients():
    """c1, c2 and the drift d at s = w2 t = 0.5, and |c1|^2 - |c2|^2 = 1:
    the map is symplectic at every t."""
    omega1, omega2, g1, t = 1.0, 0.5, 0.15, 1.0
    s = omega2 * t
    S, C = math.sin(s) / omega2, (1.0 - math.cos(s)) / omega2**2
    c1, c2, d = quench_linear_map(omega1, omega2, g1, t)
    assert c1 == pytest.approx(math.cos(s) - 1j * (
        omega1**2 + omega2**2) * S / (2.0 * omega1), rel=1e-15)
    assert c2 == pytest.approx(
        1j * (omega1**2 - omega2**2) * S / (2.0 * omega1), rel=1e-15)
    assert d == pytest.approx(-omega1 * g1 * C - 1j * g1 * S, rel=1e-14)
    for t in (1e-6, 0.01, 1.0, 5.0):
        c1, c2, _ = quench_linear_map(omega1, omega2, g1, t)
        assert abs(abs(c1) ** 2 - abs(c2) ** 2 - 1.0) < 1e-14


@pytest.mark.parametrize("omega1,omega2,g1,t", [
    (1.0, 0.5, math.sqrt(0.5) * 0.2, 0.1),
    (1.0, 0.5, math.sqrt(0.5) * 0.2, 1.0),
    (1.0, 0.5, math.sqrt(0.5) * 0.2, 2.0),
    (0.7, 2.5, 0.3, 0.4),               # a stiffer second trap
    (2e6, 2e3, 9.5e12, 1e-6),           # s = 2e-3: 1 - cos s cancels
    (1.0, 0.5, 0.0, 1.0),               # no gravity: d = 0
])
def test_plain_closing_separation_is_a_real_multiple_of_the_drift(
        omega1, omega2, g1, t):
    """The plain closing leaves delta = (c1 + c2 - 1) beta.  With s = w2 t,
    S = sin(s)/w2 and C = (1 - cos s)/w2^2 = 2 sin(s/2)^2/w2^2,
    c1 + c2 - 1 = -(w2^2/w1)(w1 C + i S) and d = -g1 (w1 C + i S), a real
    multiple of it: the readout's overlap phase Im(a_u* delta), a_u = d, is
    0.  The S, C form keeps the digits a naive c1 + c2 - 1 loses at small s."""
    s = omega2 * t
    S, C = math.sin(s) / omega2, 2.0 * (math.sin(s / 2) / omega2) ** 2
    c1, c2, d = quench_linear_map(omega1, omega2, g1, t)
    shift = -(omega2**2 / omega1) * (omega1 * C + 1j * S)
    assert abs(shift - (c1 + c2 - 1.0)) <= 4e-16 * abs(c1)
    assert abs((d.conjugate() * shift).imag) <= 4e-16 * abs(d) * abs(shift)


def test_quench_matches_exact_route():
    """The quench's amplitude is the mean <a> of the Fock-propagated quench
    Hamiltonian, and its phase the overlap phase less alpha = 0's."""
    omega1, omega2, g1, t, dim = 1.0, 0.5, 0.15, 0.7, 60
    bands = fock_oracle.quadratic_hamiltonian(omega1, omega2, g1, dim)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    phases = []
    for a in (0.0j, 0.4 + 0.2j):
        alpha, phase = evolve_quench(a, omega1, omega2, g1, t)
        psi = fock_oracle.evolve(
            bands, fock_oracle.coherent_to_fock(a, dim), t)
        assert abs(alpha - np.vdot(psi, lower @ psi)) < 1e-14
        phases.append(fock_oracle.overlap_phase(
            fock_oracle.coherent_to_fock(alpha, dim), psi) - phase)
    assert abs(phases[1] - phases[0]) < 1e-14


def test_branch_phase_difference_values():
    beta, g, t, omega2 = 2.0, 9.55e12, 1e-6, 5e-6
    phi, phi3 = branch_phase_difference(beta, g, t, omega2)
    assert phi == pytest.approx(g * t * beta, rel=1e-15)
    assert phi3 / phi == pytest.approx(-(omega2 * t) ** 2 / 6.0, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(alpha=complexes, omega=st.floats(0.1, 10.0),
       g=st.floats(0.0, 2.0), t=st.floats(0.0, 20.0))
def test_evolution_preserves_weight_modulus(alpha, omega, g, t):
    """The displaced oscillator multiplies a weight by a unit phase: the
    phase it returns is a finite real number."""
    _, phase = evolve_displaced_oscillator(alpha, omega, g, t)
    assert type(phase) is float
    assert math.isfinite(phase)


@settings(max_examples=60, deadline=None)
@given(alpha=complexes, t=st.floats(1e-5, 0.02))
def test_quench_weight_modulus(alpha, t):
    """The quench multiplies a weight by a unit phase: the phase it returns
    is a real number."""
    _, phase = evolve_quench(alpha, 1.0, 0.5, 0.2, t)
    assert type(phase) is float
    assert abs(abs(cmath.exp(1j * phase)) - 1.0) < 1e-12

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim.gaussian import (
    CoherentBranch,
    branch_phase_difference,
    commute_squeeze_displacement,
    displace_compose,
    evolve_displaced_oscillator,
    evolve_quench,
    evolve_quench_exact,
    quench_linear_map,
    quench_params,
)
from catsim.params import ParameterError

complexes = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def test_displace_compose_rule():
    a, b = 1.0 + 2.0j, -0.5 + 0.3j
    comp = displace_compose(a, b)
    assert comp.gamma == a + b
    assert comp.phase == pytest.approx((a * b.conjugate()).imag, rel=1e-15)


def test_displace_compose_antisymmetry():
    a, b = 0.7 - 1.1j, 2.0 + 0.4j
    assert displace_compose(a, b).phase == pytest.approx(
        -displace_compose(b, a).phase, rel=1e-15)


def test_displaced_oscillator_free_evolution():
    # g = 0: pure rotation, no phase
    br = evolve_displaced_oscillator(CoherentBranch(1.0 + 1.0j), 2.0, 0.0, 0.4)
    assert br.alpha == pytest.approx((1.0 + 1.0j) * cmath.exp(-0.8j), rel=1e-12)
    assert br.weight == pytest.approx(1.0 + 0.0j, rel=1e-12)


def test_displaced_oscillator_period():
    omega, g, a = 2.0, 0.3, 0.7 - 0.4j
    t = 2.0 * math.pi / omega
    br = evolve_displaced_oscillator(CoherentBranch(a), omega, g, t)
    assert br.alpha == pytest.approx(a, rel=1e-12)
    # over one period only the state-independent phase survives
    assert cmath.phase(br.weight) == pytest.approx(
        ((g / omega) ** 2 * omega * t) % (2.0 * math.pi), rel=1e-9)


def test_displaced_oscillator_composes():
    """Evolving t1 then t2 equals evolving t1 + t2 (group property)."""
    omega, g = 1.3, 0.4
    b0 = CoherentBranch(0.8 + 0.1j)
    one = evolve_displaced_oscillator(
        evolve_displaced_oscillator(b0, omega, g, 0.3), omega, g, 0.5)
    two = evolve_displaced_oscillator(b0, omega, g, 0.8)
    assert one.alpha == pytest.approx(two.alpha, rel=1e-12)
    assert one.weight == pytest.approx(two.weight, rel=1e-12)


def test_quadratic_expansion_matches_exact_at_small_t():
    """At omega2 = omega1 the quench is the second-order expansion of the
    exact displaced-oscillator evolution."""
    omega, g, t = 1.0, 0.3, 1e-3
    b0 = CoherentBranch(0.5 - 0.7j)
    alpha, phase = evolve_quench(b0.alpha, omega, omega, g, t)
    exact = evolve_displaced_oscillator(b0, omega, g, t)
    assert abs(alpha - exact.alpha) < 5e-10
    assert abs(cmath.phase(cmath.exp(1j * phase) / exact.weight)) < 5e-10


def test_quadratic_expansion_phases():
    """Boost -Re(a) g1 t plus translation -Im(a) w1 g1 t^2/2, and the
    source term -i g1 t of the amplitude."""
    omega1, omega2, g2, t = 1.0, 0.25, 0.3, 0.01
    g1 = math.sqrt(omega2 / omega1) * g2
    a = 2.0 + 1.0j
    _, phase = evolve_quench(a, omega1, omega2, g2, t)
    boost, translation = -a.real * g1 * t, -a.imag * omega1 * g1 * t * t / 2.0
    assert phase == pytest.approx(boost + translation, rel=1e-14)
    source, _ = evolve_quench(0.0j, omega1, omega2, g2, t)
    assert source == pytest.approx(-1j * g1 * t - 0.5 * omega1 * g1 * t * t,
                                   rel=1e-15)


def test_quadratic_expansion_converges_cubically():
    errs = []
    for t in (0.02, 0.01):
        b0 = CoherentBranch(0.7 - 0.2j)
        approx, _ = evolve_quench(b0.alpha, 1.0, 1.0, 0.3, t)
        exact = evolve_displaced_oscillator(b0, 1.0, 0.3, t)
        errs.append(abs(approx - exact.alpha))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.15)


def test_quench_params_at_zero_time():
    qp = quench_params(1.0, 0.5, 0.3, 0.0)
    assert qp.z == 0.0
    assert abs(qp.epsilon) == 0.0
    assert qp.phi == pytest.approx(0.0, abs=1e-15)
    assert qp.r == pytest.approx(0.5 * math.log(0.5), rel=1e-15)


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


def test_quench_reduces_to_quadratic_at_equal_frequencies():
    """At omega2 = omega1 the map is a(1 - iwt - w^2t^2/2) - igt - wgt^2/2."""
    omega, g, t = 1.0, 0.3, 0.01
    a = 0.5 - 0.7j
    quench, _ = evolve_quench(a, omega, omega, g, t)
    wt = omega * t
    assert quench == pytest.approx(
        a * (1.0 - 1j * wt - 0.5 * wt * wt) - 1j * g * t
        - 0.5 * omega * g * t * t, rel=1e-14)
    assert quench_linear_map(omega, omega, t)[1] == 0.0


def test_quench_linear_map_coefficients():
    omega1, omega2, t = 1.0, 0.5, 0.01
    c1, c2 = quench_linear_map(omega1, omega2, t)
    assert c1 == pytest.approx(
        1.0 - 1j * (omega1**2 + omega2**2) * t / (2.0 * omega1)
        - 0.5 * omega2**2 * t * t, rel=1e-15)
    assert c2 == pytest.approx(
        1j * (omega1**2 - omega2**2) * t / (2.0 * omega1), rel=1e-15)


def test_quench_matches_exact_route():
    omega1, omega2, g2, t = 1.0, 0.5, 0.2, 0.005
    b0 = CoherentBranch(0.4 + 0.2j)
    alpha, phase = evolve_quench(b0.alpha, omega1, omega2, g2, t)
    exact = evolve_quench_exact(b0, omega1, omega2, g2, t)
    assert abs(alpha - exact.alpha) < 1e-6
    assert abs(cmath.phase(cmath.exp(1j * phase) / exact.weight)) < 1e-6


def test_quench_over_arrays_matches_scalars():
    """The one quench form runs on arrays, bit for bit."""
    alphas = np.array([0.0j, 1.5 - 2.0j, -3e3 + 1e2j])
    batch_alpha, batch_phase = evolve_quench(alphas, 1.0, 0.5, 0.2, 0.01)
    for i, a in enumerate(alphas.tolist()):
        alpha, phase = evolve_quench(a, 1.0, 0.5, 0.2, 0.01)
        assert batch_alpha[i] == pytest.approx(alpha, rel=1e-15)
        assert batch_phase[i] == phase


def test_branch_phase_difference_values():
    beta, g, t, omega2 = 2.0, 9.55e12, 1e-6, 5e-6
    phi, phi3 = branch_phase_difference(beta, g, t, omega2)
    assert phi == pytest.approx(g * t * beta, rel=1e-15)
    assert phi3 / phi == pytest.approx(-(omega2 * t) ** 2 / 6.0, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(alpha=complexes, omega=st.floats(0.1, 10.0),
       g=st.floats(0.0, 2.0), t=st.floats(0.0, 20.0))
def test_evolution_preserves_weight_modulus(alpha, omega, g, t):
    out = evolve_displaced_oscillator(CoherentBranch(alpha), omega, g, t)
    assert abs(abs(out.weight) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(alpha=complexes, t=st.floats(1e-5, 0.02))
def test_quench_weight_modulus(alpha, t):
    """The quench multiplies a weight by a unit phase: the phase it returns
    is a real number."""
    _, phase = evolve_quench(alpha, 1.0, 0.5, 0.2, t)
    assert type(phase) is float
    assert abs(abs(cmath.exp(1j * phase)) - 1.0) < 1e-12

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catsim.gaussian import CoherentBranch
from catsim.protocol import (
    _ARRAY_OPS,
    _kernel,
    Coherent,
    ConstraintViolation,
    FreeFallResult,
    HybridState,
    HyperfineLevel,
    ProtocolError,
    ThermalSample,
    TrapSchedule,
    beam_amplitude,
    displacement_beam,
    free_fall_segment,
    pi_half_pulse,
    pi_pulse,
    readout,
    run_protocol,
)

DOWN, UP = HyperfineLevel.DOWN, HyperfineLevel.UP


def two_branch(w_down, w_up, a_down=0.0j, a_up=0.0j):
    return HybridState((
        (DOWN, CoherentBranch(a_down, w_down)),
        (UP, CoherentBranch(a_up, w_up)),
    ))


def test_state_validation():
    with pytest.raises(ProtocolError):
        HybridState(())
    with pytest.raises(ProtocolError):
        HybridState(((DOWN, CoherentBranch(0.0j)),
                     (DOWN, CoherentBranch(1.0 + 0.0j))))


def test_pi_half_splits():
    s = pi_half_pulse(HybridState.pure(DOWN, 1.0 + 0.5j))
    assert len(s.branches) == 2
    for _, br in s.branches:
        assert br.alpha == 1.0 + 0.5j
        assert br.weight == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.total_weight() == pytest.approx(1.0, abs=1e-12)


def test_pi_half_twice_is_swap():
    s = pi_half_pulse(pi_half_pulse(HybridState.pure(DOWN, 0.3j)))
    assert len(s.branches) == 1
    level, br = s.branches[0]
    assert level is UP
    assert abs(abs(br.weight) - 1.0) < 1e-12


def test_pi_half_inverse_closes():
    s = pi_half_pulse(HybridState.pure(DOWN, 0.0j))
    back = pi_half_pulse(s, inverse=True)
    assert len(back.branches) == 1
    assert back.branches[0][0] is DOWN


def test_pi_pulse_exchanges():
    s = pi_pulse(HybridState.pure(DOWN, 0.2j))
    assert s.branches[0][0] is UP
    s4 = s0 = two_branch(0.6, 0.8j, 1.0 + 0.0j, -1.0j)
    for _ in range(4):
        s4 = pi_pulse(s4)
    for (l0, b0), (l4, b4) in zip(s0.branches, s4.branches):
        assert l0 is l4
        assert b4.weight == pytest.approx(b0.weight, rel=1e-12)
        assert b4.alpha == b0.alpha


def test_pulse_laser_phase():
    """A constant optical phase rides on the level-transfer amplitudes and
    cancels between an opening pulse and its inverse."""
    phi = 0.7
    s = pi_half_pulse(HybridState.pure(DOWN, 0.0j), laser_phase=phi)
    assert cmath.phase(s.get(UP).weight) == pytest.approx(phi, abs=1e-12)
    assert cmath.phase(s.get(DOWN).weight) == pytest.approx(0.0, abs=1e-12)
    closed = pi_half_pulse(s, inverse=True, laser_phase=phi)
    assert len(closed.branches) == 1
    assert closed.branches[0][0] is DOWN


def test_pi_pulse_moves_motion_with_weight():
    s = pi_pulse(two_branch(0.6, 0.8, a_down=1.0 + 0.0j, a_up=2.0j))
    assert s.get(UP).alpha == 1.0 + 0.0j
    assert s.get(DOWN).alpha == 2.0j
    assert s.get(DOWN).weight == pytest.approx(-0.8)


def test_displacement_beam_selective():
    s0 = pi_half_pulse(HybridState.pure(DOWN, 1.0 + 0.0j))
    s = displacement_beam(s0, 0.5, DOWN)
    assert s.get(DOWN).alpha == 1.5 + 0.0j
    assert s.get(UP).alpha == 1.0 + 0.0j
    # composition phase Im(beta alpha*) carried on the displaced branch
    assert cmath.phase(s.get(DOWN).weight) == pytest.approx(
        (0.5 * (1.0 - 0.0j)).imag, abs=1e-15)


def test_displacement_beam_zero_is_identity():
    s0 = pi_half_pulse(HybridState.pure(DOWN, 1.0 + 2.0j))
    s = displacement_beam(s0, 0.0, DOWN)
    assert s == s0


def test_displacement_beam_warns_outside_lamb_dicke():
    s0 = HybridState.pure(DOWN, 0.0j)
    with pytest.warns(UserWarning, match="Lamb-Dicke"):
        displacement_beam(s0, 0.1, DOWN, eta=0.65)


def test_recombination_mismatch_raises():
    s = two_branch(1 / math.sqrt(2), 1 / math.sqrt(2),
                   a_down=0.0j, a_up=1.0 + 0.0j)
    with pytest.raises(ProtocolError, match="recombine"):
        pi_half_pulse(s)


def test_trap_schedule_segments(discussion):
    sched = TrapSchedule.from_scenario(discussion)
    assert len(sched.segments) == 3
    assert sched.fall.omega_n_radps == pytest.approx(5e-6)
    assert sched.fall.force_N == 0.0
    assert sched.fall.duration_s == pytest.approx(1e-6)


def test_free_fall_requires_released_trap(discussion):
    heavy = replace(discussion,
                    protocol=replace(discussion.protocol,
                                     freefall_force_N=9.81e-15))
    s = HybridState.pure(DOWN, 0.0j)
    with pytest.raises(ProtocolError, match="free-fall"):
        free_fall_segment(s, heavy, 5e-6, 1e-6)


def test_free_fall_zero_separation_zero_phase(discussion):
    s = pi_half_pulse(HybridState.pure(DOWN, 0.0j))
    res = free_fall_segment(s, discussion, 5e-6, 1e-6)
    assert isinstance(res, FreeFallResult)
    assert res.relative_phase == pytest.approx(0.0, abs=1e-15)


def test_free_fall_discussion_phase(discussion):
    beta = beam_amplitude(discussion)
    s = displacement_beam(pi_half_pulse(HybridState.pure(DOWN, 0.0j)),
                          beta, DOWN)
    res = free_fall_segment(s, discussion, 5e-6, 1e-6)
    assert res.relative_phase == pytest.approx(0.930, abs=0.001)


def test_free_fall_single_branch_has_no_relative_phase(discussion):
    res = free_fall_segment(HybridState.pure(DOWN, 0.0j),
                            discussion, 5e-6, 1e-6)
    assert res.relative_phase is None


def test_readout_extremes():
    assert readout(two_branch(1 / math.sqrt(2), 1 / math.sqrt(2))
                   ).p_down == pytest.approx(1.0, abs=1e-12)
    assert readout(two_branch(-1 / math.sqrt(2), 1 / math.sqrt(2))
                   ).p_down == pytest.approx(0.0, abs=1e-12)


def test_readout_phase_value():
    phi = 0.930
    s = two_branch(cmath.exp(-1j * phi) / math.sqrt(2), 1 / math.sqrt(2))
    r = readout(s)
    assert r.phi_grav == pytest.approx(phi, abs=1e-12)
    assert r.p_down == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-12)
    assert not r.reduced_visibility


def test_readout_flags_reduced_visibility():
    s = two_branch(1 / math.sqrt(2), 1 / math.sqrt(2),
                   a_down=0.0j, a_up=1.0 + 0.0j)
    r = readout(s)
    assert r.reduced_visibility
    assert r.visibility == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert r.p_down == pytest.approx(0.5 * (1.0 + math.exp(-0.5)), abs=1e-12)


def test_run_protocol_trivial(discussion):
    res = run_protocol(discussion, Coherent(0), beta=0.0)
    assert res.p_down == pytest.approx(1.0, abs=1e-12)
    assert res.phi_grav == pytest.approx(0.0, abs=1e-12)
    assert res.residual == 0.0


def test_run_protocol_discussion(discussion):
    res = run_protocol(discussion, Coherent(1 + 1j))
    assert res.p_down == pytest.approx(0.799, abs=0.001)
    assert res.phi_grav == pytest.approx(0.930, abs=0.001)
    assert res.residual < 1e-10
    assert res.visibility == pytest.approx(1.0, abs=1e-10)


def test_run_protocol_matches_hand_composition(discussion):
    """End-to-end run vs an explicit composition of the pulse operations."""
    beta = beam_amplitude(discussion)
    s = HybridState.pure(DOWN, 1.0 + 1.0j)
    s = pi_half_pulse(s)
    s = displacement_beam(s, beta, DOWN)
    fall = free_fall_segment(s, discussion, 5e-6, 1e-6)
    c1, c2 = fall.linear_map
    s = displacement_beam(fall.state, -(c1 + c2) * beta, DOWN)
    hand = readout(s)
    auto = run_protocol(discussion, Coherent(1 + 1j))
    assert auto.phi_grav == pytest.approx(hand.phi_grav, abs=1e-14)
    assert auto.p_down == pytest.approx(hand.p_down, abs=1e-14)


def test_run_protocol_logs_every_step(discussion):
    res = run_protocol(discussion, Coherent(0))
    labels = [rec.label for rec in res.log]
    assert labels == ["prepare", "pi_half", "displace", "free_fall",
                      "undisplace", "pi_half_close"]
    for rec in res.log:
        doc = rec.to_json_dict()
        assert set(doc) == {"step", "label", "branches"}


def test_run_protocol_alpha_independence(discussion):
    phis = [run_protocol(discussion, Coherent(a)).phi_grav
            for a in (0, 1, 2j, 1 + 1j)]
    assert max(phis) - min(phis) < 1e-10


def test_run_protocol_thermal_spread(discussion):
    dist = run_protocol(discussion, ThermalSample(10.0, 42, 200))
    assert len(dist.results) == 200
    assert float(np.std(dist.p_down_values)) < 1e-9
    spread = float(np.max(dist.phi_grav_values) - np.min(dist.phi_grav_values))
    assert spread < 1e-10


def test_run_protocol_thermal_seed_determinism(discussion):
    a = run_protocol(discussion, ThermalSample(5.0, 7, 20))
    b = run_protocol(discussion, ThermalSample(5.0, 7, 20))
    assert all(x.p_down == y.p_down
               for x, y in zip(a.results, b.results))


def test_run_protocol_constraint_violation(discussion):
    bad = replace(discussion,
                  trap=replace(discussion.trap,
                               paul_frequency_soft_radps=1e-3))
    with pytest.raises(ConstraintViolation, match="coupling_ceiling"):
        run_protocol(bad, Coherent(0))
    res = run_protocol(bad, Coherent(0), force=True)
    assert 0.0 <= res.p_down <= 1.0


def test_approximate_phase_mode_residual(discussion):
    res = run_protocol(discussion, Coherent(1 + 1j), exact_phase=False)
    # residual bounded by |beta| |1 - (c1 + c2)|, tiny at these parameters
    assert res.residual < 1e-10
    assert res.phi_grav == pytest.approx(0.930, abs=0.001)


def test_cubic_correction_is_negligible(discussion):
    base = run_protocol(discussion, Coherent(0))
    cubic = run_protocol(discussion, Coherent(0),
                         include_cubic_correction=True)
    assert abs(base.p_down - cubic.p_down) < 1e-20


def test_beam_amplitude_matches_superposition_size(discussion):
    from catsim.params import zero_point_motion
    beta = beam_amplitude(discussion)
    m = discussion.nanoparticle.mass_kg + discussion.atom.mass_kg
    delta1 = zero_point_motion(m, discussion.trap.paul_frequency_stiff_radps)
    assert 2.0 * delta1 * beta == pytest.approx(1e-14, rel=1e-12)


def _composed(scenario, alpha, beta):
    """One sample through the public step functions."""
    s = pi_half_pulse(HybridState.pure(DOWN, alpha))
    s = displacement_beam(s, beta, DOWN)
    fall = free_fall_segment(s, scenario,
                             scenario.trap.paul_frequency_soft_radps,
                             scenario.protocol.free_fall_duration_s)
    c1, c2 = fall.linear_map
    s = displacement_beam(fall.state, -(c1 + c2) * beta, DOWN)
    r = readout(s)
    return (r.phi_grav, r.p_down, r.visibility,
            abs(s.get(DOWN).alpha - s.get(UP).alpha))


# |beta| <= 6e-4 keeps phi_grav = 2 g1 t beta clear of the +-pi branch cut
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alphas=st.lists(st.complex_numbers(max_magnitude=10.0,
                                          allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=12),
       beta=st.floats(-6e-4, 6e-4))
def test_kernel_matches_step_functions(discussion, alphas, beta):
    (phi, p_down, vis, residual), _ = _kernel(
        discussion, np.array(alphas, complex), _ARRAY_OPS, beta,
        exact_phase=True, cubic=False)
    # the Scala et al. thermal insensitivity, over the whole batch
    assert np.max(phi) - np.min(phi) < 1e-10
    for i, alpha in enumerate(alphas):
        ref = _composed(discussion, alpha, beta)
        # branch weights carry phases ~ g1 t |alpha| ~ 1e4 rad
        assert abs(phi[i] - ref[0]) < 4e-12
        for got, want in zip((p_down[i], vis[i], residual[i]), ref[1:]):
            assert abs(got - want) < 1e-12
        scalar = run_protocol(discussion, Coherent(alpha), beta=beta)
        assert abs(scalar.phi_grav - phi[i]) < 4e-12
        for got, want in zip((scalar.p_down, scalar.visibility,
                              scalar.residual),
                             (p_down[i], vis[i], residual[i])):
            assert abs(got - want) < 1e-12


def test_run_protocol_warns_once_per_run(discussion):
    slow = replace(discussion, protocol=replace(
        discussion.protocol, free_fall_duration_s=4e4))   # omega2 dt = 0.2
    for scenario, expected in ((discussion, 0), (slow, 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(scenario, ThermalSample(10.0, 42, 200), force=True)
        messages = [str(w.message) for w in caught]
        assert sum("Lamb-Dicke" in m for m in messages) == 1
        assert sum("omega2*dt" in m for m in messages) == expected

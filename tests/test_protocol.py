import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catsim import fock_oracle
from catsim.feasibility import constraint_check
from catsim.gaussian import CoherentBranch, displace_compose, evolve_quench, \
    quench_linear_map
from catsim.params import (
    AtomSpec,
    ParameterError,
    DisplacementBeam,
    NanoparticleSpec,
    PhysicalConstants,
    PhysicalScenario,
    ProtocolTimings,
    TrapConfig,
    grav_coupling,
    replace,
    zero_point_motion,
)
from catsim.protocol import (
    _SCALAR_OPS,
    _kernel,
    PHASE_ROUNDING_LIMIT,
    RECOMBINE_TOL,
    Coherent,
    ConstraintViolation,
    ProtocolError,
    ThermalSample,
    beam_amplitude,
    run_protocol,
)

DOWN, UP = "down", "up"
# the kernel's (exp, phase, worst) over a 1-D array, as a thermal run builds it
ARRAY_OPS = (np.exp, np.angle, np.max)


def branches(record):
    """{level: CoherentBranch} of one step-log record."""
    return {b["level"]: CoherentBranch(complex(b["re_alpha"], b["im_alpha"]),
                                       complex(b["re_weight"], b["im_weight"]))
            for b in record["branches"]}


def relative_phase(record):
    b = branches(record)
    return cmath.phase(b[UP].weight * b[DOWN].weight.conjugate())


def preset_beta(scenario):
    """The beta run_protocol derives: the report's Delta x / (2 delta_R1)."""
    return beam_amplitude(scenario, constraint_check(scenario).delta_x_m)


def kernel_args(scenario, beta):
    """(beta, beta_back, couplings) as run_protocol passes them to _kernel
    for an exact closing phase."""
    omega1 = scenario.trap.paul_frequency_stiff_radps
    omega2 = scenario.trap.paul_frequency_soft_radps
    t = scenario.protocol.free_fall_duration_s
    m = scenario.nanoparticle.mass_kg + scenario.atom.mass_kg
    c1, c2 = quench_linear_map(omega1, omega2, t)
    return (beta, -(c1 * beta + c2 * beta),
            (omega1, omega2, grav_coupling(m, omega2, scenario.constants), t))


def unit_scenario(t=0.02):
    """hbar = m = omega1 = 1, omega2 = 1/2 and g1 = 5: small enough for a
    Fock basis, with w1 t, w2 t and g1 t beta all below one."""
    const = PhysicalConstants(hbar=1.0, c=1.0, g_E=5.0 * math.sqrt(2.0),
                              eps0=1.0, q_e=1.0)
    return PhysicalScenario(
        atom=AtomSpec(1e-7, 10.0, 1.0, 1.0),
        nanoparticle=NanoparticleSpec(1.0, 1.0),
        trap=TrapConfig(
            paul_frequency_stiff_radps=1.0, paul_frequency_soft_radps=0.5,
            wavelength_m=1.0, intensity_W_per_m2=1.0, detuning_radps=1.0,
            raman_detuning_radps=1.0,
            raman_wavevector_radpm=0.1,         # eta = 0.1, no warning
            separation_m=1.0, radiation_pressure_force_N=0.0),
        beam=DisplacementBeam(1.0, 1.0),
        protocol=ProtocolTimings(t),
        constants=const)


def test_pi_half_splits(discussion):
    res = run_protocol(discussion, Coherent(1.0 + 0.5j))
    pi_half = res.log[1]
    assert pi_half["label"] == "pi_half"
    assert set(branches(pi_half)) == {DOWN, UP}
    for br in branches(pi_half).values():
        assert br.alpha == 1.0 + 0.5j
        assert br.weight == pytest.approx(1.0 / math.sqrt(2.0))


def test_pi_half_inverse_closes(discussion):
    """Without a displacement the closing pi/2 undoes the opening one."""
    res = run_protocol(discussion, Coherent(0.3j), beta=0.0)
    closed = branches(res.log[-1])
    assert list(closed) == [DOWN]
    assert abs(abs(closed[DOWN].weight) - 1.0) < 1e-12


def test_displacement_beam_selective(discussion):
    alpha, beta = 1.0 + 1.0j, 0.5
    res = run_protocol(discussion, Coherent(alpha), beta=beta)
    before, after = branches(res.log[1]), branches(res.log[2])
    assert res.log[2]["label"] == "displace"
    assert after[DOWN].alpha == alpha + beta
    assert after[UP] == before[UP]
    # composition phase Im(beta alpha*) carried on the displaced branch
    assert cmath.phase(after[DOWN].weight) == pytest.approx(
        (beta * alpha.conjugate()).imag, abs=1e-15)


def test_displacement_beam_zero_is_identity(discussion):
    res = run_protocol(discussion, Coherent(1.0 + 2.0j), beta=0.0)
    assert res.log[2]["branches"] == res.log[1]["branches"]


def test_displacement_beam_warns_outside_lamb_dicke(discussion):
    # eta = 0.645 at the discussion preset; the warning names the caller
    with pytest.warns(UserWarning, match="Lamb-Dicke") as caught:
        run_protocol(discussion, Coherent(0))
    assert [w.filename for w in caught
            if "Lamb-Dicke" in str(w.message)] == [__file__]


def test_free_fall_requires_released_trap(discussion):
    heavy = replace(discussion,
                    protocol=replace(discussion.protocol,
                                     freefall_force_N=9.81e-15))
    with pytest.raises(ProtocolError, match="free-fall") as err:
        run_protocol(heavy, Coherent(0), force=True)
    assert not isinstance(err.value, ConstraintViolation)


def test_free_fall_refusal_follows_the_verdict(discussion):
    """The run is refused exactly when the freefall_force verdict fails:
    at F = m g_E / 10 its margin reads 10.0, a warn, one ulp above a fail."""
    weight = (discussion.nanoparticle.mass_kg + discussion.atom.mass_kg) \
        * discussion.constants.g_E
    for force_n, refused in ((0.1 * weight, False),
                             (math.nextafter(0.1 * weight, 1.0), True)):
        pushed = replace(discussion, protocol=replace(
            discussion.protocol, freefall_force_N=force_n))
        verdict = {v.name: v.status
                   for v in constraint_check(pushed).verdicts}
        assert verdict["freefall_force"] == ("fail" if refused else "warn")
        if refused:
            with pytest.raises(ProtocolError, match="free-fall"):
                run_protocol(pushed, Coherent(0), force=True)
        else:
            run_protocol(pushed, Coherent(0))


def test_free_fall_zero_separation_zero_phase(discussion):
    res = run_protocol(discussion, Coherent(0), beta=0.0)
    assert res.log[3]["label"] == "free_fall"
    assert relative_phase(res.log[3]) == pytest.approx(0.0, abs=1e-15)


def test_free_fall_discussion_phase(discussion):
    """Half of phi_grav is in the weights after the fall; the closing
    displacement's composition phase releases the other half."""
    res = run_protocol(discussion, Coherent(0))
    assert relative_phase(res.log[3]) == pytest.approx(0.930 / 2, abs=0.001)
    assert relative_phase(res.log[3]) == pytest.approx(res.phi_grav / 2,
                                                       abs=1e-12)


def test_readout_extremes(discussion):
    assert run_protocol(discussion, Coherent(0), beta=0.0
                        ).p_down == pytest.approx(1.0, abs=1e-12)
    res = run_protocol(discussion, Coherent(0))
    beta_pi = preset_beta(discussion) * math.pi / res.phi_grav
    assert run_protocol(discussion, Coherent(0), beta=beta_pi
                        ).p_down == pytest.approx(0.0, abs=1e-12)


def test_readout_phase_value(discussion):
    """phi_grav = m g_E dx t / hbar with dx = 2 delta_R beta, and
    P_down = cos^2(phi_grav / 2)."""
    m = discussion.nanoparticle.mass_kg + discussion.atom.mass_kg
    delta_r = zero_point_motion(m, discussion.trap.paul_frequency_stiff_radps)
    t = discussion.protocol.free_fall_duration_s
    const = discussion.constants
    for scale in (1 / 3, 1.0, 2.0):
        beta = scale * preset_beta(discussion)
        res = run_protocol(discussion, Coherent(0.3 - 1.0j), beta=beta)
        expected = m * const.g_E * 2.0 * delta_r * beta * t / const.hbar
        assert res.phi_grav == pytest.approx(expected, abs=1e-12)
        assert res.p_down == pytest.approx(math.cos(res.phi_grav / 2.0) ** 2,
                                           abs=1e-12)


def test_readout_flags_reduced_visibility():
    """The plain -beta closing leaves a branch mismatch: the levels are not
    recombined and the fringe visibility is the coherent overlap."""
    res = run_protocol(unit_scenario(), Coherent(0.5 - 0.3j), beta=1.5,
                       force=True, exact_phase=False)
    assert res.residual > RECOMBINE_TOL
    assert res.visibility == pytest.approx(math.exp(-0.5 * res.residual ** 2),
                                           abs=1e-12)
    assert res.visibility < 1.0
    assert list(branches(res.log[-1])) == [DOWN, UP]
    assert 0.5 * (1 - res.visibility) <= res.p_down <= 0.5 * (1 + res.visibility)


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
    """End-to-end run vs the gaussian module's displacement and quench."""
    alpha, beta = 1.0 + 1.0j, preset_beta(discussion)
    omega1 = discussion.trap.paul_frequency_stiff_radps
    omega2 = discussion.trap.paul_frequency_soft_radps
    t = discussion.protocol.free_fall_duration_s
    m = discussion.nanoparticle.mass_kg + discussion.atom.mass_kg
    g2 = grav_coupling(m, omega2, discussion.constants)
    w = 1.0 / math.sqrt(2.0)
    comp = displace_compose(beta, alpha)
    down = CoherentBranch(comp.gamma, w * cmath.exp(1j * comp.phase))
    down = evolve_quench(down, omega1, omega2, g2, t)
    up = evolve_quench(CoherentBranch(alpha, w), omega1, omega2, g2, t)
    c1, c2 = quench_linear_map(omega1, omega2, t)
    comp = displace_compose(-(c1 + c2) * beta, down.alpha)
    w_d = down.weight * cmath.exp(1j * comp.phase)
    assert abs(comp.gamma - up.alpha) < 1e-10
    auto = run_protocol(discussion, Coherent(alpha))
    assert auto.phi_grav == pytest.approx(
        cmath.phase(up.weight * w_d.conjugate()), abs=1e-12)
    assert auto.p_down == pytest.approx(0.5 * abs(w_d + up.weight) ** 2,
                                        abs=1e-12)


def test_run_protocol_logs_every_step(discussion):
    res = run_protocol(discussion, Coherent(0))
    labels = [rec["label"] for rec in res.log]
    assert labels == ["prepare", "pi_half", "displace", "free_fall",
                      "undisplace", "pi_half_close"]
    for rec in res.log:
        assert set(rec) == {"step", "label", "branches"}


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


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_thermal_sample_rejects_bad_seed(seed):
    with pytest.raises(ParameterError, match="seed"):
        ThermalSample(10.0, seed, 4)


def test_norm_check_catches_nan_weights(discussion):
    """alpha = 1e300 overflows the fall's boost phase to NaN: the norm check
    must name that step, on the scalar and on the array path.  The kernel
    is called directly, since run_protocol rejects such an alpha first."""
    args = kernel_args(discussion, preset_beta(discussion))
    with pytest.raises(ProtocolError, match="at step free_fall"):
        _kernel(1e300 + 0j, _SCALAR_OPS, *args)
    with pytest.raises(ProtocolError, match="at step free_fall"), \
            np.errstate(over="ignore", invalid="ignore"):
        _kernel(np.array([1.0, 1e300], complex), ARRAY_OPS, *args)


def _branch_phase_per_alpha(scenario):
    """g1 t: the branch phase in rad per unit of initial |alpha|."""
    omega1 = scenario.trap.paul_frequency_stiff_radps
    omega2 = scenario.trap.paul_frequency_soft_radps
    m = scenario.nanoparticle.mass_kg + scenario.atom.mass_kg
    return (math.sqrt(omega2 / omega1)
            * grav_coupling(m, omega2, scenario.constants)
            * scenario.protocol.free_fall_duration_s)


@pytest.mark.parametrize("alpha", [1e12, -3e3j, 1e300, complex("nan")])
def test_rejects_alpha_whose_phase_rounding_exceeds_limit(discussion, alpha):
    """phi_grav is the difference of branch phases ~ g1 t |alpha|; once
    their rounding passes the limit the run is refused, not let through."""
    with pytest.raises(ProtocolError, match="alpha"):
        run_protocol(discussion, Coherent(alpha))


def test_rejects_nbar_whose_phase_rounding_exceeds_limit(discussion):
    with pytest.raises(ProtocolError, match="nbar"):
        run_protocol(discussion, ThermalSample(1e308, 0, 3))


def test_phase_rounding_limit_sits_at_its_amplitude(discussion):
    """Accepted just below |alpha| = limit / (eps g1 t), refused above, and
    phi_grav is still right at the largest accepted amplitude."""
    edge = PHASE_ROUNDING_LIMIT / (sys.float_info.epsilon
                                   * _branch_phase_per_alpha(discussion))
    assert 50.0 < edge < 1e4        # nbar 10 draws stay far inside
    ref = run_protocol(discussion, Coherent(0))
    res = run_protocol(discussion, Coherent(0.999 * edge * 1j))
    assert abs(res.phi_grav - ref.phi_grav) < PHASE_ROUNDING_LIMIT
    with pytest.raises(ProtocolError, match="alpha"):
        run_protocol(discussion, Coherent(1.001 * edge))


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


def test_beam_amplitude_matches_superposition_size(discussion):
    beta = preset_beta(discussion)
    m = discussion.nanoparticle.mass_kg + discussion.atom.mass_kg
    delta1 = zero_point_motion(m, discussion.trap.paul_frequency_stiff_radps)
    assert 2.0 * delta1 * beta == pytest.approx(1e-14, rel=1e-12)


def test_beta_follows_the_report_without_a_superposition_size(discussion):
    """Without protocol.superposition_size_m the report derives Delta x
    from the beam, and the run's phi_grav is the report's."""
    beamed = replace(discussion, protocol=replace(
        discussion.protocol, superposition_size_m=None))
    report = constraint_check(beamed)
    assert report.delta_x_m != 1e-14
    res = run_protocol(beamed, Coherent(1 - 1j))
    assert res.phi_grav == pytest.approx(report.phi_grav_rad, abs=1e-12)


def _fock_protocol(scenario, alpha, beta, exact_phase, dim=80):
    """(P_down, phi) of the whole protocol on qubit x truncated Fock space.

    Each level holds a normalised motional state; the pi/2 pulses give the
    levels amplitude 1/sqrt2 each, so after the closing pulse
    P_down = |psi_down + psi_up|^2 / 4.
    """
    m = scenario.nanoparticle.mass_kg + scenario.atom.mass_kg
    omega1 = scenario.trap.paul_frequency_stiff_radps
    omega2 = scenario.trap.paul_frequency_soft_radps
    t = scenario.protocol.free_fall_duration_s
    g1 = grav_coupling(m, omega1, scenario.constants)
    h = fock_oracle.quadratic_hamiltonian(omega1, omega2, g1, dim)
    up = fock_oracle.coherent_to_fock(alpha, dim)
    down = fock_oracle.apply_gate(
        up, fock_oracle.displacement_matrix(beta, dim))
    down = fock_oracle.evolve_schrodinger(down, h, t)
    up = fock_oracle.evolve_schrodinger(up, h, t)
    c1, c2 = quench_linear_map(omega1, omega2, t)
    back = -(c1 + c2) * beta if exact_phase else -beta
    down = fock_oracle.apply_gate(
        down, fock_oracle.displacement_matrix(back, dim))
    p_down = 0.25 * float(np.linalg.norm(down + up)) ** 2
    return p_down, fock_oracle.overlap_phase(down, up)


def test_run_protocol_matches_fock_oracle():
    """The closed-form kernel against a brute-force run of the whole
    protocol, composition phases of the closing displacement included.

    The kernel drops the quench's dynamical squeezing and its t^3 terms,
    so the phase error falls ~8x when t is halved."""
    alpha, beta = 0.5 - 0.3j, 1.5
    dphi = []
    for t in (0.02, 0.01):
        scenario = unit_scenario(t)
        res = run_protocol(scenario, Coherent(alpha), beta=beta, force=True)
        p_down, phi = _fock_protocol(scenario, alpha, beta, exact_phase=True)
        assert abs(res.p_down - p_down) < 1e-5
        dphi.append(abs(res.phi_grav - phi))
    assert dphi[0] < 1e-5
    assert dphi[0] > 6.0 * dphi[1]
    res = run_protocol(unit_scenario(), Coherent(alpha), beta=beta,
                       force=True, exact_phase=False)
    assert res.visibility < 1.0
    p_down, _ = _fock_protocol(unit_scenario(), alpha, beta, exact_phase=False)
    assert abs(res.p_down - p_down) < 1e-5


# p_down, phi_grav, visibility, residual at the discussion preset, to the
# 17 digits the CLI writes; a change here is a change of shipped output
_GOLDEN = {
    (0j, None): (0.7988226458040677, 0.93023536605331725, 1.0, 0.0),
    (1 + 1j, None): (0.79882264580398854, 0.93023536605327806, 1.0,
                     1.1102230246251565e-16),
    (-2 + 0.5j, None): (0.79882264580408346, 0.93023536605327783, 1.0, 0.0),
    (0j, 0.0): (0.99999999999999978, 0.0, 1.0, 0.0),
    (1 + 1j, 0.0): (0.99999999999999978, 0.0, 1.0, 0.0),
    (-2 + 0.5j, 0.0): (0.99999999999999978, 0.0, 1.0, 0.0),
}


@pytest.mark.parametrize("alpha,beta", list(_GOLDEN))
def test_run_protocol_golden_values(discussion, alpha, beta):
    res = run_protocol(discussion, Coherent(alpha), beta=beta)
    got = (res.p_down, res.phi_grav, res.visibility, res.residual)
    for value, want in zip(got, _GOLDEN[alpha, beta]):
        assert abs(value - want) < 1e-12


# every step-log record (steps.jsonl) of three runs, recorded at 17 digits:
# (step, label, ((level, re_alpha, im_alpha, re_weight, im_weight), ...))
_GOLDEN_STEPS = {
    "alpha_1_1j": [
        (1, "prepare", (
            ("down", 1.0, 1.0,
             1.0, 0.0),
        )),
        (2, "pi_half", (
            ("down", 1.0, 1.0,
             0.70710678118654746, 0.0),
            ("up", 1.0, 1.0,
             0.70710678118654746, 0.0),
        )),
        (4, "displace", (
            ("down", 1.0002177443635363, 1.0,
             0.70710676442365927, -0.00015396851480502851),
            ("up", 1.0, 1.0,
             0.70710678118654746, 0.0),
        )),
        (6, "free_fall", (
            ("down", 0.89351413404895585, -2135.0722062916134,
             0.66144438645047066, -0.24998264666404427),
            ("up", 0.89329638968541958, -2135.0722062916134,
             0.70328659405368221, 0.073402769868521678),
        )),
        (7, "undisplace", (
            ("down", 0.89329638968541947, -2135.0722062916134,
             0.47916737249102342, -0.51999868186376075),
            ("up", 0.89329638968541958, -2135.0722062916134,
             0.70328659405368221, 0.073402769868521678),
        )),
        (8, "pi_half_close", (
            ("down", 0.89329638968541958, -2135.0722062916134,
             0.83612121818469232, -0.31579099782202408),
            ("up", 0.89329638968541958, -2135.0722062916134,
             0.15847622136120632, 0.41959819048583863),
        )),
    ],
    "beta_0": [
        (1, "prepare", (
            ("down", 0.0, 0.29999999999999999,
             1.0, 0.0),
        )),
        (2, "pi_half", (
            ("down", 0.0, 0.29999999999999999,
             0.70710678118654746, 0.0),
            ("up", 0.0, 0.29999999999999999,
             0.70710678118654746, 0.0),
        )),
        (4, "displace", (
            ("down", 0.0, 0.29999999999999999,
             0.70710678118654746, 0.0),
            ("up", 0.0, 0.29999999999999999,
             0.70710678118654746, 0.0),
        )),
        (6, "free_fall", (
            ("down", -0.10677361031458066, -2135.7722062916132,
             0.70674384336539953, -0.022652590692975712),
            ("up", -0.10677361031458066, -2135.7722062916132,
             0.70674384336539953, -0.022652590692975712),
        )),
        (7, "undisplace", (
            ("down", -0.10677361031458066, -2135.7722062916132,
             0.70674384336539953, -0.022652590692975712),
            ("up", -0.10677361031458066, -2135.7722062916132,
             0.70674384336539953, -0.022652590692975712),
        )),
        (8, "pi_half_close", (
            ("down", -0.10677361031458066, -2135.7722062916132,
             0.99948672841103425, -0.032035600980892795),
        )),
    ],
    "unrecombined": [
        (1, "prepare", (
            ("down", 0.5, -0.29999999999999999,
             1.0, 0.0),
        )),
        (2, "pi_half", (
            ("down", 0.5, -0.29999999999999999,
             0.70710678118654746, 0.0),
            ("up", 0.5, -0.29999999999999999,
             0.70710678118654746, 0.0),
        )),
        (4, "displace", (
            ("down", 2.0, -0.29999999999999999,
             0.63671225217335503, 0.30756707875247941),
            ("up", 0.5, -0.29999999999999999,
             0.70710678118654746, 0.0),
        )),
        (6, "free_fall", (
            ("down", 1.9928999999500001, -0.4099850049999999,
             0.68507203238131353, 0.17514653992853083),
            ("up", 0.49297499995000005, -0.4024850049999999,
             0.70623365215247103, -0.035128742752657004),
        )),
        (7, "undisplace", (
            ("down", 0.49289999995000011, -0.4099850049999999,
             0.66060660663522353, -0.2521882457012915),
            ("up", 0.49297499995000005, -0.4024850049999999,
             0.70623365215247103, -0.035128742752657004),
        )),
        (8, "pi_half_close", (
            ("down", 0.49289999995000011, -0.4099850049999999,
             0.66060660663522353, -0.2521882457012915),
            ("up", 0.49297499995000005, -0.4024850049999999,
             0.70623365215247103, -0.035128742752657004),
        )),
    ],
}

_STEP_RUNS = {
    # closes with both levels populated
    "alpha_1_1j": lambda preset: run_protocol(preset, Coherent(1 + 1j)),
    # closes onto |down> alone
    "beta_0": lambda preset: run_protocol(preset, Coherent(0.3j), beta=0.0),
    # the plain -beta closing leaves two unrecombined branches
    "unrecombined": lambda preset: run_protocol(
        unit_scenario(), Coherent(0.5 - 0.3j), beta=1.5, force=True,
        exact_phase=False),
}


@pytest.mark.parametrize("name", list(_GOLDEN_STEPS))
def test_step_log_golden_records(discussion, name):
    log = _STEP_RUNS[name](discussion).log
    want = _GOLDEN_STEPS[name]
    assert [(rec["step"], rec["label"]) for rec in log] == [
        (step, label) for step, label, _ in want]
    for rec, (_, _, want_branches) in zip(log, want):
        assert set(rec) == {"step", "label", "branches"}
        assert [b["level"] for b in rec["branches"]] == [
            w[0] for w in want_branches]
        for b, w in zip(rec["branches"], want_branches):
            assert set(b) == {"level", "re_alpha", "im_alpha", "re_weight",
                              "im_weight"}
            got = (b["re_alpha"], b["im_alpha"], b["re_weight"],
                   b["im_weight"])
            for value, expected in zip(got, w[1:]):
                assert type(value) is float     # json writes 1.0, not 1
                assert abs(value - expected) < 1e-11


# |beta| <= 6e-4 keeps phi_grav = 2 g1 t beta clear of the +-pi branch cut
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alphas=st.lists(st.complex_numbers(max_magnitude=10.0,
                                          allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=12),
       beta=st.floats(-6e-4, 6e-4))
def test_kernel_matches_scalar_path(discussion, alphas, beta):
    phi, p_down, vis, residual = _kernel(
        np.array(alphas, complex), ARRAY_OPS, *kernel_args(discussion, beta))
    # the Scala et al. thermal insensitivity, over the whole batch
    assert np.max(phi) - np.min(phi) < 1e-10
    for i, alpha in enumerate(alphas):
        scalar = run_protocol(discussion, Coherent(alpha), beta=beta)
        # branch weights carry phases ~ g1 t |alpha| ~ 1e4 rad
        assert abs(scalar.phi_grav - phi[i]) < 4e-12
        for got, want in zip((scalar.p_down, scalar.visibility,
                              scalar.residual),
                             (p_down[i], vis[i], residual[i])):
            assert abs(got - want) < 1e-12


def test_quench_duration_warning_names_the_caller(discussion):
    # omega2 dt = 0.2 fails the quench_duration verdict; force only warns
    slow = replace(discussion, protocol=replace(
        discussion.protocol, free_fall_duration_s=4e4))
    with pytest.warns(UserWarning, match=r"omega2\*dt") as caught:
        run_protocol(slow, Coherent(0), force=True)
    assert [w.filename for w in caught
            if "omega2*dt" in str(w.message)] == [__file__]


def test_run_protocol_warns_once_per_run(discussion):
    slow = replace(discussion, protocol=replace(
        discussion.protocol, free_fall_duration_s=4e4))   # omega2 dt = 0.2
    # the slow fall's branch phases, ~1e14 rad per unit |alpha|, pass the
    # rounding limit only at alpha = 0, so its 200 draws are taken at nbar 0
    for scenario, nbar, expected in ((discussion, 10.0, 0), (slow, 0.0, 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(scenario, ThermalSample(nbar, 42, 200), force=True)
        messages = [str(w.message) for w in caught]
        assert sum("Lamb-Dicke" in m for m in messages) == 1
        assert sum("omega2*dt" in m for m in messages) == expected

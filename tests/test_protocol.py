import cmath
import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catsim import feasibility, fock_oracle, protocol, verify
from catsim.feasibility import constraint_check
from catsim.gaussian import CoherentBranch, evolve_quench, quench_linear_map
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
    _kernel,
    _set_up,
    MAX_SAMPLES,
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


def kernel_args(scenario, beta, exact_phase=True):
    """(beta, closed) as run_protocol passes them to _kernel."""
    return beta, protocol._closed_form(beta, exact_phase,
                                       _set_up(scenario).couplings)


def unit_scenario(t=0.02):
    """hbar = m = omega1 = 1, omega2 = 1/2 and g1 = 5: small enough for a
    Fock basis, with w1 t, w2 t and g1 t beta all below one."""
    const = PhysicalConstants(hbar=1.0, c=1.0, g_E=5.0 * math.sqrt(2.0),
                              eps0=1.0)
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


def test_set_up_couples_gravity_in_the_stiff_trap_basis(discussion):
    """The quench takes g1, gravity's coupling at omega1, the basis that
    every amplitude is written in, as the Fock oracle's Hamiltonian does."""
    for scenario in (discussion, unit_scenario()):
        trap = scenario.trap
        assert _set_up(scenario).couplings == (
            trap.paul_frequency_stiff_radps, trap.paul_frequency_soft_radps,
            grav_coupling(scenario.total_mass_kg,
                          trap.paul_frequency_stiff_radps, scenario.constants),
            scenario.protocol.free_fall_duration_s)


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
    g1 = grav_coupling(m, omega1, discussion.constants)
    w = 1.0 / math.sqrt(2.0)

    def compose(a, b):
        """D(a) D(b) = e^{i Im(a b*)} D(a + b)."""
        return a + b, (a * b.conjugate()).imag
    opened, opening = compose(beta, alpha)
    down, fall_d = evolve_quench(opened, omega1, omega2, g1, t)
    up, fall_u = evolve_quench(alpha, omega1, omega2, g1, t)
    c1, c2, _ = quench_linear_map(omega1, omega2, g1, t)
    closed, closing = compose(-(c1 + c2) * beta, down)
    # each step multiplies the weight by its unit phase
    w_d = (w * cmath.exp(1j * opening) * cmath.exp(1j * fall_d)
           * cmath.exp(1j * closing))
    w_u = w * cmath.exp(1j * fall_u)
    assert abs(closed - up) < 1e-10
    auto = run_protocol(discussion, Coherent(alpha))
    assert auto.phi_grav == pytest.approx(
        cmath.phase(w_u * w_d.conjugate()), abs=1e-12)
    assert auto.p_down == pytest.approx(0.5 * abs(w_d + w_u) ** 2,
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


def test_room_temperature_batch_keeps_phi_grav(discussion):
    """At nbar 4e11, k_B T / (hbar omega1) at room temperature, the draws
    reach |alpha| ~ 3e6, yet every draw reads the alpha = 0 fringe: the
    kernel carries the branch differences, which never depend on alpha."""
    dist = run_protocol(discussion, ThermalSample(4e11, 42, 2000))
    phi, p_down = dist.phi_grav_values, dist.p_down_values
    assert float(np.max(phi) - np.min(phi)) < 1e-12
    assert float(np.max(np.abs(p_down - np.cos(phi / 2) ** 2))) < 1e-12
    ref = run_protocol(discussion, Coherent(0))
    assert float(np.max(np.abs(phi - ref.phi_grav))) < 1e-12


def test_thermal_draws_are_the_normal_pairs(discussion, monkeypatch):
    """Each draw is one row of rng.normal(size=(count, 2)) scaled by
    sqrt(nbar / 2), as real and imaginary part, bit for bit.  The plain
    closing leaves delta != 0j, so the draws reach the kernel."""
    seen = []

    def capturing(alpha, *args):
        seen.append(alpha.copy())
        return _kernel(alpha, *args)
    monkeypatch.setattr(protocol, "_kernel", capturing)
    run_protocol(discussion, ThermalSample(10.0, 42, 2000), exact_phase=False)
    draws = np.random.default_rng(42).normal(size=(2000, 2)) * math.sqrt(5.0)
    want = draws[:, 0] + 1j * draws[:, 1]
    assert seen[0].dtype == want.dtype
    assert seen[0].tobytes() == want.tobytes()


def test_thermal_run_steps_only_scalars(discussion, monkeypatch):
    """The steps run once per (beta, closing, trap), at alpha = 0, on
    scalars: from cold caches a thermal run makes the two evolve_quench
    calls and its draws meet only the readout's linear form, never a step's
    map; a warm run calls no step at all."""
    seen = {}

    def recording(name, f):
        def wrapped(*args):
            seen.setdefault(name, []).append(tuple(type(x) for x in args))
            return f(*args)
        return wrapped
    monkeypatch.setattr(protocol, "evolve_quench",
                        recording("evolve_quench", protocol.evolve_quench))
    run_protocol(discussion, ThermalSample(10.0, 42, 2000))
    assert list(seen) == ["evolve_quench"]
    assert len(seen["evolve_quench"]) == 2
    assert {t for calls in seen.values() for types in calls
            for t in types} <= {complex, float}
    seen.clear()
    run_protocol(discussion, ThermalSample(10.0, 43, 2000))
    assert seen == {}


def test_thermal_run_is_the_coherent_runs_bit_for_bit(discussion):
    """A thermal run's columns are, value for value, the coherent runs of
    its draws, a one-draw run too.  Under the exact closing delta = 0j, and
    the run reads the alpha = 0 run once for every draw; under the plain
    closing the draws meet the array kernel, which runs the scalar
    kernel's arithmetic."""
    for count, exact_phase in itertools.product((300, 1), (True, False)):
        dist = run_protocol(discussion, ThermalSample(10.0, 42, count),
                            exact_phase=exact_phase)
        assert isinstance(dist.phi_grav_values, np.ndarray)
        draws = (np.random.default_rng(42).normal(size=(count, 2))
                 * math.sqrt(5.0))
        differ = 0
        for row, (re, im) in zip(zip(dist.phi_grav_values,
                                     dist.p_down_values,
                                     dist.visibility_values,
                                     dist.residual_values), draws.tolist()):
            res = run_protocol(discussion, Coherent(complex(re, im)),
                               exact_phase=exact_phase)
            differ += sum(a != b for a, b in zip(
                row, (res.phi_grav, res.p_down, res.visibility,
                      res.residual)))
        assert differ == 0


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_thermal_sample_rejects_bad_seed(seed):
    with pytest.raises(ParameterError, match="seed"):
        ThermalSample(10.0, seed, 4)


@pytest.mark.parametrize("count", [0, MAX_SAMPLES + 1, 2.5, 3.0, True, "3"])
def test_thermal_sample_rejects_bad_count(count):
    with pytest.raises(ParameterError, match="count"):
        ThermalSample(10.0, 1, count)


@pytest.mark.parametrize("nbar", ["10", 1j, None, True, -1.0, math.nan,
                                  math.inf, 10 ** 400],
                         ids=["str", "complex", "None", "bool", "negative",
                              "nan", "inf", "10**400"])
def test_thermal_sample_rejects_bad_nbar(nbar):
    with pytest.raises(ParameterError, match="nbar"):
        ThermalSample(nbar, 1, 5)


@pytest.mark.parametrize("nbar", [0.0, 3, 1e-300, 4e11, np.float64(1e-50)])
def test_thermal_sample_accepts_any_real_nbar(nbar):
    """No magnitude floor: an occupation below 1e-40 is a valid one."""
    assert ThermalSample(nbar, 1, 5).nbar == nbar


def test_norm_check_catches_nan_weights(discussion):
    """An amplitude or a phase that stops being finite is refused by the
    step log, at the step that made it.  At beta = 0 the rounding guard
    bounds no |alpha| below the float range, and at the preset the fall's
    phase Im(gamma(alpha)* d) ~ -2e3 Re(alpha) overflows at alpha = 1e306."""
    for alpha in (1e306, -1.7e308 + 1j):
        for exact_phase in (True, False):
            with pytest.raises(ProtocolError, match="at step free_fall$"):
                run_protocol(discussion, Coherent(alpha), beta=0.0,
                             exact_phase=exact_phase)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(preset=st.booleans(), t=st.floats(0.02, 3.0),
       exact_phase=st.booleans(),
       beta=st.none() | st.floats(0.0, 1e300)
       | st.sampled_from([math.nan, math.inf, -math.inf]),
       initial=st.builds(Coherent, st.builds(complex, _ANY_FLOAT, _ANY_FLOAT))
       | st.builds(ThermalSample, st.floats(0.0, 1.7e308),
                   st.integers(0, 2**32), st.integers(1, 4)))
@example(preset=True, t=0.02, exact_phase=True, beta=0.0,
         initial=Coherent(1e10 + 1.7e308j))     # step 8's a_d + a_u overflows
def test_a_run_is_finite_or_refused(discussion, preset, t, exact_phase, beta,
                                    initial):
    """Whatever the amplitude, displacement, closing and fall, a run either
    raises ProtocolError or returns finite outputs and a step log with no
    NaN or Inf, so that steps.jsonl is strict JSON."""
    scenario = discussion if preset else unit_scenario(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            res = run_protocol(scenario, initial, exact_phase, force=True,
                               beta=beta)
        except ProtocolError:
            return
    if isinstance(initial, ThermalSample):
        assert all(np.isfinite(column).all() for column in (
            res.phi_grav_values, res.p_down_values, res.visibility_values,
            res.residual_values))
    else:
        assert all(map(math.isfinite, res[:4]))
        json.dumps(res.log, allow_nan=False)    # ValueError on NaN or Inf


def test_recombined_amplitude_stays_finite(discussion):
    """Step 8's recombined amplitude is a_u + delta / 2: where a_d + a_u
    would overflow, at |Im a_u| ~ 1.7e308, it is step 7's a_u, since
    delta = 0 at beta = 0."""
    res = run_protocol(discussion, Coherent(1e10 + 1.7e308j), beta=0.0)
    undisplace, close = res.log[-2:]
    assert close["label"] == "pi_half_close"
    (recombined,) = close["branches"]
    assert [recombined["re_alpha"], recombined["im_alpha"]] == [
        undisplace["branches"][1]["re_alpha"],
        undisplace["branches"][1]["im_alpha"]]
    assert all(map(math.isfinite, (recombined["re_alpha"],
                                   recombined["im_alpha"])))


def test_kernel_runs_one_exp_and_one_cos(discussion, monkeypatch):
    """The readout's visibility and fringe are the kernel's only
    transcendentals: a cold _closed_form and _kernel pair takes one exp, of
    the one number delta, and one cos; a warm pair reads the visibility
    from the cache and takes only the cos, whatever the batch: math's for
    a complex alpha, numpy's for an array."""
    beta = preset_beta(discussion)
    calls = []

    def counting(name, f):
        def op(x):
            calls.append(name)
            return f(x)
        return op
    # caches the set-up and the fall's maps, which take a cos
    _kernel(1 + 1j, *kernel_args(discussion, beta))
    monkeypatch.setattr(math, "exp", counting("exp", math.exp))
    monkeypatch.setattr(math, "cos", counting("cos", math.cos))
    monkeypatch.setattr(np, "cos", counting("cos", np.cos))
    for alpha, log in ((1 + 1j, None), (1 + 1j, []),
                       (np.linspace(-3, 3, 2000) * (1 + 0.5j), None)):
        protocol._closed_form.cache_clear()
        for want in (["cos", "exp"], ["cos"]):      # cold, then warm
            calls.clear()
            _kernel(alpha, *kernel_args(discussion, beta), log)
            assert sorted(calls) == want


@pytest.mark.parametrize("exact_phase,beta,want", [
    (True, None, ["math.cos"]),
    (False, None, ["np.cos"]),
    (False, 0.0, ["math.cos"]),     # the plain closing's delta is 0j too
])
def test_a_warm_thermal_run_takes_one_cos(discussion, monkeypatch,
                                          exact_phase, beta, want):
    """A warm thermal run takes one cos: math's where delta = 0j, for the
    alpha = 0 run that every draw reads, and numpy's, over the draws, where
    the preset's plain closing leaves delta != 0j."""
    thermal = ThermalSample(10.0, 42, 2000)
    run_protocol(discussion, thermal, exact_phase=exact_phase, beta=beta)
    calls = []

    def counting(name, f):
        def op(x):
            calls.append(name)
            return f(x)
        return op
    monkeypatch.setattr(math, "cos", counting("math.cos", math.cos))
    monkeypatch.setattr(np, "cos", counting("np.cos", np.cos))
    run_protocol(discussion, thermal, exact_phase=exact_phase, beta=beta)
    assert calls == want


def _rounding_edge(scenario, beta):
    """The largest |alpha| run_protocol accepts: the phase terms, up to
    shift * reach rad, round by eps times that.  shift is the largest
    displacement, max(1, |c1 + c2|) |beta|, and reach the largest branch
    amplitude after the fall, (|c1| + |c2|) |alpha| + |d| + shift."""
    c1, c2, d = quench_linear_map(*_set_up(scenario).couplings)
    shift = max(1.0, abs(c1 + c2)) * abs(beta)
    reach = PHASE_ROUNDING_LIMIT / (sys.float_info.epsilon * shift)
    return (reach - abs(d) - shift) / (abs(c1) + abs(c2))


@pytest.mark.parametrize("alpha", [1e12, -3e9j, 1e300, complex("nan")])
def test_rejects_alpha_whose_phase_rounding_exceeds_limit(discussion, alpha):
    """phi_grav sums phase terms ~ |beta| (|alpha| + |d|); once their
    rounding passes the limit the run is refused, not let through."""
    with pytest.raises(ProtocolError, match="alpha"):
        run_protocol(discussion, Coherent(alpha))


@pytest.mark.parametrize("alpha,beta,field", [
    (complex(math.inf, 0.0), 0.0, "alpha"),
    (complex(0.0, math.nan), 0.0, "alpha"),
    (1.7e308 + 1.7e308j, 0.0, "alpha"),         # |alpha| overflows
    (complex(math.nan, 0.0), None, "alpha"),
    (0j, math.inf, "beta"),
    (0.5j, math.nan, "beta"),
])
def test_non_finite_alpha_or_beta_is_refused_by_name(discussion, alpha, beta,
                                                     field):
    """At beta = 0 too: the refusal names the field and quotes no NaN."""
    with pytest.raises(ProtocolError, match=f"^{field} and its modulus must "
                       "be finite$") as e:
        run_protocol(discussion, Coherent(alpha), beta=beta)
    assert "nan" not in str(e.value)


def test_beta_zero_bounds_no_finite_alpha(discussion):
    """At beta = 0 no phase term grows with the amplitude, so the largest
    finite alpha is accepted, and reads alpha = 0's fringe."""
    ref = run_protocol(discussion, Coherent(0), beta=0.0)
    res = run_protocol(discussion, Coherent(1.7976931348623157e308j),
                       beta=0.0)
    assert (res.phi_grav, res.p_down) == (ref.phi_grav, ref.p_down)


def test_rejects_nbar_whose_phase_rounding_exceeds_limit(discussion):
    with pytest.raises(ProtocolError, match="nbar"):
        run_protocol(discussion, ThermalSample(1e308, 0, 3))


def test_phase_rounding_limit_sits_at_its_amplitude(discussion):
    """Accepted just below the edge amplitude, refused above, and phi_grav
    is still right at the largest accepted amplitude."""
    edge = _rounding_edge(discussion, preset_beta(discussion))
    # room-temperature draws, |alpha| ~ 3e6 at nbar 4e11, stay far inside
    assert 1e8 < edge < 1e11
    ref = run_protocol(discussion, Coherent(0))
    res = run_protocol(discussion, Coherent(0.999 * edge * 1j))
    assert abs(res.phi_grav - ref.phi_grav) < PHASE_ROUNDING_LIMIT
    with pytest.raises(ProtocolError, match="alpha"):
        run_protocol(discussion, Coherent(1.001 * edge))


@pytest.mark.parametrize("exact_phase", [True, False])
def test_thermal_guard_reads_the_largest_draw(discussion, exact_phase):
    """The rounding guard reads the draws under either closing, though the
    exact closing gives every draw the alpha = 0 run: a run whose largest
    draw lies just inside the edge amplitude is accepted, and one whose
    largest draw lies just past it is refused."""
    edge = _rounding_edge(discussion, preset_beta(discussion))
    seed, count = 3, 50
    draws = np.random.default_rng(seed).normal(size=(count, 2))
    largest = float(np.hypot(draws[:, 0], draws[:, 1]).max())
    nbar = {scale: 2.0 * (scale * edge / largest) ** 2
            for scale in (0.999, 1.001)}
    dist = run_protocol(discussion, ThermalSample(nbar[0.999], seed, count),
                        exact_phase=exact_phase)
    assert np.isfinite(dist.phi_grav_values).all()
    with pytest.raises(ProtocolError, match="thermal nbar"):
        run_protocol(discussion, ThermalSample(nbar[1.001], seed, count),
                     exact_phase=exact_phase)


def test_rejects_beta_whose_phase_rounding_exceeds_limit(discussion):
    """The displaced branch's amplitude is alpha + beta, so beta counts
    toward the rounding limit as much as alpha does."""
    with pytest.raises(ProtocolError, match="beta"):
        run_protocol(discussion, Coherent(0), beta=1e3)


def test_large_beta_inside_the_limit_keeps_phi_grav(discussion):
    """At beta = 100 the branch phases are ~2e5 rad: phi_grav still does
    not depend on alpha, and P_down is still cos^2(phi_grav / 2)."""
    ref, res = (run_protocol(discussion, Coherent(alpha), beta=100.0)
                for alpha in (0, 3 + 2j))
    assert abs(res.phi_grav - ref.phi_grav) < 1e-10
    for r in (ref, res):
        assert abs(r.p_down - math.cos(r.phi_grav / 2) ** 2) < 1e-10


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
    bands = fock_oracle.quadratic_hamiltonian(omega1, omega2, g1, dim)
    up = fock_oracle.coherent_to_fock(alpha, dim)
    down = fock_oracle.displace(up, beta)
    down = fock_oracle.evolve(bands, down, t)
    up = fock_oracle.evolve(bands, up, t)
    c1, c2, _ = quench_linear_map(omega1, omega2, g1, t)
    back = -(c1 + c2) * beta if exact_phase else -beta
    down = fock_oracle.displace(down, back)
    p_down = 0.25 * float(np.linalg.norm(down + up)) ** 2
    return p_down, fock_oracle.overlap_phase(down, up)


def test_run_protocol_matches_fock_oracle():
    """The closed-form kernel against a brute-force run of the whole
    protocol, composition phases of the closing displacement included.

    The kernel runs the quench's exact map; the squeeze it drops is the
    same on both branches, so the two agree to rounding at every t, with
    either closing."""
    beta = 1.5
    for t in (0.4, 0.1, 0.02):
        scenario = unit_scenario(t)
        for alpha in (0j, 0.5 - 0.3j, 1.2j):
            for exact_phase in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")     # omega2 t = 0.2
                    res = run_protocol(scenario, Coherent(alpha), beta=beta,
                                       force=True, exact_phase=exact_phase)
                p_down, phi = _fock_protocol(scenario, alpha, beta,
                                             exact_phase)
                assert abs(res.p_down - p_down) < 1e-12
                if exact_phase:
                    assert abs(res.phi_grav - phi) < 1e-12
                else:
                    assert res.visibility < 1.0


@pytest.mark.parametrize("t", [0.02, 0.4, 1.0, 2.0])
def test_exact_closing_reads_the_sine_phase(t):
    """With the exact closing every initial state, coherent or thermal,
    reads theta = 2 g1 beta sin(w2 t) / w2, that is
    m g_E dx sin(w2 t) / (hbar w2), and P_down = (1 + cos theta) / 2, at
    any w2 t: the spin-probed thermal insensitivity of Scala et al.,
    PRL 111, 180403 (2013)."""
    scenario, beta = unit_scenario(t), 1.5
    m = scenario.nanoparticle.mass_kg + scenario.atom.mass_kg
    omega1 = scenario.trap.paul_frequency_stiff_radps
    omega2 = scenario.trap.paul_frequency_soft_radps
    g1 = grav_coupling(m, omega1, scenario.constants)
    theta = 2.0 * g1 * beta * math.sin(omega2 * t) / omega2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # omega2 t >= 0.2 warns
        coherent = run_protocol(scenario, Coherent(0.5 - 0.3j), beta=beta,
                                force=True)
        thermal = run_protocol(scenario, ThermalSample(4.0, 5, 2000),
                               beta=beta, force=True)
    phi = np.append(thermal.phi_grav_values, coherent.phi_grav)
    p_down = np.append(thermal.p_down_values, coherent.p_down)
    assert np.max(np.abs(phi - math.remainder(theta, math.tau))) < 1e-12
    assert np.max(np.abs(p_down - (1.0 + math.cos(theta)) / 2.0)) < 1e-12


@pytest.mark.parametrize("exact_phase", [True, False])
@pytest.mark.parametrize("beta", [0.3, 1.5, -2.0])
@pytest.mark.parametrize("t", [0.1, 0.4, 1.0])
def test_alpha_reaches_the_fringe_through_im_alpha_delta(t, beta,
                                                         exact_phase):
    """The fringe's alpha-gradient is the residual separation.  The fall
    adds gamma(alpha) = c1 alpha + c2 alpha* to a branch, whose phase
    Im(z gamma(alpha)*) is k(z).alpha with
    k(z) = (Im(z (c1 + c2)*), Re(z (c2 - c1)*)), and the opening displacement
    adds -beta Im(alpha).  Since c2 is purely imaginary and
    |c1|^2 - |c2|^2 = 1, those terms at z = beta_back and beta_back + delta
    are Im(alpha delta) and 2 Im(alpha delta), the forms the kernel uses."""
    omega1, omega2, g1 = verify._QUENCH
    couplings = (omega1, omega2, g1, t)
    c1, c2, _ = quench_linear_map(*couplings)
    assert c2.real == 0.0
    assert abs(abs(c1) ** 2 - abs(c2) ** 2 - 1.0) <= 4e-16 * abs(c1) ** 2
    delta = protocol._closed_form(beta, exact_phase, couplings).delta
    if exact_phase:
        assert delta == 0j
    beta_back = -(c1 + c2) * beta if exact_phase else -beta
    plus, minus = (c1 + c2).conjugate(), (c2 - c1).conjugate()
    tol = 4e-16 * max(1.0, abs(beta))
    for z, scale in ((beta_back, 1.0), (beta_back + delta, 2.0)):
        k_re, k_im = (z * plus).imag, (z * minus).real
        assert abs(k_re - scale * delta.imag) <= tol
        assert abs(k_im - beta - scale * delta.real) <= tol


def test_exact_closing_reads_one_fringe_for_every_draw():
    """Under the exact closing delta is 0j, so 2000 thermal draws read one
    phi_grav and one P_down bit for bit, however large the draws: at
    nbar 100 a form whose terms only cancel to rounding moves the last
    bits.  The plain closing leaves a residual separation, and P_down then
    depends on the draw."""
    scenario, beta = unit_scenario(0.4), 1.5
    spreads = {}
    for exact_phase in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # omega2 t = 0.2 warns
            dist = run_protocol(scenario, ThermalSample(100.0, 5, 2000),
                                beta=beta, force=True, exact_phase=exact_phase)
        spreads[exact_phase] = (np.ptp(dist.phi_grav_values),
                                np.ptp(dist.p_down_values))
    assert spreads[True] == (0.0, 0.0)
    assert spreads[False][1] > 0.0


# p_down, phi_grav, visibility, residual at the discussion preset, recorded
# as their repr and compared exactly: a change here is a change of shipped
# output.  The exact closing leaves delta = 0j, so every alpha reads the same
_GOLDEN = {
    (0j, None): (0.798822645804068, 0.9302353660533172, 1.0, 0.0),
    (1 + 1j, None): (0.798822645804068, 0.9302353660533172, 1.0, 0.0),
    (-2 + 0.5j, None): (0.798822645804068, 0.9302353660533172, 1.0, 0.0),
    (0j, 0.0): (1.0, 0.0, 1.0, 0.0),
    (1 + 1j, 0.0): (1.0, 0.0, 1.0, 0.0),
    (-2 + 0.5j, 0.0): (1.0, 0.0, 1.0, 0.0),
}


@pytest.mark.parametrize("alpha,beta", list(_GOLDEN))
def test_run_protocol_golden_values(discussion, alpha, beta):
    res = run_protocol(discussion, Coherent(alpha), beta=beta)
    got = (res.p_down, res.phi_grav, res.visibility, res.residual)
    assert got == _GOLDEN[alpha, beta]


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
            ("down", 1.9929001091161365, -0.4099831718007495,
             0.68507144899646832, 0.1751488217770224),
            ("up", 0.49297510849113862, -0.40248329680012446,
             0.70623368133821318, -0.035128155993092956),
        )),
        (7, "undisplace", (
            ("down", 0.49290010911613646, -0.4099831718007495,
             0.66060814008282143, -0.25218422880171409),
            ("up", 0.49297510849113862, -0.40248329680012446,
             0.70623368133821318, -0.035128155993092956),
        )),
        (8, "pi_half_close", (
            ("down", 0.49290010911613646, -0.4099831718007495,
             0.66060814008282143, -0.25218422880171409),
            ("up", 0.49297510849113862, -0.40248329680012446,
             0.70623368133821318, -0.035128155993092956),
        )),
    ],
}

_STEP_RUNS = {
    # closes with both levels populated
    "alpha_1_1j": lambda preset: run_protocol(preset, Coherent(1 + 1j)),
    # closes onto |down> alone
    "beta_0": lambda preset: run_protocol(preset, Coherent(0.3j), beta=0.0),
    # the plain -beta closing leaves two unrecombined branches; after the
    # fall its amplitudes are the Fock protocol's means <a> to 4e-15
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


@pytest.mark.parametrize("name", list(_STEP_RUNS))
def test_step_log_records_share_no_dict_or_list(discussion, name):
    """A record's branch list and branch dicts are its own: changing one
    leaves every other record, and a second run's log, as it was.  The
    unrecombined run's step 8 holds step 7's pair, the case most prone
    to sharing."""
    log, second = (list(_STEP_RUNS[name](discussion).log) for _ in range(2))
    # json, not deepcopy, which would copy a shared dict as shared
    want = json.loads(json.dumps(log))
    for i, record in enumerate(log):
        for j, branch in enumerate(record["branches"]):
            branch["re_alpha"] = "changed"
            expected = json.loads(json.dumps(want))
            expected[i]["branches"][j]["re_alpha"] = "changed"
            assert (log, second) == (expected, want)
            branch["re_alpha"] = want[i]["branches"][j]["re_alpha"]
        record["branches"].append("changed")
        expected = json.loads(json.dumps(want))
        expected[i]["branches"].append("changed")
        assert (log, second) == (expected, want)
        record["branches"].pop()
    assert log == want


def _readout_from_log(record):
    """(phi_grav, P_down) from a step-7 record's complex weights and
    amplitudes: the phase of w_u w_d* and
    P_down = (|w_d|^2 + |w_u|^2) / 2 + Re(w_d w_u* <a_u|a_d>)."""
    b = branches(record)
    (a_d, w_d), (a_u, w_u) = b[DOWN], b[UP]
    d = a_d - a_u
    overlap = cmath.exp(-0.5 * abs(d) ** 2 + 1j * (a_u.conjugate() * d).imag)
    p_down = (0.5 * (abs(w_d) ** 2 + abs(w_u) ** 2)
              + (w_d * w_u.conjugate() * overlap).real)
    return cmath.phase(w_u * w_d.conjugate()), p_down


def _assert_log_matches_outputs(res):
    (record,) = [r for r in res.log if r["label"] == "undisplace"]
    phi, p_down = _readout_from_log(record)
    assert abs(res.phi_grav - phi) < 4e-12
    assert abs(res.p_down - p_down) < 1e-12


@pytest.mark.parametrize("name", list(_STEP_RUNS))
def test_log_matches_outputs(discussion, name):
    """The outputs read off the branch phases agree with the logged
    complex weights under the complex-weight readout."""
    _assert_log_matches_outputs(_STEP_RUNS[name](discussion))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alphas=st.lists(st.complex_numbers(max_magnitude=10.0,
                                          allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=4),
       u=st.floats(-1.0, 1.0), exact_phase=st.booleans())
def test_log_matches_outputs_over_a_batch(discussion, alphas, u, exact_phase):
    # each beta keeps phi_grav clear of the +-pi branch cut
    for scenario, beta in ((discussion, 6e-4 * u), (unit_scenario(), 1.5 * u)):
        for alpha in alphas:
            _assert_log_matches_outputs(run_protocol(
                scenario, Coherent(alpha), beta=beta, force=True,
                exact_phase=exact_phase))


@pytest.mark.parametrize("scale", [-5.0, 5.0, 9.0])
def test_phi_grav_wraps_like_the_weight_phase(discussion, scale):
    """A phi_grav past +-pi is wrapped into (-pi, pi] as the phase of
    w_u w_d* is, on the scalar and on the array path."""
    beta = scale * preset_beta(discussion)
    res = run_protocol(discussion, Coherent(1 + 1j), beta=beta)
    assert -math.pi < res.phi_grav <= math.pi
    assert abs(res.phi_grav) < 0.9 * abs(scale) * 0.930
    _assert_log_matches_outputs(res)
    phi, *_ = _kernel(np.array([1 + 1j, -2j, 3.0]),
                      *kernel_args(discussion, beta))
    assert np.max(np.abs(phi - res.phi_grav)) < 4e-12


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
        np.array(alphas, complex), *kernel_args(discussion, beta))
    # the Scala et al. thermal insensitivity, over the whole batch
    assert np.max(phi) - np.min(phi) < 1e-10
    for i, alpha in enumerate(alphas):
        scalar = run_protocol(discussion, Coherent(alpha), beta=beta)
        assert abs(scalar.phi_grav - phi[i]) < 1e-12
        assert abs(scalar.p_down - p_down[i]) < 1e-12
        # delta never depends on alpha: one visibility and residual per batch
        assert (scalar.visibility, scalar.residual) == (vis, residual)


def _slow(discussion):
    """omega2 dt = 0.2, which fails the quench_duration verdict.  Its fall
    shifts every branch by |d| ~ 1.7e20, so the phase terms ~ |beta| |d|
    pass the rounding limit only at a beta below ~2.6e-15, far below the
    preset's ~2e-4; _SLOW_BETA is such a beta."""
    return replace(discussion, protocol=replace(
        discussion.protocol, free_fall_duration_s=4e4))


_SLOW_BETA = 1e-16


def test_slow_fall_at_the_preset_beta_is_refused(discussion):
    for beta in (None, 1e3 * _SLOW_BETA):
        with pytest.raises(ProtocolError, match="beta"):
            run_protocol(_slow(discussion), Coherent(0), force=True,
                         beta=beta)


def test_quench_duration_warning_names_the_caller(discussion):
    # force only warns
    with pytest.warns(UserWarning, match=r"omega2\*dt") as caught:
        run_protocol(_slow(discussion), Coherent(0), force=True,
                     beta=_SLOW_BETA)
    assert [w.filename for w in caught
            if "omega2*dt" in str(w.message)] == [__file__]


def test_run_protocol_warns_once_per_run(discussion):
    for scenario, nbar, beta, expected in (
            (discussion, 10.0, None, 0),
            (_slow(discussion), 0.0, _SLOW_BETA, 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(scenario, ThermalSample(nbar, 42, 200), force=True,
                         beta=beta)
        messages = [str(w.message) for w in caught]
        assert sum("Lamb-Dicke" in m for m in messages) == 1
        assert sum("omega2*dt" in m for m in messages) == expected


def test_free_fall_refusal_comes_between_the_warnings(discussion):
    """A forced run that fails both freefall_force and quench_duration
    warns of the Lamb-Dicke parameter, then is refused, and never reaches
    the quench warning."""
    both = _slow(replace(discussion, protocol=replace(
        discussion.protocol, freefall_force_N=9.81e-15)))
    verdict = {v.name: v.status for v in constraint_check(both).verdicts}
    assert verdict["freefall_force"] == verdict["quench_duration"] == "fail"
    for _ in range(2):          # a cold and a cached set-up
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ProtocolError, match="free-fall"):
                run_protocol(both, Coherent(0), force=True, beta=_SLOW_BETA)
        assert [str(w.message).split()[0] for w in caught] == ["Lamb-Dicke"]
        assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("exact_phase", [True, False])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_thermal_draws_are_the_normal_stream(discussion, seed, exact_phase):
    """The draws come from standard_normal, which yields the bits of
    normal(0, 1) on the same stream: a thermal run is the array kernel at
    default_rng(seed).normal(size=(count, 2)) * sqrt(nbar / 2), viewed as
    complex, bit for bit.  Where delta = 0j, under the exact closing or at
    beta = +-0, the run reads the alpha = 0 run once, with math's cos for
    numpy's, and still gives the array kernel's bits: on the unit trap at
    each beta, and on the preset at its own."""
    nbar, count = 3.0, 500
    alpha = (np.random.default_rng(seed).normal(size=(count, 2))
             * math.sqrt(nbar / 2)).view(np.complex128).ravel()
    for scenario, beta in ((unit_scenario(), 1.5), (unit_scenario(), 0.0),
                           (unit_scenario(), -0.0),
                           (discussion, preset_beta(discussion))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # the preset's Lamb-Dicke
            dist = run_protocol(scenario, ThermalSample(nbar, seed, count),
                                exact_phase=exact_phase, force=True,
                                beta=beta)
        want = _kernel(alpha, *kernel_args(scenario, beta, exact_phase))
        got = (dist.phi_grav_values, dist.p_down_values,
               dist.visibility_values, dist.residual_values)
        for values, expected in zip(got, want):
            assert values.shape == (count,)
            assert values.tobytes() == np.broadcast_to(
                np.float64(expected), (count,)).tobytes(), (scenario, beta)
        # alpha reaches the fringe, and the draws matter, only under the
        # plain closing on the unit trap at beta != 0: at the preset,
        # delta ~ 5e-23 moves no bit
        assert bool(np.ptp(dist.p_down_values) > 1e-3) is (
            not exact_phase and beta == 1.5)


# --- the per-scenario set-up cache ---------------------------------------------

def test_every_call_warns_on_a_cached_scenario(discussion):
    """The set-up is cached per scenario; its warnings are not."""
    slow = _slow(discussion)
    for scenario, kwargs, expected in (
            (discussion, {}, ["Lamb-Dicke"]),
            (slow, {"force": True, "beta": _SLOW_BETA},
             ["Lamb-Dicke", "omega2*dt"])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_protocol(scenario, Coherent(0), **kwargs)   # a cache hit below
        for initial in (Coherent(0), ThermalSample(0.0, 3, 20), Coherent(0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_protocol(scenario, initial, **kwargs)
            assert [m for w in caught for m in expected
                    if m in str(w.message)] == expected
            assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("forced_first", [False, True])
def test_failed_verdict_refuses_every_unforced_call(discussion, forced_first):
    bad = replace(discussion, trap=replace(discussion.trap,
                                           paul_frequency_soft_radps=1e-3))
    for force in (forced_first, not forced_first) * 2:
        if force:
            res = run_protocol(bad, Coherent(0), force=True)
            assert 0.0 <= res.p_down <= 1.0
        else:
            with pytest.raises(ConstraintViolation, match="coupling_ceiling"):
                run_protocol(bad, Coherent(0))


def test_a_scenario_is_graded_once(discussion, monkeypatch):
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return constraint_check(scenario)
    monkeypatch.setattr(feasibility, "constraint_check", counting)
    for initial in (Coherent(0), Coherent(1 + 1j), ThermalSample(10.0, 1, 20),
                    Coherent(-2j)):
        run_protocol(discussion, initial)
    run_protocol(discussion, Coherent(0.5), beta=0.0, exact_phase=False)
    assert calls == [discussion]


def test_another_fall_duration_is_its_own_scenario(discussion):
    longer = replace(discussion, protocol=replace(
        discussion.protocol, free_fall_duration_s=2e-6))
    base = run_protocol(discussion, Coherent(1 + 1j)).phi_grav
    res = run_protocol(longer, Coherent(1 + 1j))
    assert _set_up.cache_info().misses == 2
    assert res.phi_grav == pytest.approx(constraint_check(longer).phi_grav_rad,
                                         abs=1e-12)
    assert res.phi_grav == pytest.approx(2.0 * base, rel=1e-9)
    assert run_protocol(discussion, Coherent(1 + 1j)).phi_grav == base


# --- the alpha-free closed-form cache ------------------------------------------

def _run_bits(scenario, initial, beta, exact_phase):
    """Every bit of a run, or its refusal: repr tells -0.0 from 0.0."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_protocol(scenario, initial, exact_phase=exact_phase,
                               beta=beta)
    except ProtocolError as e:
        return f"refused: {e}"
    if isinstance(initial, Coherent):
        return repr(res)
    return b"".join(x.tobytes() for x in (
        res.phi_grav_values, res.p_down_values, res.visibility_values,
        res.residual_values))


def _cold_bits(scenario, initial, beta, exact_phase):
    _set_up.cache_clear()
    protocol._closed_form.cache_clear()
    return _run_bits(scenario, initial, beta, exact_phase)


_BIT_INITIALS = (Coherent(0j), Coherent(complex("-0-0j")), Coherent(1 + 1j),
                 Coherent(-3 + 2j), Coherent(1e10 + 1.7e308j),
                 ThermalSample(3.0, 5, 50))


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)],
                         ids=["plus_zero_first", "minus_zero_first"])
def test_a_warm_run_is_a_cold_run_bit_for_bit(discussion, zeros):
    """The alpha-free half is cached per (beta, closing, trap), and
    0.0 == -0.0 makes the two zeros one key: after a warm cache, in either
    order of the zeros, every run gives the bits it gives from cold."""
    cases = [(initial, beta, exact_phase)
             for beta in (None, *zeros, 1.5, -1e-4)
             for exact_phase in (True, False) for initial in _BIT_INITIALS]
    want = [_cold_bits(discussion, *case) for case in cases]
    _set_up.cache_clear()
    protocol._closed_form.cache_clear()
    for _ in range(2):          # each key's first run fills its entry
        assert [_run_bits(discussion, *case) for case in cases] == want
    assert protocol._closed_form.cache_info().misses == 8


def test_a_run_reads_its_closed_form_once(discussion):
    """Every run looks its alpha-free half up once, a thermal run too, and
    only past the rounding guard: a refused beta never keys the cache."""
    for initial in (Coherent(1 + 1j), ThermalSample(10.0, 42, 200)):
        for exact_phase in (True, False):
            before = protocol._closed_form.cache_info()
            run_protocol(discussion, initial, exact_phase=exact_phase)
            info = protocol._closed_form.cache_info()
            assert (info.hits + info.misses
                    == before.hits + before.misses + 1)
    for beta in (math.nan, math.inf, 1e6):
        with pytest.raises(ProtocolError, match="beta"):
            run_protocol(discussion, Coherent(0), beta=beta)
    assert protocol._closed_form.cache_info() == info


@pytest.mark.parametrize("exact_phase", [True, False])
def test_a_beta_sweep_past_the_cache_keeps_the_cold_bits(discussion,
                                                         exact_phase):
    """A sweep over more betas than the cache holds evicts the first one;
    its next run computes the form again, to the cold bits."""
    first, initials = 1.5, (Coherent(1 + 1j), Coherent(-3 + 2j))
    want = [_cold_bits(discussion, initial, first, exact_phase)
            for initial in initials]
    size = protocol._closed_form.cache_info().maxsize
    for beta in [first] + [-1.0 - k / size for k in range(size)]:
        _run_bits(discussion, initials[0], beta, exact_phase)
    info = protocol._closed_form.cache_info()
    assert info.currsize == size
    assert [_run_bits(discussion, initial, first, exact_phase)
            for initial in initials] == want
    assert protocol._closed_form.cache_info().misses == info.misses + 1

import functools
import math
import time

import numpy as np
import pytest

from catsim import classical, fock_oracle, gaussian, verify
from catsim.protocol import _set_up


def test_full_suite_passes():
    results = verify.run_all()
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_quick_suite_is_fast_and_passes():
    start = time.monotonic()
    results = verify.run_all(quick=True)
    elapsed = time.monotonic() - start
    assert all(r.passed for r in results)
    assert len(results) < len(verify.run_all())
    assert elapsed < 10.0


def test_quick_rows_are_full_rows():
    """--quick picks checks and changes none: each of its rows equals the
    full-suite row of the same name, in every field."""
    full = {r.name: r for r in verify.run_all()}
    quick = verify.run_all(quick=True)
    assert quick == [full[r.name] for r in quick]


@pytest.mark.parametrize("quick", [False, True])
def test_run_all_calls_the_tuples_it_finds(monkeypatch, quick):
    """run_all calls whatever _FULL/_QUICK hold when it runs, once each in
    table order: a tracer swaps wrappers into those tuples."""
    calls = []

    def recording(check):
        @functools.wraps(check)
        def wrapper():
            calls.append(check.__name__)
            return check()
        return wrapper

    for attr in ("_FULL", "_QUICK"):
        monkeypatch.setattr(verify, attr, tuple(
            recording(check) for check in getattr(verify, attr)))
    verify.run_all(quick=quick)
    assert calls == [check.__name__ for check, in_quick in verify._CHECKS
                     if in_quick or not quick]


def test_run_all_diagonalises_each_matrix_once(monkeypatch):
    """One real eigh per Hamiltonian, shared by every time and initial
    state, and one per gate quadrature and basis size: 6 in all from cold
    caches, and none when the caches are warm.  A warm run finds every
    quench map it asks for in the cache, and a run builds only the Fock
    vectors its rows read: 38, however they are grouped into blocks.  A
    warm run makes one spectral product per propagation, which takes a
    row's every state to its every time, and one per displacement or
    squeeze, which takes a block at once: 7 + 7.  Each of those 14 images
    passes apply_gate's truncation check once."""
    fock_oracle._eigenbasis.cache_clear()
    dtypes = []
    eigh = np.linalg.eigh
    vectors = []
    coherent_to_fock = fock_oracle.coherent_to_fock
    products = []
    spectral = fock_oracle._spectral
    checks = []
    apply_gate = fock_oracle.apply_gate

    def counting(matrix, *args, **kwargs):
        dtypes.append(matrix.dtype)
        return eigh(matrix, *args, **kwargs)

    def building(alpha, dim):
        amps = coherent_to_fock(alpha, dim)
        vectors.append(amps.reshape(dim, -1).shape[1])  # its columns
        return amps

    def multiplying(*args):
        products.append(args)
        return spectral(*args)

    def checking(states):
        checks.append(states.shape)
        return apply_gate(states)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(fock_oracle, "coherent_to_fock", building)
    monkeypatch.setattr(fock_oracle, "_spectral", multiplying)
    monkeypatch.setattr(fock_oracle, "apply_gate", checking)
    verify.run_all()
    assert dtypes == [np.float64] * 6
    assert sum(vectors) == 38
    misses = gaussian.quench_linear_map.cache_info().misses
    products.clear()
    checks.clear()
    verify.run_all()
    assert len(dtypes) == 6
    assert gaussian.quench_linear_map.cache_info().misses == misses
    assert len(products) == 7 + 7
    assert len(checks) == 14


_GATE = fock_oracle._gate
_MAP = gaussian.quench_linear_map


@pytest.mark.parametrize("mutant", [
    # arg(-iz) = arg z - pi/2: phi without its pi/2
    lambda states, z, k: _GATE(states, -1j * complex(z), k),
    # |z| without its 1/k
    lambda states, z, k: _GATE(states, k * complex(z), k),
    # the gate's matrix, from the kernel on every basis vector, transposed
    lambda states, z, k: _GATE(np.eye(len(states)), z, k).T @ states,
], ids=["no_quarter_turn", "no_one_over_k", "transposed"])
@pytest.mark.parametrize("check", [verify.check_commutation_identity,
                                   verify.check_quench_decomposition])
def test_mutation_gate_formula(monkeypatch, check, mutant):
    """A wrong rotation, angle or orientation in the gates is caught by
    both rows that build gates, each by orders of magnitude."""
    monkeypatch.setattr(fock_oracle, "_gate", mutant)
    result = check()
    assert result.measured > 1e3 * result.tolerance


def test_mutation_times_reversed_in_the_block(monkeypatch):
    """A propagation that files its columns under the wrong times is caught
    by every row that reads a block at several times."""
    evolve = fock_oracle.evolve

    def reversed_times(bands, states, times):
        return evolve(bands, states, times[::-1])
    monkeypatch.setattr(fock_oracle, "evolve", reversed_times)
    missed = {r.name for r in verify.run_all()
              if r.measured > 1e2 * r.tolerance}
    assert {"boost_phase", "displaced_oscillator_fidelity",
            "quench_second_order"} <= missed


def test_results_carry_measurements():
    for r in verify.run_all(quick=True):
        assert r.measured >= 0.0
        assert r.tolerance > 0.0
        assert r.name
        assert r.headroom == r.measured / r.tolerance
        assert (r.headroom <= 1.0) == r.passed


def test_mutation_boost_phase_sign_flip(monkeypatch):
    """A sign error injected into the protocol's quench phase is caught."""
    original = gaussian.evolve_quench

    def flipped(alpha, omega1, omega2, g1, t):
        amplitude, phase = original(alpha, omega1, omega2, g1, t)
        boost = -alpha.real * g1 * t
        # the boost enters the phase with the wrong sign
        return amplitude, phase - 2.0 * boost

    monkeypatch.setattr(gaussian, "evolve_quench", flipped)
    result = verify.check_boost_phase()
    assert not result.passed


def test_mutation_drops_phase_entirely(monkeypatch):
    """Dropping the exact evolution's phase prefactor must be caught."""
    original = gaussian.evolve_displaced_oscillator

    def phaseless(alpha, omega, g, t):
        return original(alpha, omega, g, t)[0], 0.0

    monkeypatch.setattr(gaussian, "evolve_displaced_oscillator", phaseless)
    result = verify.check_displaced_oscillator_phase()
    # not a rounding-level miss: the mutant misses by orders of magnitude
    assert result.measured > 1e3 * result.tolerance


def test_mutation_oracle_drops_its_zero_point(monkeypatch):
    """The phase row reads the zero point of the oracle's Hamiltonian: with
    w1/4 + c taken off every diagonal entry, every propagated phase moves
    by (w1/4 + c) t and the row misses by orders of magnitude, while
    boost_phase, which reads phases relative to alpha = 0, still passes."""
    original = fock_oracle.quadratic_hamiltonian

    def no_zero_point(omega1, omega2, g1, dim):
        bands = original(omega1, omega2, g1, dim)
        shift = 0.25 * omega1 + 0.25 * omega2 ** 2 / omega1
        return bands._replace(diagonal=tuple(
            entry - shift for entry in bands.diagonal))

    monkeypatch.setattr(fock_oracle, "quadratic_hamiltonian", no_zero_point)
    result = verify.check_displaced_oscillator_phase()
    assert result.measured > 1e3 * result.tolerance
    assert verify.check_boost_phase().passed


@pytest.mark.parametrize("check", [verify.check_classical_period,
                                   verify.check_freefall_limit,
                                   verify.check_quench_classical_switch])
def test_mutation_rk4_step_second_order_error(monkeypatch, check):
    """An O(h^2) error per RK4 step, composed into the segment map, is
    caught by every RK4 check."""
    original = classical._rk4_step

    def sloppy(x, p, m, w2, accel, h):
        x1, p1 = original(x, p, m, w2, accel, h)
        k1p = -m * (w2 * x + accel)
        return x1 + 1e-3 * h * h * k1p / m, p1

    monkeypatch.setattr(classical, "_rk4_step", sloppy)
    assert not check().passed


def _mutant_map(S, C, keep_c2=True):
    """quench_linear_map's formulas with S(t, s, w2) and C(t, s, w2) given
    and c2 kept or dropped, s = w2 t."""
    def mutant(omega1, omega2, g1, t):
        s = omega2 * t
        S_, C_ = S(t, s, omega2), C(t, s, omega2)
        c1 = math.cos(s) - 1j * (omega1**2 + omega2**2) * S_ / (2.0 * omega1)
        c2 = (1j * (omega1**2 - omega2**2) * S_ / (2.0 * omega1) if keep_c2
              else 0j)
        d = -omega1 * g1 * C_ - 1j * g1 * S_
        return c1, c2, d
    return mutant


def _sin_over_w(t, s, w):
    return math.sin(s) / w


def _half_angle(t, s, w):
    return 0.5 * t * t * (math.sin(0.5 * s) / (0.5 * s)) ** 2


def _conjugated_drift(omega1, omega2, g1, t):
    c1, c2, d = _MAP(omega1, omega2, g1, t)
    return c1, c2, d.conjugate()


def test_preset_quench_keeps_its_drift(discussion):
    """At the preset s = w2 t ~ 5e-12, where 1 - cos s rounds to 0, the
    quench's drift is -w1 g1 t^2/2 - i g1 t to rounding."""
    omega1, omega2, g1, t = _set_up(discussion).couplings
    drift, _ = gaussian.evolve_quench(0j, omega1, omega2, g1, t)
    assert drift.real == pytest.approx(-omega1 * g1 * t * t / 2, rel=1e-15)
    assert drift.imag == pytest.approx(-g1 * t, rel=1e-15)


@pytest.mark.parametrize("mutant,failing", [
    # t in place of S = sin(s)/w2
    (_mutant_map(lambda t, s, w: t, _half_angle),
     {"displaced_oscillator_fidelity", "displaced_oscillator_phase",
      "boost_phase", "quench_decomposition", "quench_second_order",
      "mode_quadratic"}),
    # the squeezing term c2 a* dropped
    (_mutant_map(_sin_over_w, _half_angle, keep_c2=False),
     {"boost_phase", "quench_decomposition", "quench_second_order",
      "mode_quadratic"}),
    # g1 read as the soft-basis coupling g2 = sqrt(w1/w2) g1 and converted
    # back: the oracle's Hamiltonian and the map then disagree on g1
    (lambda omega1, omega2, g1, t: _MAP(
        omega1, omega2, math.sqrt(omega2 / omega1) * g1, t),
     {"boost_phase", "quench_decomposition", "quench_second_order",
      "mode_quadratic"}),
    # the drift conjugated: the fall's impulse Im d = -g1 S changes sign
    (_conjugated_drift,
     {"displaced_oscillator_fidelity", "displaced_oscillator_phase",
      "boost_phase", "quench_decomposition", "quench_second_order",
      "mode_quadratic"}),
], ids=["t_for_S", "no_c2", "g1_as_g2", "conj_d"])
def test_mutation_quench_map_fails_its_rows(monkeypatch, mutant, failing):
    """The displaced oscillator and the decomposition are read off the map,
    so a wrong map fails their rows too, each by orders of magnitude."""
    monkeypatch.setattr(gaussian, "quench_linear_map", mutant)
    missed = {r.name for r in verify.run_all()
              if r.measured > 1e2 * r.tolerance}
    assert failing <= missed


def test_mutation_full_angle_drift_fails_at_the_preset(monkeypatch,
                                                       discussion):
    """C = (1 - cos s)/w2^2 is the half-angle form's value, but at the
    preset it rounds to 0 and takes the drift's real part with it."""
    monkeypatch.setattr(gaussian, "quench_linear_map", _mutant_map(
        _sin_over_w, lambda t, s, w: (1.0 - math.cos(s)) / w**2))
    with pytest.raises(AssertionError):
        test_preset_quench_keeps_its_drift(discussion)


def test_wrap_keeps_a_phase_inside_pi():
    """A phase error below pi is kept exactly, however small; one past it
    loses the multiple of 2 pi."""
    assert verify._wrap(1e-17) == 1e-17
    assert verify._wrap(-1e-17) == -1e-17
    assert abs(verify._wrap(3 * math.pi)) == math.pi
    assert abs(verify._wrap(-3 * math.pi)) == math.pi
    assert verify._wrap(2.5) == 2.5
    assert verify._wrap(4.0) == pytest.approx(4.0 - math.tau, rel=1e-15)

import functools
import time

import numpy as np
import pytest

from catsim import classical, gaussian, verify
from catsim.gaussian import CoherentBranch


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
    """One eigh per Hamiltonian, shared by every time and initial state,
    and one per gate: 13 in all, of which the 6 Hamiltonians are real."""
    dtypes = []
    eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        dtypes.append(matrix.dtype)
        return eigh(matrix, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    verify.run_all()
    assert len(dtypes) == 13
    assert dtypes.count(np.float64) == 6


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

    def flipped(alpha, omega1, omega2, g2, t):
        amplitude, phase = original(alpha, omega1, omega2, g2, t)
        g1 = (omega2 / omega1) ** 0.5 * g2
        boost = -alpha.real * g1 * t
        # the boost enters the phase with the wrong sign
        return amplitude, phase - 2.0 * boost

    monkeypatch.setattr(gaussian, "evolve_quench", flipped)
    result = verify.check_boost_phase()
    assert not result.passed


def test_mutation_drops_phase_entirely(monkeypatch):
    """Dropping the exact evolution's phase prefactor must be caught."""
    original = gaussian.evolve_displaced_oscillator

    def phaseless(branch, omega, g, t):
        res = original(branch, omega, g, t)
        return CoherentBranch(res.alpha, branch.weight)

    monkeypatch.setattr(gaussian, "evolve_displaced_oscillator", phaseless)
    result = verify.check_displaced_oscillator_phase()
    assert not result.passed


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

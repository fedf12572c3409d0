import cmath
import time

from catsim import gaussian, verify
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


def test_results_carry_measurements():
    for r in verify.run_all(quick=True):
        assert r.measured >= 0.0
        assert r.tolerance > 0.0
        assert r.name


def test_mutation_boost_phase_sign_flip(monkeypatch):
    """A sign error injected into the protocol's quench phase is caught."""
    original = gaussian.evolve_quench

    def flipped(branch, omega1, omega2, g2, t, exp=cmath.exp):
        res = original(branch, omega1, omega2, g2, t, exp)
        g1 = (omega2 / omega1) ** 0.5 * g2
        boost = -branch.alpha.real * g1 * t
        # the boost enters the phase with the wrong sign
        return CoherentBranch(res.alpha, res.weight * exp(2j * -boost))

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

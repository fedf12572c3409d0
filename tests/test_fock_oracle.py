import cmath
import math

import numpy as np
import pytest

from catsim import fock_oracle as fo
from catsim.gaussian import coherent_overlap


def test_coherent_state_norm_and_occupation():
    psi = fo.coherent_to_fock(1.0 + 0.5j, 60)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # mean occupation <n> = |alpha|^2
    n = np.arange(len(psi))
    assert float(n @ (np.abs(psi) ** 2)) == pytest.approx(1.25, abs=1e-10)


def test_required_dim_rule():
    assert fo.required_dim(0.0) == 25
    assert fo.required_dim(2.0) == 41
    with pytest.raises(fo.TruncationError):
        fo.coherent_to_fock(2.0, 30)


@pytest.mark.parametrize("alpha", [
    math.nan, complex(math.inf, 0.0), complex(0.0, math.nan),
    1e200,                              # 4|alpha|^2 overflows
])
def test_bad_alpha_is_refused_by_name(alpha):
    with pytest.raises(ValueError, match="^alpha must be finite"):
        fo.required_dim(alpha)
    with pytest.raises(ValueError, match="^alpha must be finite"):
        fo.coherent_to_fock(alpha, 60)


def test_overlap_matches_analytic():
    a, b = 0.8 + 0.3j, -0.2 + 1.0j
    va = fo.coherent_to_fock(a, 60)
    vb = fo.coherent_to_fock(b, 60)
    log_modulus, phase = coherent_overlap(a, b)
    assert fo.overlap(va, vb) == pytest.approx(
        cmath.exp(complex(log_modulus, phase)), abs=1e-12)


def test_ladder_operator_algebra():
    a = fo.annihilation(30)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    # [a, ad] = 1 except at the truncation edge
    assert np.allclose(np.diag(comm)[:-1], 1.0)


def test_displacement_generates_coherent_state():
    alpha = 0.7 - 0.4j
    vac = np.eye(60, dtype=complex)[0]
    out = fo.apply_gate(vac, fo.displacement_matrix(alpha, 60))
    ref = fo.coherent_to_fock(alpha, 60)
    assert fo.fidelity(ref, out) == pytest.approx(1.0, abs=1e-12)
    assert abs(fo.overlap_phase(ref, out)) < 1e-12


def test_displacement_unitary():
    d = fo.displacement_matrix(0.5 + 0.2j, 40)
    assert np.allclose(d @ d.conj().T, np.eye(40), atol=1e-10)


def test_rotation_on_coherent_state():
    alpha, phi = 0.9 + 0.1j, 0.6
    out = fo.apply_gate(fo.coherent_to_fock(alpha, 60),
                        fo.rotation_matrix(phi, 60))
    ref = fo.coherent_to_fock(alpha * np.exp(1j * phi), 60)
    assert fo.fidelity(ref, out) == pytest.approx(1.0, abs=1e-12)


def test_squeeze_vacuum_overlap():
    # <0|S(z)|0> = 1/sqrt(cosh |z|)
    z = 0.5
    vac = np.eye(80, dtype=complex)[0]
    out = fo.apply_gate(vac, fo.squeeze_matrix(z, 80))
    assert abs(out[0]) == pytest.approx(1.0 / math.sqrt(math.cosh(z)),
                                             abs=1e-10)
    # squeezed vacuum only populates even levels
    assert np.max(np.abs(out[1::2])) < 1e-12


def test_mode_hamiltonian_structure():
    h = fo.mode_hamiltonian(2.0, 0.3, 10)
    assert h.dtype == np.float64        # so its eigh is the real one
    assert np.allclose(h, h.conj().T)
    assert h[3, 3] == pytest.approx(6.0)
    assert h[0, 1] == pytest.approx(0.3)


def test_quadratic_hamiltonian_matches_mode_form():
    # at omega_basis = omega_trap the quadratic form is w(ad a + 1/2) + g X
    dim = 12
    hq = fo.quadratic_hamiltonian(2.0, 2.0, 0.3, dim)
    hm = fo.mode_hamiltonian(2.0, 0.3, dim) + np.eye(dim)  # + w/2
    assert hq.dtype == np.float64
    # the truncation edge corrupts the last row/column of P^2 and X^2
    assert np.allclose(hq[:-2, :-2], hm[:-2, :-2], atol=1e-12)


def test_evolve_schrodinger_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        fo.propagator(h)(psi, 0.1)


def _displacement_hamiltonian(omega, g, dim):
    """w ad a + i g (ad - a): Hermitian, with complex eigenvectors."""
    a = fo.annihilation(dim)
    return omega * a.T @ a + 1j * g * (a.T - a)


@pytest.mark.parametrize("hamiltonian", [
    fo.mode_hamiltonian(1.0, 0.3, 40),
    fo.quadratic_hamiltonian(1.0, 0.5, 0.2, 40),
    _displacement_hamiltonian(1.0, 0.3, 40),
], ids=["mode", "quadratic", "complex"])
def test_propagator_matches_expm(hamiltonian):
    """One diagonalisation serves every t, each time equal to the dense
    exponential of -iHt applied to the state."""
    psi = fo.coherent_to_fock(0.5 + 0.3j, 40)
    evolve = fo.propagator(hamiltonian)
    for t in (0.0, 0.1, 0.7, 2.0):
        ref = fo.expm(-1j * hamiltonian * t) @ psi
        assert np.max(np.abs(evolve(psi, t) - ref)) < 1e-12


@pytest.mark.parametrize("generator", [
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),    # one triangle only
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),    # Hermitian
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),   # real diagonal
    np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex),
])
def test_expm_rejects_non_anti_hermitian(generator):
    with pytest.raises(ValueError, match="anti-Hermitian"):
        fo.expm(generator)


def test_expm_matches_taylor_series():
    """The eigenbasis exponential against the power series, summed after
    halving the generator 2^6 times and squared back."""
    rng = np.random.default_rng(3)
    b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    k = b - b.conj().T                  # anti-Hermitian, norm ~ 10
    small = k / 2**6
    term = series = np.eye(12, dtype=complex)
    for n in range(1, 25):
        term = term @ small / n
        series = series + term
    for _ in range(6):
        series = series @ series
    assert np.max(np.abs(fo.expm(k) - series)) < 1e-12


def test_evolve_schrodinger_free_rotation():
    alpha, omega, t = 0.8 + 0.0j, 2.0, 0.7
    h = fo.mode_hamiltonian(omega, 0.0, 60)
    out = fo.propagator(h)(fo.coherent_to_fock(alpha, 60), t)
    ref = fo.coherent_to_fock(alpha * np.exp(-1j * omega * t), 60)
    assert fo.fidelity(ref, out) == pytest.approx(1.0, abs=1e-10)


def test_health_check_catches_tail_mass():
    amps = np.zeros(30, dtype=complex)
    amps[-1] = 1.0
    with pytest.raises(fo.TruncationError, match="top-level"):
        fo.check_health(amps)


def test_health_check_catches_norm_drift():
    amps = np.zeros(30, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.check_health(amps)


def test_nan_state_fails_the_health_check():
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.check_health(np.full(30, np.nan))
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.apply_gate(fo.coherent_to_fock(0, 30), np.eye(30) * np.nan)


def test_gate_that_fills_the_top_level_raises():
    # D(3) is unitary, so the norm holds, but |3> puts ~1e-7 on level 29
    with pytest.raises(fo.TruncationError, match="top-level"):
        fo.apply_gate(fo.coherent_to_fock(0, 30),
                      fo.displacement_matrix(3.0, 30))


def test_propagation_that_fills_the_top_level_raises():
    h = fo.mode_hamiltonian(1.0, 5.0, 30)
    with pytest.raises(fo.TruncationError, match="top-level"):
        fo.propagator(h)(fo.coherent_to_fock(0, 30), 1.0)

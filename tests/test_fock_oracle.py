import cmath
import math
import warnings

import numpy as np
import pytest

from catsim import fock_oracle as fo
from catsim import protocol, verify


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
    """<a|b> = exp(-|a|^2/2 - |b|^2/2 + a* b); at the readout, where
    b = a_u + delta, it is the kernel's visibility with no phase: under the
    plain closing delta = (c1 + c2 - 1) beta is a real multiple of a_u = d,
    so Im(a_u* delta) = 0."""
    a, b = 0.8 + 0.3j, -0.2 + 1.0j
    va = fo.coherent_to_fock(a, 60)
    vb = fo.coherent_to_fock(b, 60)
    assert fo.overlap(va, vb) == pytest.approx(cmath.exp(
        -0.5 * (abs(a) ** 2 + abs(b) ** 2) + a.conjugate() * b), abs=1e-12)
    _, _, a_u, _, _, delta, _, visibility = protocol._closed_form(
        1.5, False, (*verify._QUENCH, 1.0))
    assert visibility < 0.95
    value = fo.overlap(fo.coherent_to_fock(a_u, 60),
                       fo.coherent_to_fock(a_u + delta, 60))
    assert abs(value - visibility) < 1e-12


def test_ladder_operator_algebra():
    a = np.diag(np.sqrt(np.arange(1.0, 30)), 1)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    # [a, ad] = 1 except at the truncation edge
    assert np.allclose(np.diag(comm)[:-1], 1.0)


def displacement_matrix(alpha, dim):
    """D(alpha)'s matrix: the gate kernel applied to every basis vector."""
    return fo._gate(np.eye(dim), alpha, 1)


def squeeze_matrix(z, dim):
    return fo._gate(np.eye(dim), z, 2)


def test_displacement_generates_coherent_state():
    alpha = 0.7 - 0.4j
    vac = np.eye(60, dtype=complex)[0]
    out = fo.displace(vac, alpha)
    ref = fo.coherent_to_fock(alpha, 60)
    assert fo.fidelity(ref, out) == pytest.approx(1.0, abs=1e-12)
    assert abs(fo.overlap_phase(ref, out)) < 1e-12


def test_displacement_unitary():
    d = displacement_matrix(0.5 + 0.2j, 40)
    assert np.allclose(d @ d.conj().T, np.eye(40), atol=1e-10)


def test_rotation_on_coherent_state():
    """R(phi) |alpha> = |alpha e^{i phi}> coefficient by coefficient in the
    truncated basis: the diagonal rotation is read off the amplitude."""
    alpha, phi = 0.9 + 0.1j, 0.6
    out = np.exp(1j * phi * np.arange(60)) * fo.coherent_to_fock(alpha, 60)
    ref = fo.coherent_to_fock(alpha * np.exp(1j * phi), 60)
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_squeeze_vacuum_overlap():
    # <0|S(z)|0> = 1/sqrt(cosh |z|)
    z = 0.5
    vac = np.eye(80, dtype=complex)[0]
    out = fo.squeeze(vac, z)
    assert abs(out[0]) == pytest.approx(1.0 / math.sqrt(math.cosh(z)),
                                             abs=1e-10)
    # squeezed vacuum only populates even levels
    assert np.max(np.abs(out[1::2])) < 1e-12


@pytest.mark.parametrize("dim", [2, 10, 60])
def test_hamiltonians_match_their_ladder_products(dim):
    """Each Hamiltonian, written from its bands, is a real, exactly
    symmetric array (so its eigh is the real one) equal to its
    ladder-operator products, including the truncation edge, where a ad is
    0 on the top level.  At w2 = w1 = w it is the displaced oscillator
    w (ad a + 1/2) + g X off the top level."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    X, D = a + ad, ad - a
    equal = fo.quadratic_hamiltonian(1.3, 1.3, -0.4, dim)
    for bands, products in (
            (equal, -0.325 * D @ D + 0.325 * X @ X - 0.4 * X),
            (fo.quadratic_hamiltonian(1.0, 0.5, 0.2, dim),
             -0.25 * D @ D + 0.0625 * X @ X + 0.2 * X),
            (fo.quadratic_hamiltonian(0.5, 2.0, -0.3, dim),
             -0.125 * D @ D + 2.0 * X @ X - 0.3 * X)):
        h = bands.matrix()
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert (np.max(np.abs(h - products))
                <= 1e-13 * np.max(np.abs(products)))
    # the edge: a ad = diag(1, ..., dim - 1, 0), so the top diagonal entry
    # of X^2 and P^2 is dim - 1, not 2 dim - 1
    assert (a @ ad)[-1, -1] == 0.0
    assert fo.quadratic_hamiltonian(1.0, 1.0, 0.0, dim).matrix()[-1, -1] == (
        pytest.approx(0.5 * (dim - 1)))
    mode = 1.3 * (ad @ a + 0.5 * np.eye(dim)) - 0.4 * X
    assert (np.max(np.abs(equal.matrix() - mode)[:-1, :-1])
            <= 1e-13 * np.max(np.abs(mode)))


@pytest.mark.parametrize("z", [
    math.nan, math.inf, -math.inf, complex(0.0, math.inf),
    complex(math.inf, -math.inf), complex(0.5, math.nan),
])
@pytest.mark.parametrize("gate,name", [(displacement_matrix, "alpha"),
                                       (squeeze_matrix, "z")])
def test_gate_refuses_a_non_finite_argument(gate, name, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no NaN arithmetic first
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gate(z, 20)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_propagator_refuses_non_finite_bands(bad):
    """A NaN or infinite entry on the diagonal or in either coupling is
    refused by evolve and by the eigenbasis cache that gates read, and
    again on a second call: the refusal is not cached."""
    finite = fo.quadratic_hamiltonian(1.0, 0.5, 0.2, 4)
    for bands in (finite._replace(diagonal=(0.0, bad, 1.0, 2.0)),
                  finite._replace(couplings=(bad, 0.1)),
                  finite._replace(couplings=(0.1, bad))):
        for _ in range(2):
            with pytest.raises(ValueError, match="^bands must be finite"):
                fo.evolve(bands, np.eye(4)[0], 1.0)
            with pytest.raises(ValueError, match="^bands must be finite"):
                fo._eigenbasis(bands)


def _series_expm(generator):
    """exp(K) from its power series, summed after halving K until its
    1-norm is below 1/2 and squared back."""
    halvings = int(np.linalg.norm(generator, 1)).bit_length() + 1
    small = generator / 2**halvings
    term = series = np.eye(len(generator), dtype=complex)
    for n in range(1, 25):
        term = term @ small / n
        series = series + term
    for _ in range(halvings):
        series = series @ series
    return series


@pytest.mark.parametrize("bands", [
    fo.quadratic_hamiltonian(1.0, 1.0, 0.3, 40),
    fo.quadratic_hamiltonian(1.0, 0.5, 0.2, 40),
], ids=["equal_frequencies", "quench"])
def test_propagator_matches_expm(bands):
    """One diagonalisation serves every t, each time equal to the power
    series of exp(-iHt) applied to the state."""
    psi = fo.coherent_to_fock(0.5 + 0.3j, 40)
    for t in (0.0, 0.1, 0.7, 2.0):
        ref = _series_expm(-1j * bands.matrix() * t) @ psi
        assert np.max(np.abs(fo.evolve(bands, psi, t) - ref)) < 1e-12


def test_gate_matches_taylor_series():
    """Each gate, a turned quadrature exponential applied to every basis
    vector at once, against the power series of its generator
    (z ad^k - z* a^k)/k, for z in every quadrant, on both axes and at 0;
    one vector takes the same gate as a block of them."""
    for dim in (12, 40):
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        vector = np.linspace(1.0, 2.0, dim) * (1.0 - 0.5j)
        for z in (0.0, 0.5 + 0.2j, -1.3 + 0.1j, -2j, 3.0,
                  0.3 * cmath.exp(0.7j)):
            for k in (1, 2):
                lower = np.linalg.matrix_power(a, k)
                series = _series_expm((z * lower.T - np.conj(z) * lower) / k)
                gate = fo._gate(np.eye(dim), z, k)
                assert np.max(np.abs(gate - series)) < 1e-12
                assert np.max(np.abs(fo._gate(vector, z, k)
                                     - gate @ vector)) < 1e-13


def test_propagator_caches_by_content(monkeypatch):
    """The cached eigenbasis is read-only, two different bands of one size
    evolve differently, and a gate and a propagation under the same
    quadrature Q_1 = a + ad share one eigh."""
    bands = fo.quadratic_hamiltonian(1.0, 1.0, 0.3, 30)
    psi = fo.coherent_to_fock(0.5, 30)
    before = fo.evolve(bands, psi, 0.7)
    for cached in fo._eigenbasis(bands):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    other = fo.evolve(fo.quadratic_hamiltonian(1.0, 1.0, 0.2, 30), psi, 0.7)
    assert np.max(np.abs(other - before)) > 1e-3

    fo._eigenbasis.cache_clear()
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    quadrature = fo.Bands((0.0,) * 30, (1.0,))
    # D(alpha) = exp(-i |alpha| Q_1) for alpha = -i |alpha|, where phi = 0
    gated = fo.displace(psi, -0.4j)
    propagated = fo.evolve(quadrature, psi, 0.4)
    assert calls == [(30, 30)]
    assert np.max(np.abs(gated - propagated)) < 1e-14


def test_propagator_free_rotation():
    """At w2 = w1 = w and no coupling, |alpha> turns to |alpha e^{-iwt}>
    with the zero point's phase -w t/2."""
    alpha, omega, t = 0.8 + 0.0j, 2.0, 0.7
    h = fo.quadratic_hamiltonian(omega, omega, 0.0, 60)
    out = fo.evolve(h, fo.coherent_to_fock(alpha, 60), t)
    ref = fo.coherent_to_fock(alpha * np.exp(-1j * omega * t), 60)
    assert fo.fidelity(ref, out) == pytest.approx(1.0, abs=1e-10)
    assert fo.overlap_phase(ref, out) == pytest.approx(-0.5 * omega * t,
                                                       abs=1e-10)


def test_health_check_catches_tail_mass():
    amps = np.zeros(30, dtype=complex)
    amps[-1] = 1.0
    with pytest.raises(fo.TruncationError, match="top-level"):
        fo.apply_gate(amps)


def test_health_check_catches_norm_drift():
    amps = np.zeros(30, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.apply_gate(amps)


def test_nan_state_fails_the_health_check():
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.apply_gate(np.full(30, np.nan))
    with pytest.raises(fo.TruncationError, match="norm"):
        fo.evolve(fo.quadratic_hamiltonian(1.0, 1.0, 0.0, 30),
                  fo.coherent_to_fock(0, 30) * np.nan, 1.0)


def test_gate_that_fills_the_top_level_raises():
    # D(3) is unitary, so the norm holds, but |3> puts ~1e-7 on level 29
    with pytest.raises(fo.TruncationError, match="top-level"):
        fo.displace(fo.coherent_to_fock(0, 30), 3.0)


def test_propagation_that_fills_the_top_level_raises():
    h = fo.quadratic_hamiltonian(1.0, 1.0, 5.0, 30)
    with pytest.raises(fo.TruncationError, match="top-level occupation 0.111"):
        fo.evolve(h, fo.coherent_to_fock(0, 30), 1.0)


def test_block_propagation_matches_each_column():
    """One propagation of a (dim, n) block to m times gives every column at
    every time, in shape (dim, n, m), equal to each column propagated
    alone to each time."""
    bands = fo.quadratic_hamiltonian(1.0, 0.5, 0.2, 60)
    alphas, times = (0j, 0.5 + 0.3j, -1.0 + 0.2j, 1.5j), (0.0, 0.3, 1.1)
    block = fo.evolve(bands, fo.coherent_to_fock(alphas, 60), times)
    assert block.shape == (60, len(alphas), len(times))
    for i, alpha in enumerate(alphas):
        for j, t in enumerate(times):
            alone = fo.evolve(bands, fo.coherent_to_fock(alpha, 60), t)
            assert alone.shape == (60,)
            assert np.max(np.abs(block[:, i, j] - alone)) <= 1e-14


def test_coherent_block_stacks_the_vectors():
    """A sequence of amplitudes gives the (dim, n) block of their vectors,
    bit for bit; its widest amplitude sets the truncation rule, and a NaN
    anywhere in it is refused by name."""
    alphas = [0j, 0.5 + 0.3j, -1.2 + 0.7j, 2.0, 1e-3j, 3.0 - 4.0j]
    block = fo.coherent_to_fock(alphas, 130)
    assert block.shape == (130, len(alphas))
    assert np.array_equal(block, np.stack(
        [fo.coherent_to_fock(alpha, 130) for alpha in alphas], axis=1))
    with pytest.raises(fo.TruncationError,
                       match=r"\|alpha\|=5; need at least 125"):
        fo.coherent_to_fock(alphas, 100)
    with pytest.raises(ValueError, match="^alpha must be finite"):
        fo.coherent_to_fock([0.5, complex(0.0, math.nan), 0.1], 60)


@pytest.mark.parametrize("column", [0, 2])
def test_health_check_refuses_a_block_for_one_column(column):
    """A block is refused when any one column drifts in norm or fills its
    top level, and the message names the worst value."""
    block = fo.coherent_to_fock((0.3, 0.5j, -0.2, 0.1), 30)
    assert fo.apply_gate(block) is block        # checked, not copied
    drifted = block.copy()
    drifted[:, column] *= 1.001
    drifted[:, 3] *= 0.9999         # drifts too, but less
    with pytest.raises(fo.TruncationError, match="state norm 1.001 "):
        fo.apply_gate(drifted)
    filled = block.copy()
    filled[-1, column] = 1e-4       # its norm moves by 5e-9 only
    with pytest.raises(fo.TruncationError, match="top-level occupation 1e-08"):
        fo.apply_gate(filled)
    with pytest.raises(fo.TruncationError, match="state norm nan"):
        fo.apply_gate(np.stack([block, block * np.nan], axis=2))
    fo.apply_gate(block[:, :0])       # no column, nothing to refuse

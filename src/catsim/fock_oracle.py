"""Truncated number-basis simulator used as a brute-force oracle.

Everything here is dense and deliberately simple: the module exists to
verify the closed-form evolutions of ``gaussian`` independently, so it
holds no closed forms of its own (the analytic coherent overlap is
``gaussian.coherent_overlap``).  A state is a plain complex array of
number-basis amplitudes and a gate is its dense matrix.  Unitaries are
taken in the eigenbasis of a dense ``eigh``, with numpy only.  A gate (a
displacement, k = 1, or a squeeze, k = 2) is a rotated quadrature
exponential: with R(phi) = diag(e^{i phi n}), exactly in the truncated
basis, exp((z ad^k - z* a^k)/k) = R(phi) exp(-i (|z|/k) Q_k) R(phi)^dagger
with phi = (arg z + pi/2)/k and the real symmetric Q_k = a^k + ad^k.  The
real ``eigh`` of Q_k is cached per (k, dim), so every gate of a basis
shares two diagonalisations.  A Hamiltonian is a real symmetric array, so
its ``eigh`` is the real one, and ``propagator`` caches it by the
matrix's content: it runs once per Hamiltonian and is shared across every
time and initial state.  All global-phase comparisons should go through
``overlap_phase`` (the phase of <reference|state>) rather than
per-component arguments.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-8
TAIL_TOL = 1e-10
HERMITIAN_TOL = 1e-12           # relative to the largest entry of iK or H


class TruncationError(ValueError):
    """Truncated basis too small for the requested state or operation."""


def check_health(psi: np.ndarray) -> None:
    """Raise if the state's norm drifted or its top level is occupied: the
    truncated basis is too small for it."""
    n = float(np.linalg.norm(psi))
    if not abs(n - 1.0) <= NORM_TOL:        # a NaN fails too
        raise TruncationError(
            f"state norm {n:.12g} drifted beyond {NORM_TOL:g}; "
            "increase the basis size")
    tail = float(abs(psi[-1]) ** 2)
    if not tail <= TAIL_TOL:
        raise TruncationError(
            f"top-level occupation {tail:.3g} exceeds {TAIL_TOL:g}; "
            "increase the basis size")


def annihilation(dim: int) -> np.ndarray:
    """The real matrix of a, so Hamiltonians built from it stay real."""
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def required_dim(alpha: complex) -> int:
    r = abs(complex(alpha))
    need = 4.0 * r * r + 25.0       # inf, not OverflowError, on overflow
    if not math.isfinite(need):
        raise ValueError(
            f"alpha must be finite with a finite 4|alpha|^2, got {alpha!r}")
    return int(math.ceil(need))


def coherent_to_fock(alpha: complex, dim: int) -> np.ndarray:
    """amps[n] = e^{-|a|^2/2} a^n / sqrt(n!), with the truncation rule
    dim > 4|a|^2 + 25."""
    need = required_dim(alpha)
    if dim <= need - 1:
        raise TruncationError(
            f"dim={dim} too small for |alpha|={abs(alpha):.3g}; "
            f"need at least {need}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    amps[1:] = np.cumprod(alpha / np.sqrt(np.arange(1.0, dim)))
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    return amps


def overlap(reference: np.ndarray, state: np.ndarray) -> complex:
    return complex(np.vdot(reference, state))


def fidelity(reference: np.ndarray, state: np.ndarray) -> float:
    return abs(overlap(reference, state)) ** 2


def overlap_phase(reference: np.ndarray, state: np.ndarray) -> float:
    return float(np.angle(overlap(reference, state)))


def _eigh(herm: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of ``herm``, refused if it is not
    Hermitian; ``what`` names it in the error."""
    dev = float(np.max(np.abs(herm - herm.conj().T)))
    if not dev <= HERMITIAN_TOL * float(np.max(np.abs(herm))):
        # eigh would silently read only one triangle; NaN fails here too
        raise ValueError(f"{what} (max dev {dev:g})")
    return np.linalg.eigh(herm)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays`` made read-only, since a cache hands them to every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


# --- Gates --------------------------------------------------------------------

@lru_cache(maxsize=8)
def _quadrature(power: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors of Q_k = a^k + ad^k, k = ``power``."""
    lower = np.linalg.matrix_power(annihilation(dim), power)
    return _frozen(*_eigh(lower + lower.T, "quadrature not Hermitian"))


def _gate(z: complex, power: int, dim: int) -> np.ndarray:
    """exp((z ad^k - z* a^k)/k), k = ``power``, as R(phi) exp(-i (|z|/k) Q_k)
    R(phi)^dagger with phi = (arg z + pi/2)/k: R(phi) a^k R(phi)^dagger =
    e^{-ik phi} a^k holds exactly in the truncated basis."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(
            f"{'alpha' if power == 1 else 'z'} must be finite, got {z!r}")
    energies, vectors = _quadrature(power, dim)
    turn = np.exp(1j * ((cmath.phase(z) + 0.5 * math.pi) / power)
                  * np.arange(dim))
    inner = (vectors * np.exp(-1j * (abs(z) / power) * energies)) @ vectors.T
    return turn[:, None] * inner * turn.conj()


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    return _gate(alpha, 1, dim)


def squeeze_matrix(z: complex, dim: int) -> np.ndarray:
    return _gate(z, 2, dim)


def rotation_matrix(phi: float, dim: int) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.arange(dim)))


def apply_gate(psi: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """``gate @ psi`` for a dense gate matrix, checked for truncation."""
    out = gate @ psi
    check_health(out)
    return out


# --- Hamiltonians and propagation ---------------------------------------------

def mode_hamiltonian(omega: float, g: float, dim: int) -> np.ndarray:
    """H/hbar = w ad a + g (ad + a), in rad/s, as a real array."""
    a = annihilation(dim)
    ad = a.T
    return omega * ad @ a + g * (ad + a)


def quadratic_hamiltonian(omega_basis: float, omega_trap: float, g_lin: float,
                          dim: int) -> np.ndarray:
    """Trap Hamiltonian in the mode basis of ``omega_basis``.

    H/hbar = (w_b/4) P^2 + (w^2 / 4 w_b) X^2 + g X with X = a + ad,
    P = i(ad - a); ``g_lin`` is the linear coupling (e.g. the gravitational
    drive) in rad/s.  Includes the zero-point offset, which only affects
    global phase.  Real, since P^2 = -(ad - a)^2.
    """
    a = annihilation(dim)
    ad = a.T
    X = a + ad
    D = ad - a
    return (-0.25 * omega_basis * D @ D
            + 0.25 * (omega_trap ** 2 / omega_basis) * X @ X
            + g_lin * X)


@lru_cache(maxsize=8)
def _eigenbasis(shape: tuple[int, ...], dtype: str, content: bytes
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and their adjoint of the Hamiltonian whose
    shape, dtype and bytes are given: a key on its content, so a changed
    matrix is diagonalised anew."""
    hamiltonian = np.frombuffer(content, dtype=dtype).reshape(shape)
    energies, vectors = _eigh(hamiltonian, "Hamiltonian not Hermitian")
    return _frozen(energies, vectors, vectors.conj().T)


def propagator(hamiltonian: np.ndarray
               ) -> Callable[[np.ndarray, float], np.ndarray]:
    """``evolve(psi, t)``, the state exp(-i H t) psi checked for
    truncation, for one Hermitian H diagonalised once per content."""
    energies, vectors, inverse = _eigenbasis(
        hamiltonian.shape, hamiltonian.dtype.str, hamiltonian.tobytes())

    def evolve(psi: np.ndarray, t: float) -> np.ndarray:
        out = vectors @ (np.exp(-1j * energies * t) * (inverse @ psi))
        check_health(out)
        return out
    return evolve

"""Truncated number-basis simulator used as a brute-force oracle.

Everything here is dense and deliberately simple: the module exists to
verify the closed-form evolutions of ``gaussian`` independently, so it
holds no closed forms of its own (the analytic coherent overlap is
``gaussian.coherent_overlap``).  A state is a plain complex array of
number-basis amplitudes and a gate is its dense matrix.  Unitaries are
taken in the eigenbasis of a dense ``eigh``, with numpy only.  A gate (a
displacement or a squeeze) is ``expm`` of its anti-Hermitian generator:
one ``eigh`` per gate.  A Hamiltonian is a real symmetric array, so its
``eigh`` is the real one, and ``propagator`` runs it once per
Hamiltonian and shares it across every time and initial state.  All
global-phase comparisons should go through ``overlap_phase`` (the phase
of <reference|state>) rather than per-component arguments.
"""

from __future__ import annotations

import math
from collections.abc import Callable

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


def expm(generator: np.ndarray) -> np.ndarray:
    """exp(K) of an anti-Hermitian K as V diag(e^{-iE}) V^dagger, where
    E, V are the eigenvalues and eigenvectors of the Hermitian iK."""
    energies, vectors = _eigh(1j * generator, "generator not anti-Hermitian")
    return (vectors * np.exp(-1j * energies)) @ vectors.conj().T


# --- Gates --------------------------------------------------------------------

def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    a = annihilation(dim)
    return expm(alpha * a.T - np.conj(alpha) * a)


def squeeze_matrix(z: complex, dim: int) -> np.ndarray:
    a = annihilation(dim)
    ad = a.T
    return expm(0.5 * (z * ad @ ad - np.conj(z) * a @ a))


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


def propagator(hamiltonian: np.ndarray
               ) -> Callable[[np.ndarray, float], np.ndarray]:
    """``evolve(psi, t)``, the state exp(-i H t) psi checked for
    truncation, for one Hermitian H diagonalised here once."""
    energies, vectors = _eigh(hamiltonian, "Hamiltonian not Hermitian")
    inverse = vectors.conj().T

    def evolve(psi: np.ndarray, t: float) -> np.ndarray:
        out = vectors @ (np.exp(-1j * energies * t) * (inverse @ psi))
        check_health(out)
        return out
    return evolve

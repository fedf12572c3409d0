"""Truncated number-basis simulator used as a brute-force oracle.

Everything here is dense and deliberately simple: the module exists to
verify the closed-form evolutions of ``gaussian`` independently, so it
holds no closed forms of its own (the analytic coherent overlap is
``gaussian.coherent_overlap``).  Every unitary is the exponential of an
anti-Hermitian generator K (-iHt, a displacement or a squeeze), which
``expm`` takes in the eigenbasis of the Hermitian iK: one dense ``eigh``
per unitary, with numpy only.  All global-phase comparisons should go
through ``overlap_phase`` (the phase of <reference|state>) rather than
per-component arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-8
TAIL_TOL = 1e-10
ANTI_HERMITIAN_TOL = 1e-12      # relative to the largest generator entry


class TruncationError(ValueError):
    """Truncated basis too small for the requested state or operation."""


class FockVector(NamedTuple):
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tail_mass(self) -> float:
        return float(abs(self.amps[-1]) ** 2)

    def check_health(self) -> None:
        n = self.norm()
        if abs(n - 1.0) > NORM_TOL:
            raise TruncationError(
                f"state norm {n:.12g} drifted beyond {NORM_TOL:g}; "
                "increase the basis size")
        if self.tail_mass() > TAIL_TOL:
            raise TruncationError(
                f"top-level occupation {self.tail_mass():.3g} exceeds "
                f"{TAIL_TOL:g}; increase the basis size")


def annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def required_dim(alpha: complex) -> int:
    return int(math.ceil(4.0 * abs(alpha) ** 2 + 25.0))


def coherent_to_fock(alpha: complex, dim: int) -> FockVector:
    """amps[n] = e^{-|a|^2/2} a^n / sqrt(n!), with the truncation rule
    dim > 4|a|^2 + 25."""
    need = required_dim(alpha)
    if dim <= need - 1:
        raise TruncationError(
            f"dim={dim} too small for |alpha|={abs(alpha):.3g}; "
            f"need at least {need}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    return FockVector(amps)


def overlap(reference: FockVector, state: FockVector) -> complex:
    return complex(np.vdot(reference.amps, state.amps))


def fidelity(reference: FockVector, state: FockVector) -> float:
    return abs(overlap(reference, state)) ** 2


def overlap_phase(reference: FockVector, state: FockVector) -> float:
    return float(np.angle(overlap(reference, state)))


def expm(generator: np.ndarray) -> np.ndarray:
    """exp(K) of an anti-Hermitian K as V diag(e^{-iE}) V^dagger, where
    E, V are the eigenvalues and eigenvectors of the Hermitian iK."""
    herm = 1j * generator
    dev = float(np.max(np.abs(herm - herm.conj().T)))
    if not dev <= ANTI_HERMITIAN_TOL * float(np.max(np.abs(herm))):
        # eigh would silently read only one triangle; NaN fails here too
        raise ValueError(f"generator not anti-Hermitian (max dev {dev:g})")
    energies, vectors = np.linalg.eigh(herm)
    return (vectors * np.exp(-1j * energies)) @ vectors.conj().T


# --- Gates --------------------------------------------------------------------

class Displace(NamedTuple):
    alpha: complex


class Squeeze(NamedTuple):
    z: complex


class Rotate(NamedTuple):
    phi: float


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    a = annihilation(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_matrix(z: complex, dim: int) -> np.ndarray:
    a = annihilation(dim)
    ad = a.conj().T
    return expm(0.5 * (z * ad @ ad - np.conj(z) * a @ a))


def rotation_matrix(phi: float, dim: int) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.arange(dim)))


def apply_gate(psi: FockVector, gate: Displace | Squeeze | Rotate) -> FockVector:
    if isinstance(gate, Displace):
        mat = displacement_matrix(gate.alpha, psi.dim)
    elif isinstance(gate, Squeeze):
        mat = squeeze_matrix(gate.z, psi.dim)
    elif isinstance(gate, Rotate):
        mat = rotation_matrix(gate.phi, psi.dim)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    out = FockVector(mat @ psi.amps)
    out.check_health()
    return out


# --- Hamiltonians and propagation ---------------------------------------------

def mode_hamiltonian(omega: float, g: float, dim: int) -> np.ndarray:
    """H/hbar = w ad a + g (ad + a), in rad/s."""
    a = annihilation(dim)
    ad = a.conj().T
    return omega * ad @ a + g * (ad + a)


def quadratic_hamiltonian(omega_basis: float, omega_trap: float, g_lin: float,
                          dim: int) -> np.ndarray:
    """Trap Hamiltonian in the mode basis of ``omega_basis``.

    H/hbar = (w_b/4) P^2 + (w^2 / 4 w_b) X^2 + g X with X = a + ad,
    P = i(ad - a); ``g_lin`` is the linear coupling (e.g. the gravitational
    drive) in rad/s.  Includes the zero-point offset, which only affects
    global phase.
    """
    a = annihilation(dim)
    ad = a.conj().T
    X = a + ad
    P = 1j * (ad - a)
    return (0.25 * omega_basis * P @ P
            + 0.25 * (omega_trap ** 2 / omega_basis) * X @ X
            + g_lin * X)


def evolve_schrodinger(psi: FockVector, hamiltonian: np.ndarray,
                       t: float) -> FockVector:
    """Propagate by expm(-i H t); ``expm`` rejects a non-Hermitian H at any
    t != 0."""
    out = FockVector(expm(-1j * hamiltonian * t) @ psi.amps)
    out.check_health()
    return out

"""Truncated number-basis simulator used as a brute-force oracle.

The module exists to verify the closed-form evolutions of ``gaussian``
independently: it holds no closed forms of its own and uses numpy only.
A state is a complex vector of number-basis amplitudes, or a (dim, n)
block of them, one per column.  A real symmetric operator is held as its
``Bands``: dim, u and the c_k of u (ad a + a ad) + sum_k c_k (a^k + ad^k)
in dim levels, a tuple record that keys the module's one cache, of real
eigenbases.  Every exp(-i t A) is applied, never built, by ``_spectral``
in that cached eigenbasis: a whole block at a whole sequence of times in
one product each way.  ``evolve(bands, states, times)`` propagates under
a Hamiltonian's bands, one ``eigh`` serving every time and state.  A
displacement (k = 1) or squeeze (k = 2) is a quadrature exponential
turned by R(phi) = diag(e^{i phi n}): exactly in the truncated basis,
exp((z ad^k - z* a^k)/k) = R(phi) exp(-i (|z|/k) Q_k) R(phi)^dagger with
phi = (arg z + pi/2)/k and Q_k = a^k + ad^k.  Every propagation's and
gate's image passes ``apply_gate``'s truncation check, which refuses a
block for its worst column.  Global phases are compared through
``overlap_phase`` (the phase of <reference|state>), never per component.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-8
TAIL_TOL = 1e-10


class TruncationError(ValueError):
    """Truncated basis too small for the requested state or operation."""


def apply_gate(states: np.ndarray) -> np.ndarray:
    """``states``, the image of a gate or a propagation, once checked for
    truncation: raise if a state's norm drifted or its top level is
    occupied, the basis being too small for it.  ``states`` is a vector or
    a block of them down its first axis, and the worst column is named."""
    columns = states.reshape(len(states), -1)
    n = math.sqrt(max(np.vecdot(columns, columns, axis=0).real.tolist(),
                      key=lambda s: abs(math.sqrt(s) - 1.0) if s == s
                      else math.inf, default=1.0))     # a NaN is the worst
    if not abs(n - 1.0) <= NORM_TOL:
        raise TruncationError(
            f"state norm {n:.12g} drifted beyond {NORM_TOL:g}; "
            "increase the basis size")
    tail = max(abs(columns[-1]).tolist(), default=0.0) ** 2
    if not tail <= TAIL_TOL:
        raise TruncationError(
            f"top-level occupation {tail:.3g} exceeds {TAIL_TOL:g}; "
            "increase the basis size")
    return states


class Bands(NamedTuple):
    """``number`` (ad a + a ad) + sum_k ``couplings[k-1]`` (a^k + ad^k) in
    ``dim`` levels, real and symmetric, and immutable: it keys the cache."""
    dim: int
    number: float
    couplings: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        """The dense array: ad a + a ad is 2n + 1, but n on the top level,
        where a ad = 0, and <n-k| a^k |n> = sqrt(n) <n-k| a^(k-1) |n-1>."""
        ns = np.arange(self.dim)
        h = np.diag(self.number * np.append(2.0 * ns[:-1] + 1.0, ns[-1]))
        band = np.ones(self.dim)
        for k, c in enumerate(self.couplings, 1):
            band = np.sqrt(ns[k:]) * band[:-1]
            h[ns[:-k], ns[k:]] = h[ns[k:], ns[:-k]] = c * band
        return h


def required_dim(alpha: complex) -> int:
    r = abs(complex(alpha))
    need = 4.0 * r * r + 25.0       # inf, not OverflowError, on overflow
    if not math.isfinite(need):
        raise ValueError(
            f"alpha must be finite with a finite 4|alpha|^2, got {alpha!r}")
    return int(math.ceil(need))


def coherent_to_fock(alpha, dim: int) -> np.ndarray:
    """amps[n] = e^{-|a|^2/2} a^n / sqrt(n!), with the truncation rule
    dim >= 4|a|^2 + 25: a vector for one amplitude, and for a sequence of n
    the (dim, n) block of their vectors, multiplied out along rows."""
    alphas = np.asarray(alpha, dtype=complex)
    values = alphas.reshape(-1).tolist()
    need = max(map(required_dim, values))
    if dim < need:
        raise TruncationError(
            f"dim={dim} too small for |alpha|={max(map(abs, values)):.3g}; "
            f"need at least {need}")
    amps = np.empty(alphas.shape + (dim,), dtype=complex)
    amps[..., 0] = np.exp(-0.5 * abs(alphas) ** 2)
    np.divide.outer(alphas, np.sqrt(np.arange(1.0, dim)), out=amps[..., 1:])
    return np.multiply.accumulate(amps, axis=-1, out=amps).T


def overlap(reference: np.ndarray, states: np.ndarray):
    """<reference|state>, column by column for blocks."""
    return np.vecdot(reference, states, axis=0)


def fidelity(reference: np.ndarray, states: np.ndarray):
    return abs(overlap(reference, states)) ** 2


def overlap_phase(reference: np.ndarray, states: np.ndarray):
    return np.angle(overlap(reference, states))


# --- Unitaries ----------------------------------------------------------------

@lru_cache(maxsize=8)
def _eigenbasis(bands: Bands) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors of ``bands``' matrix, read-only,
    since the cache hands them to every caller."""
    matrix = bands.matrix()         # finite fields can still overflow in it
    if not np.isfinite(matrix).all():
        raise ValueError("bands must be finite")    # eigh would return NaN
    energies, vectors = np.linalg.eigh(matrix)
    if not np.isfinite(energies).all():    # an eigenvalue past the float range
        raise ValueError("bands overflow: their energies are not finite")
    energies.flags.writeable = vectors.flags.writeable = False
    return energies, vectors


def _real_product(real: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``real @ states`` for complex states: their real and imaginary parts
    go through the real matrix side by side, with no complex cast of it."""
    parts = np.ascontiguousarray(states, dtype=complex).view(np.float64)
    return np.dot(real, parts.reshape(len(states), -1)).view(complex).reshape(
        states.shape)


def _spectral(states: np.ndarray, energies: np.ndarray, vectors: np.ndarray,
              times) -> np.ndarray:
    """exp(-i t A) ``states`` = V exp(-i t E) V^T ``states``, (E, V) the
    real eigenbasis of A, for a vector or (dim, n) block at one t or a
    sequence of them, in shape states.shape + np.shape(times)."""
    coefficients = _real_product(vectors.T, states)  # once for all times
    turns = np.exp(-1j * np.multiply.outer(energies, times))
    if turns.ndim > 1:                  # the times' axis after the columns
        coefficients = coefficients[..., None]
    return _real_product(vectors, coefficients * turns.reshape(
        (len(turns),) + (1,) * (states.ndim - 1) + turns.shape[1:]))


def _gate(states: np.ndarray, z: complex, power: int) -> np.ndarray:
    """exp((z ad^k - z* a^k)/k) ``states``, k = ``power``, for one vector or
    a (dim, n) block, as R(phi) exp(-i (|z|/k) Q_k) R(phi)^dagger with
    phi = (arg z + pi/2)/k: R(phi) a^k R(phi)^dagger = e^{-ik phi} a^k holds
    exactly in the truncated basis."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(
            f"{'alpha' if power == 1 else 'z'} must be finite, got {z!r}")
    dim = len(states)
    quadrature = Bands(dim, 0.0, (0.0,) * (power - 1) + (1.0,))
    turn = np.exp(1j * ((cmath.phase(z) + 0.5 * math.pi) / power)
                  * np.arange(dim)).reshape((dim,) + (1,) * (states.ndim - 1))
    return turn * _spectral(turn.conj() * states, *_eigenbasis(quadrature),
                            abs(z) / power)


def displace(psi: np.ndarray, alpha: complex) -> np.ndarray:
    return apply_gate(_gate(psi, alpha, 1))


def squeeze(psi: np.ndarray, z: complex) -> np.ndarray:
    """S(z) psi = exp((z ad^2 - z* a^2)/2) psi."""
    return apply_gate(_gate(psi, z, 2))


# --- Hamiltonians and propagation ---------------------------------------------

def quadratic_hamiltonian(omega1: float, omega2: float, g1: float,
                          dim: int) -> Bands:
    """The quench Hamiltonian, which ``gaussian.quench_linear_map`` solves.

    H/hbar = (w1/4) P^2 + (w2^2 / 4 w1) X^2 + g1 X in the mode basis of w1,
    X = a + ad, P = i(ad - a); ``g1`` is the linear coupling (e.g. the
    gravitational drive) in rad/s.  The zero-point offset, a global phase,
    is kept.  Real: (w1/4 + c)(ad a + a ad) + (c - w1/4)(a^2 + ad^2)
    + g1 X with c = w2^2 / 4 w1, truncated as ``Bands.matrix`` says.  At
    w2 = w1 = w it is the displaced oscillator w (ad a + 1/2) + g1 X, zero
    point included, except on the top level.
    """
    c = 0.25 * omega2 ** 2 / omega1
    return Bands(dim, float(0.25 * omega1 + c),
                 (float(g1), float(c - 0.25 * omega1)))


def evolve(bands: Bands, states: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) ``states``, H = ``bands``' matrix, as ``_spectral`` gives
    it, checked for truncation: one cached ``eigh`` per bands serves every
    time and state."""
    return apply_gate(_spectral(states, *_eigenbasis(bands), times))

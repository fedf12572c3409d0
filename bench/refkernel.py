"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.7x, both in bursts of under a second and over stretches of many
minutes, and the swing slows every kind of work alike: pure-Python loops,
small numpy calls and BLAS products all take the same factor longer.  A
wall-clock time alone then measures the host as much as the program.

``Gauge`` times this kernel in alternation with the program's operations.
Its work never changes, so its duration tracks the host's speed, and
``scale`` turns a duration measured next to it into the duration it would
have had at NOMINAL_S per kernel.  The kernel mixes the kinds of work
catsim does: interpreter arithmetic and dict stores, small complex numpy
products (the per-sample protocol path) and a 128x128 BLAS product (the
dense oracles).  It allocates nothing that outlives a call.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's duration on an otherwise idle 2.1 GHz Xeon vCPU with BLAS
# pinned to one thread; normalised times are given at this speed
NOMINAL_S = 0.020

_ROT = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_MAT = np.cos(np.arange(128 * 128, dtype=float).reshape(128, 128))


def kernel() -> float:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    table = {}
    for i in range(40_000):
        acc += (i * 0.5) ** 0.5
        table[i & 127] = acc
    x = np.eye(2, dtype=complex)
    for _ in range(1_500):
        x = _ROT @ x
        x = x / np.linalg.norm(x)
    y = _MAT
    for _ in range(30):
        y = _MAT @ y
        y = y / np.abs(y).max()
    return acc + abs(x[0, 0]) + y[0, 0]


class Gauge:
    """Host speed from kernels timed next to the measured work."""

    def __init__(self):
        self.kernels = 0
        self.seconds = 0.0

    def sample(self, min_seconds: float) -> float:
        """Run kernels for at least ``min_seconds`` (at least one) and return
        the factor that scales a duration measured now to nominal speed."""
        n = 0
        t0 = time.perf_counter()
        while True:
            kernel()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        self.kernels += n
        self.seconds += elapsed
        return NOMINAL_S * n / elapsed

    def speed(self) -> float:
        """Mean host speed over every sample, as a share of nominal."""
        return NOMINAL_S * self.kernels / self.seconds if self.kernels else 1.0

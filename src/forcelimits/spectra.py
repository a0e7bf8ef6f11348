"""Symmetrized input-noise spectra of a single bosonic channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HEISENBERG_SLOP = 1e-12


@dataclass(frozen=True)
class QuadratureSpectrum:
    """Stationary symmetrized noise matrix (u, v, w) of one channel.

    u and v are the diagonal elements, w the (real) cross element.  Physical
    states satisfy u*v - w^2 >= 1/4; the vacuum is u = v = 1/2, w = 0.
    """

    u: float
    v: float
    w: float = 0.0

    def __post_init__(self):
        if not (self.u > 0.0 and self.v > 0.0):
            raise ValueError("diagonal spectrum elements must be positive")
        if self.u * self.v - self.w * self.w < 0.25 - _HEISENBERG_SLOP:
            raise ValueError("spectrum violates u*v - w^2 >= 1/4")

    def form(self, a, b):
        """Hermitian form a S b^dagger of two coefficient pairs, S = [[u, w], [w, v]].

        With a = b it is the noise power of the input combination a, else
        the cross spectrum of a and b; pairs of arrays give arrays.
        """
        (a1, a2), (b1, b2) = a, np.conjugate(b)
        return a1 * b1 * self.u + a2 * b2 * self.v + (a1 * b2 + a2 * b1) * self.w


def vacuum() -> QuadratureSpectrum:
    """Vacuum input: identity over two, no cross correlation."""
    return QuadratureSpectrum(u=0.5, v=0.5, w=0.0)


def thermal(n_th: float) -> QuadratureSpectrum:
    """Thermal input with occupancy n_th (n_th = 0 is the vacuum)."""
    return QuadratureSpectrum(u=n_th + 0.5, v=n_th + 0.5, w=0.0)


def squeeze_spectrum(s: float, theta_sq: float) -> QuadratureSpectrum:
    """Pure squeezed input with squeezing factor s and angle theta_sq.

    Saturates the Heisenberg bound exactly, u*v - w^2 = 1/4, and s = 0
    returns the vacuum.
    """
    ch = math.cosh(2.0 * s)
    sh = math.sinh(2.0 * s)
    return QuadratureSpectrum(
        u=(ch - sh * math.cos(2.0 * theta_sq)) / 2.0,
        v=(ch + sh * math.cos(2.0 * theta_sq)) / 2.0,
        w=-(sh * math.sin(2.0 * theta_sq)) / 2.0,
    )

"""Symmetrized input-noise spectra of a single bosonic channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

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
        if not all(map(math.isfinite, (self.u, self.v, self.w))):
            raise InvalidConfig("spectrum elements must be finite")
        if not (self.u > 0.0 and self.v > 0.0):
            raise InvalidConfig("diagonal spectrum elements must be positive")
        # written so that a NaN, from u*v and w^2 both overflowing, fails too
        if not self.u * self.v - self.w * self.w >= 0.25 - _HEISENBERG_SLOP:
            raise InvalidConfig("spectrum violates u*v - w^2 >= 1/4")

    def form(self, a, b):
        """Hermitian form a S b^dagger of two coefficient pairs, S = [[u, w], [w, v]].

        With a = b it is the noise power of the input combination a, else
        the cross spectrum of a and b; pairs of arrays give arrays.
        """
        (a1, a2), (b1, b2) = a, map(np.conjugate, b)
        return a1 * b1 * self.u + a2 * b2 * self.v + (a1 * b2 + a2 * b1) * self.w


def vacuum() -> QuadratureSpectrum:
    """Vacuum input: identity over two, no cross correlation."""
    return QuadratureSpectrum(u=0.5, v=0.5, w=0.0)


def squeeze_spectrum(s: float, theta_sq: float) -> QuadratureSpectrum:
    """Pure squeezed input with squeezing factor s and angle theta_sq.

    u = (e^(2s) sin^2 theta + e^(-2s) cos^2 theta)/2 and v (sin, cos swapped)
    add positive terms, so they do not cancel at large s; u*v - w^2 = 1/4.
    An s whose state overflows or breaks that relation is InvalidConfig.
    """
    if not math.isfinite(theta_sq):
        raise InvalidConfig("squeeze_angle must be finite")
    if not math.isfinite(2.0 * theta_sq):
        raise InvalidConfig(f"2 * squeeze_angle overflows (squeeze_angle = {theta_sq!r})")
    try:
        grow, shrink = math.exp(2.0 * s), math.exp(-2.0 * s)
        sin2 = math.sin(theta_sq) ** 2
        cos2 = 1.0 - sin2  # sin2 + cos2 is exactly 1: s = 0 gives the vacuum
        return QuadratureSpectrum(
            u=(grow * sin2 + shrink * cos2) / 2.0,
            v=(grow * cos2 + shrink * sin2) / 2.0,
            w=-math.sinh(2.0 * s) * math.sin(2.0 * theta_sq) / 2.0,
        )
    except (InvalidConfig, OverflowError) as exc:
        raise InvalidConfig(f"squeeze = {s} gives no valid input state: {exc}") from exc

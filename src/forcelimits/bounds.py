"""Analytic susceptibilities and the quantum-limit bound family.

All rates and frequencies share one arbitrary unit (hbar = 1).  The Fourier
convention everywhere in the package is d/dt -> -i*omega, which makes the
cavity susceptibility (gamma/2 - i*omega)^(-1).

Every function takes the frequency (and the coupling mix eta) either as a
float or as a numpy array, elementwise; a failure names the first offending
frequency in array order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np
from numpy.typing import NDArray

from .errors import ZERO, FailureAtFrequency

if TYPE_CHECKING:
    from .schemes import DetectorParams

#: a frequency or coupling mix: one value, or an array evaluated elementwise
FloatOrArray = Union[float, NDArray[np.float64]]


def _unit(params: DetectorParams) -> float:
    """The power of two s with 1 <= Omega/s < 2.  A bound computed from Omega/s,
    Gamma/s and w/s, scaled back by s, is bit for bit the one in any unit."""
    return math.ldexp(1.0, math.frexp(params.Omega)[1] - 1)


def chi_mech(params: DetectorParams, omega: FloatOrArray):
    """Mechanical susceptibility Omega / ((Gamma/2 - i w)^2 + Omega^2).

    Its denominator counts as zero (resonance) when at most ZERO (Gamma^2/4 + w^2 + Omega^2).
    """
    s = _unit(params)
    om, gm, w = params.Omega / s, params.Gamma / s, omega / s
    d = gm / 2.0 - 1j * w
    denom = d * d + om * om
    size = gm * gm / 4.0 + om * om + w * w
    on_resonance = abs(denom) / size <= ZERO  # an overflowed inf/inf is NaN, not zero
    FailureAtFrequency.at_first(omega, on_resonance, "undamped oscillator driven on resonance at")
    return om / s / denom


def chi_cav(params: DetectorParams, omega: FloatOrArray):
    """Cavity susceptibility 1 / (gamma/2 - i w)."""
    return 1.0 / (params.gamma / 2.0 - 1j * omega)


def inverse_chi_mech(params: DetectorParams, omega: FloatOrArray):
    """1/chi_mech, whose imaginary part -w*Gamma/Omega sets the dissipation bound."""
    d = params.Gamma / 2.0 - 1j * omega
    return (d * d + params.Omega * params.Omega) / params.Omega


def sql(params: DetectorParams, omega: FloatOrArray):
    """Standard quantum limit 1/|chi_mech|: the shot/backaction optimum (inf where chi is 0)."""
    return np.divide(1.0, abs(chi_mech(params, omega)))  # Python's abs for a Python complex


def uql(params: DetectorParams, omega: FloatOrArray):
    """Dissipation-set quantum limit |Im(1/chi_mech)| = w*Gamma/Omega."""
    s = _unit(params)
    return abs(omega) * (params.Gamma / s) / (params.Omega / s)  # |w| Gamma/s <= 2 uql


@dataclass(frozen=True)
class CouplingSusceptibilities:
    """Self- and cross-susceptibility of the coupling operator q = x + eta*p."""

    omega: FloatOrArray
    chi_qq: complex | NDArray[np.complex128]
    chi_qx: complex | NDArray[np.complex128]


def coupling_susceptibilities(
    params: DetectorParams, eta: FloatOrArray, omega: FloatOrArray
) -> CouplingSusceptibilities:
    """Susceptibilities of the mixed coupling operator q = x + eta*p.

    chi_qq is the response of q to a drive conjugate to q itself, chi_qx the
    response of q to a force on x.  At eta = 0 both reduce to chi_mech.
    """
    ca = chi_mech(params, omega)
    d = params.Gamma / 2.0 - 1j * omega
    chi_qq = (1.0 + eta * eta) * ca
    chi_qx = (1.0 + eta * d / params.Omega) * ca
    return CouplingSusceptibilities(omega=omega, chi_qq=chi_qq, chi_qx=chi_qx)


def generalized_uql(q: CouplingSusceptibilities):
    """Lower bound |Im chi_qq| / |chi_qx|^2 for a detector coupled through q."""
    mag = abs(q.chi_qx)
    FailureAtFrequency.at_first(q.omega, mag == 0.0, "chi_qx vanished at")
    m, e = np.frexp(mag)  # mag = m 2^e: m^2 cannot underflow, and 2^-2e is exact
    return np.ldexp(abs(q.chi_qq.imag), -2 * e) / (m * m)


def optimal_uql(params: DetectorParams, omega: FloatOrArray):
    """Generalized bound minimized over all linear couplings q = x + eta*p.

    Equal to (Gamma/(2 w Omega)) * [Gamma^2/4 + w^2 + Omega^2
    - sqrt((Gamma^2/4 + w^2 - Omega^2)^2 + Gamma^2 Omega^2)], evaluated here
    in the rationalized form 2 Gamma Omega w / (a + sqrt(b^2 + c)), which is
    algebraically identical but avoids the cancellation that destroys the
    direct form for w >> Omega.  The denominator stays positive, so w = 0
    gives exactly 0.  It is computed per frequency in the power-of-two unit s
    of max(Omega, Gamma, |w|), as 2 (Omega/s) Gamma |w/s| / (a + sqrt(b^2 + c)),
    so that no term overflows at any finite w and a Gamma far below s, whose
    Gamma/s underflows, still enters the numerator.
    """
    s = np.ldexp(1.0, np.frexp(np.maximum(max(params.Omega, params.Gamma), abs(omega)))[1] - 1)
    om, gm, w = params.Omega / s, params.Gamma / s, omega / s
    w2 = w * w
    om2 = om * om
    quarter_g2 = gm * gm / 4.0
    a = quarter_g2 + w2 + om2
    b = quarter_g2 + w2 - om2
    c = gm * gm * om2
    return 2.0 * om * params.Gamma * abs(w) / (a + np.sqrt(b * b + c))

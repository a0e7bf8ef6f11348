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


def _unit(scale: float) -> float:
    """The power of four s with 1 <= scale/s < 4, scale a positive rate.  A
    quantity computed from rates and frequencies divided by s, scaled back by
    its power of s, is bit for bit the one in any unit; a power of four keeps
    sqrt(s) exact as well."""
    return math.ldexp(1.0, (math.frexp(scale)[1] - 1) & ~1)


def _mechanical(params: DetectorParams, omega: FloatOrArray):
    """chi_mech, and the d = Gamma/2 - i w and Omega it is made of, in the unit s of Omega."""
    s = _unit(params.Omega)
    om, gm, w = params.Omega / s, params.Gamma / s, omega / s
    d = gm / 2.0 - 1j * w
    denom = d * d + om * om
    size = gm * gm / 4.0 + om * om + w * w
    on_resonance = abs(denom) / size <= ZERO  # an overflowed inf/inf is NaN, not zero
    FailureAtFrequency.at_first(omega, on_resonance, "undamped oscillator driven on resonance at")
    return om / s / denom, d, om


def chi_mech(params: DetectorParams, omega: FloatOrArray):
    """Mechanical susceptibility Omega / ((Gamma/2 - i w)^2 + Omega^2).

    Its denominator counts as zero (resonance) when at most ZERO (Gamma^2/4 + w^2 + Omega^2).
    """
    return _mechanical(params, omega)[0]


def chi_cav(params: DetectorParams, omega: FloatOrArray):
    """Cavity susceptibility 1 / (gamma/2 - i w)."""
    return 1.0 / (params.gamma / 2.0 - 1j * omega)


def inverse_chi_mech(params: DetectorParams, omega: FloatOrArray):
    """1/chi_mech, whose imaginary part -w*Gamma/Omega sets the dissipation bound.

    It is computed in the unit s of max(Omega, Gamma) and scaled back by s."""
    s = _unit(max(params.Omega, params.Gamma))
    om = params.Omega / s
    d = params.Gamma / s / 2.0 - 1j * (omega / s)
    return (d * d + om * om) / om * s


def sql(params: DetectorParams, omega: FloatOrArray):
    """Standard quantum limit 1/|chi_mech|: the shot/backaction optimum (inf where chi is 0)."""
    return coupling_susceptibilities(params, 0.0, omega).sql


def uql(params: DetectorParams, omega: FloatOrArray):
    """Dissipation-set quantum limit |Im(1/chi_mech)| = w*Gamma/Omega."""
    s = _unit(params.Omega)
    return abs(omega) * (params.Gamma / s) / (params.Omega / s)  # |w| Gamma/s <= 2 uql


@dataclass(frozen=True)
class CouplingSusceptibilities:
    """Self- and cross-susceptibility of the coupling operator q = x + eta*p,
    with the oscillator's chi_mech that both scale."""

    omega: FloatOrArray
    chi_mech: complex | NDArray[np.complex128]
    chi_qq: complex | NDArray[np.complex128]
    chi_qx: complex | NDArray[np.complex128]

    @property
    def sql(self):
        """Standard quantum limit 1/|chi_mech| (inf where chi_mech is 0)."""
        return np.divide(1.0, abs(self.chi_mech))  # Python's abs for a Python complex


def coupling_susceptibilities(
    params: DetectorParams, eta: FloatOrArray, omega: FloatOrArray
) -> CouplingSusceptibilities:
    """Susceptibilities of the mixed coupling operator q = x + eta*p.

    chi_qq is the response of q to a drive conjugate to q itself, chi_qx the
    response of q to a force on x.  At eta = 0 both reduce to chi_mech.
    """
    ca, d, om = _mechanical(params, omega)
    chi_qq = (1.0 + eta * eta) * ca
    chi_qx = (1.0 + eta * d / om) * ca  # d/om is (Gamma/2 - i w)/Omega
    return CouplingSusceptibilities(omega=omega, chi_mech=ca, chi_qq=chi_qq, chi_qx=chi_qx)


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
    om2 = om * om
    g2 = gm * gm
    t = g2 / 4.0 + w * w  # Gamma^2/4 + w^2, in a and in b
    a = t + om2
    b = t - om2
    c = g2 * om2
    return 2.0 * om * params.Gamma * abs(w) / (a + np.sqrt(b * b + c))

"""Analytic susceptibilities and the quantum-limit bound family.

All rates and frequencies share one arbitrary unit (hbar = 1).  The Fourier
convention everywhere in the package is d/dt -> -i*omega, which makes the
cavity susceptibility (gamma/2 - i*omega)^(-1).

Every function takes the frequency (and the coupling mix eta) either as a
float or as a numpy array, elementwise; a failure names the first offending
frequency in array order.  Every bound computes in the unit of `_unit`.
"""

from __future__ import annotations

import functools
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


def _unit(*rates):
    """The power of four s with 1 <= r/s < 4, r the largest |rate|: elementwise
    if a rate is an array, else a Python float, so scalar calls keep Python
    float arithmetic.  Quantities of the rates over s, scaled back by their
    power of s, are bit for bit those of any unit; sqrt(s) is exact as well."""
    lib = np if np.ndarray in map(type, rates) else math
    scale = functools.reduce(np.maximum, map(abs, rates)) if lib is np else max(map(abs, rates))
    return lib.ldexp(1.0, (lib.frexp(scale)[1] - 1) & ~1)


def _in_unit(params: DetectorParams, omega: FloatOrArray):
    """Omega, Gamma and omega over s = _unit(omega, Omega, Gamma), and s."""
    s = _unit(omega, params.Omega, params.Gamma)
    return params.Omega / s, params.Gamma / s, omega / s, s


def chi_mech(params: DetectorParams, omega: FloatOrArray):
    """Mechanical susceptibility Omega / ((Gamma/2 - i w)^2 + Omega^2)."""
    return coupling_susceptibilities(params, 0.0, omega).chi_mech


def chi_cav(params: DetectorParams, omega: FloatOrArray):
    """Cavity susceptibility 1 / (gamma/2 - i w)."""
    return 1.0 / (params.gamma / 2.0 - 1j * omega)


def sql(params: DetectorParams, omega: FloatOrArray):
    """Standard quantum limit 1/|chi_mech|: the shot/backaction optimum (inf where chi is 0)."""
    return coupling_susceptibilities(params, 0.0, omega).sql


def uql(params: DetectorParams, omega: FloatOrArray):
    """Dissipation-set quantum limit |Im(1/chi_mech)| = w*Gamma/Omega."""
    om, gm, w, s = _in_unit(params, omega)
    return s * _uql(om, gm, w)


def _uql(om, gm, w):
    return abs(w) * gm / om  # uql/s


@dataclass(frozen=True)
class CouplingSusceptibilities:
    """Susceptibilities of q = x + eta*p from one evaluation in the unit s of the rates
    _in_unit: s chi_mech, chi_qx/chi_mech = 1 + eta (Gamma/2 - i w)/Omega and uql/s."""

    omega: FloatOrArray
    chi_mech: complex | NDArray[np.complex128]
    _eta: FloatOrArray
    _in_unit: tuple
    _chi: complex | NDArray[np.complex128]
    _gain: complex | NDArray[np.complex128]
    _uql: FloatOrArray

    @property
    def chi_qq(self):  # the response of q to a drive conjugate to q itself
        return (1.0 + self._eta * self._eta) * self._chi / self._in_unit[3]

    @property
    def chi_qx(self):  # the response of q to a force on x
        return self._gain * self._chi / self._in_unit[3]

    @property
    def sql(self):  # 1/|chi_mech|, inf where chi_mech is 0
        return np.divide(1.0, abs(self.chi_mech))  # Python's abs for a Python complex


def coupling_susceptibilities(params: DetectorParams, eta: FloatOrArray, omega: FloatOrArray):
    """Susceptibilities of the mixed coupling operator q = x + eta*p.  At eta = 0 chi_qq and
    chi_qx reduce to chi_mech, whose denominator d^2 + Omega^2, d = Gamma/2 - i w, is zero
    (resonance) when at most ZERO (|d|^2 + Omega^2)."""
    scaled = om, gm, w, s = _in_unit(params, omega)
    d = gm / 2.0 - 1j * w
    dd, om2 = d * d, om * om
    denom = dd + om2
    FailureAtFrequency.at_first(omega, abs(denom) / (abs(dd) + om2) <= ZERO,
                                "undamped oscillator driven on resonance at")
    chi = om / denom
    return CouplingSusceptibilities(omega, chi / s, eta, scaled, chi, 1.0 + eta * d / om,
                                    _uql(om, gm, w))


def generalized_uql(q: CouplingSusceptibilities):
    """Lower bound |Im chi_qq| / |chi_qx|^2 for a detector coupled through q, from its
    closed form uql (1 + eta^2) / |chi_qx/chi_mech|^2, normal where Im chi_qq underflows.
    s scales (1 + eta^2)/mag: uql/s or s uql can leave the range where the bound does not."""
    mag = abs(q._gain)
    FailureAtFrequency.at_first(q.omega, mag == 0.0, "chi_qx vanished at")
    return (1.0 + q._eta * q._eta) / mag * q._in_unit[3] * (q._uql / mag)


def optimal_uql(params: DetectorParams, omega: FloatOrArray):
    """Generalized bound minimized over all linear couplings q = x + eta*p.

    (Gamma/(2 w Omega)) [a - sqrt(b^2 + c)], a, b = Gamma^2/4 + w^2 +- Omega^2 and
    c = Gamma^2 Omega^2, as 2 Gamma Omega w / (a + sqrt(b^2 + c)): no cancellation at
    w >> Omega, exactly 0 at w = 0, and Gamma unscaled, so Gamma/s may underflow.
    """
    return _optimal_uql(params, *_in_unit(params, omega)[:3])


def _optimal_uql(params: DetectorParams, om, gm, w):
    om2, g2 = om * om, gm * gm
    t = g2 / 4.0 + w * w  # Gamma^2/4 + w^2, in a and in b
    a, b = t + om2, t - om2
    return 2.0 * om * params.Gamma * abs(w) / (a + np.sqrt(b * b + g2 * om2))


def _bound_columns(params: DetectorParams, eta: FloatOrArray, omega: FloatOrArray):
    """sql, uql, generalized_uql and optimal_uql of q = x + eta*p, from one _in_unit."""
    q = coupling_susceptibilities(params, eta, omega)
    om, gm, w, s = q._in_unit
    return q.sql, s * q._uql, generalized_uql(q), _optimal_uql(params, om, gm, w)

"""Added-noise coefficients and the force-sensitivity power spectral density.

The estimator divides the measured output quadrature by its force response,
so every input quadrature contributes a normalized complex coefficient to the
added force noise; S_f is the quadratic form of those coefficients with the
per-channel input spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np
from numpy.typing import NDArray

from . import bounds
from .errors import ZERO, FailureAtFrequency, InvalidConfig
from .linsys import (
    FORCE_ROW,
    FrequencyResponse,
    LinearModel,
    channel_output,
    inverted_system,
    quadrature,
    readout_drive,
    refined_solve,
)
from .schemes import SchemeConfig, build

if TYPE_CHECKING:
    from .spectra import QuadratureSpectrum

#: frequencies per stacked solve; keeps the solve's memory fixed for any grid size
_BLOCK = 256


def _visible(response, v, omega):
    """Check that the force shows in the read quadrature; return its response
    v . d on a trailing axis, to divide the coefficients by.

    `v` is the force response of both output quadratures; the first omega
    where |v . d| <= ZERO max|v| is a FailureAtFrequency.
    """
    magnitude = np.abs(v)
    floor = ZERO * np.maximum(magnitude[..., 0], magnitude[..., 1])
    FailureAtFrequency.at_first(omega, abs(response) <= floor, "force invisible at readout,")
    return response[..., None]


def _coefficients(model: LinearModel, y, d, v, omega) -> dict[str, tuple]:
    """Each channel's coefficient pair in the read quadrature d, per unit force response;
    y is d's response to every state row, v the force response of both quadratures."""
    response = _visible(y[..., FORCE_ROW], v, omega)
    return {ch.id: tuple((channel_output(ch, y, d) / response).T) for ch in model.channels}


def added_noise(resp: FrequencyResponse, phi: float) -> dict[str, tuple]:
    """Every input's coefficient pair in the phi quadrature, per unit force response.

    A response at an array of frequencies gives pairs of arrays.
    """
    d = quadrature(phi)
    return _coefficients(resp.model, d @ resp.y, d, resp.v, resp.omega)


def power_density(
    coeffs: Mapping[str, tuple], spectra: Mapping[str, QuadratureSpectrum]
) -> float | NDArray[np.float64]:
    """Added-noise power summed over every channel in `coeffs`, each against
    its spectrum in `spectra`.

    Array-valued pairs give the power at every frequency.
    """
    total = 0.0
    for cid, pair in coeffs.items():
        total = total + spectra[cid].form(pair, pair).real
    return total


def noise_budget(config: SchemeConfig, model: LinearModel) -> dict[str, QuadratureSpectrum]:
    """Spectra of the channels entering S_f: every channel of the model (`config` is not read)."""
    return {ch.id: ch.spectrum for ch in model.channels}


def _sensitivity(model: LinearModel, phi: float, omegas: NDArray[np.float64]) -> NDArray[np.float64]:
    """S_f of any model read out in the phi quadrature, one stacked adjoint solve per block.

    The refined solve gives the readout quadrature's response y to every
    state row, which _coefficients and power_density turn into S_f.  Row
    FORCE_ROW of the inverse, w, gives the force response to a drive b as
    -w . b, so v is minus the readout's channel_output of w; the visibility
    floor takes only its magnitude.
    """
    d = quadrature(phi)
    b = readout_drive(model, d)
    budget = noise_budget(None, model)
    s_f = np.empty_like(omegas)
    for start in range(0, len(omegas), _BLOCK):
        block = omegas[start:start + _BLOCK]
        inv = inverted_system(model, block)
        y = refined_solve(model.drift, inv, block, b)
        minus_v = channel_output(model.readout, inv[:, FORCE_ROW])
        s_f[start:start + _BLOCK] = power_density(_coefficients(model, y, d, minus_v, block), budget)
    return s_f


def sensitivity_at(config: SchemeConfig, omega: float) -> float:
    """S_f of the configured scheme at one frequency: a one-point sensitivity_spectrum."""
    return float(sensitivity_spectrum(config, np.array([omega], dtype=float)).s_f[0])


@dataclass(frozen=True)
class SensitivitySpectrum:
    """Force-sensitivity spectrum with the analytic bound columns."""

    omegas: NDArray[np.float64]
    s_f: NDArray[np.float64]
    sql: NDArray[np.float64]
    uql: NDArray[np.float64]
    guql: NDArray[np.float64]
    opt_uql: NDArray[np.float64]

    def __post_init__(self):
        # the instance holds only the fields; fields(self) would add 2 us per call
        if len({len(column) for column in vars(self).values()}) != 1:
            raise InvalidConfig("all spectrum columns must have the same length")


def _checked_grid(grid) -> NDArray[np.float64]:
    """The grid as a float array; InvalidConfig unless it is a nonempty 1-d array,
    finite, positive and strictly increasing.

    The message ends with the first point that is not finite and positive,
    or the first pair out of order.
    """
    omegas = np.asarray(grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise InvalidConfig("grid must be a nonempty 1-d array")
    # strictly increasing from a positive first point to a finite last one, a
    # grid is finite and positive throughout; the full mask only words the message
    if not (omegas[0] > 0.0 and omegas[-1] < np.inf and (omegas[1:] > omegas[:-1]).all()):
        invalid = ~(np.isfinite(omegas) & (omegas > 0.0))
        k = int((invalid | np.append(False, ~(omegas[1:] > omegas[:-1]))).argmax())
        shown = omegas[k:k + 1] if invalid[k] else omegas[k - 1:k + 1]
        raise InvalidConfig("grid must be finite, strictly increasing and positive, got "
                            + " then ".join(map(repr, shown.tolist())))
    return omegas


def sensitivity_spectrum(
    config: SchemeConfig, grid: NDArray[np.float64]
) -> SensitivitySpectrum:
    """Evaluate S_f and the bound columns of a scheme over a frequency grid.

    The generalized bound column uses `config.coupling_mix`.  A grid that is not
    finite, positive and strictly increasing is InvalidConfig; a non-finite
    value is a FailureAtFrequency at the first frequency where it occurs.
    """
    omegas = _checked_grid(grid)
    try:
        columns = np.empty((5, len(omegas)))  # after omegas, in SensitivitySpectrum's field order
        columns[0] = _sensitivity(build(config), config.readout_angle, omegas)
        columns[1:] = bounds._bound_columns(config.params, config.coupling_mix, omegas)
        FailureAtFrequency.at_first(
            omegas, ~np.isfinite(columns).all(axis=0), "non-finite S_f or bound value at"
        )
    except FailureAtFrequency as failure:
        # grid order: a failure of any stage, the bound columns included, at a
        # lower frequency is the one a frequency-by-frequency loop would meet first
        if failure.omega > omegas[0]:
            sensitivity_spectrum(config, omegas[omegas < failure.omega])
        raise
    return SensitivitySpectrum(omegas, *columns)

"""Added-noise coefficients and the force-sensitivity power spectral density.

The estimator divides the measured output quadrature by its force response,
so every input quadrature contributes a normalized complex coefficient to the
added force noise; S_f is the quadratic form of those coefficients with the
per-channel input spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np
from numpy.typing import NDArray

from . import bounds
from .errors import SingularAtFrequency, ZeroResponse
from .linsys import FrequencyResponse, LinearModel, readout_adjoint
from .schemes import ANCILLA, SchemeConfig, build

if TYPE_CHECKING:
    from .spectra import QuadratureSpectrum

__all__ = [
    "AddedNoiseCoeffs",
    "added_noise",
    "power_density",
    "noise_budget",
    "sensitivity_at",
    "SensitivitySpectrum",
    "sensitivity_spectrum",
]

_RESPONSE_FLOOR = 1e-14

#: frequencies per stacked solve; keeps the solve's memory fixed for any grid size
_BLOCK = 256


@dataclass(frozen=True)
class AddedNoiseCoeffs:
    """Force-normalized added-noise coefficients, one complex pair per channel."""

    omega: float
    coeffs: Mapping[str, tuple[complex, complex]]
    norm: complex


def added_noise(resp: FrequencyResponse, phi: float) -> AddedNoiseCoeffs:
    """Normalize every input's transfer by the force response at angle phi."""
    d = np.array([math.sin(phi), math.cos(phi)])
    norm = complex(d @ resp.v)
    if abs(norm) <= _RESPONSE_FLOOR:
        raise ZeroResponse(resp.omega)
    coeffs = {resp.readout_id: tuple((d @ resp.M) / norm)}
    for cid, block in resp.cross.items():
        coeffs[cid] = tuple((d @ block) / norm)
    return AddedNoiseCoeffs(omega=resp.omega, coeffs=coeffs, norm=norm)


def _channel_power(c1, c2, spec: QuadratureSpectrum):
    """Noise power of one channel's coefficient pair (scalars or arrays)."""
    return (
        abs(c1) ** 2 * spec.u
        + abs(c2) ** 2 * spec.v
        + 2.0 * (c1 * c2.conjugate()).real * spec.w
    )


def power_density(
    coeffs: AddedNoiseCoeffs, spectra: Mapping[str, QuadratureSpectrum]
) -> float:
    """Added-noise power summed over the channels present in `spectra`.

    Channels without an entry in `spectra` (the oscillator's own thermal
    bath, by default) are left out of the budget.
    """
    total = 0.0
    for cid, (c1, c2) in coeffs.coeffs.items():
        spec = spectra.get(cid)
        if spec is None:
            continue
        total += _channel_power(c1, c2, spec)
    return total


def noise_budget(
    config: SchemeConfig, model: LinearModel | None = None
) -> dict[str, QuadratureSpectrum]:
    """Channel spectra entering S_f: readout always, the cqnc ancilla too.

    The mechanical bath is deliberately absent: intrinsic oscillator noise is
    not part of the detection-noise budget.
    """
    if model is None:
        model = build(config)
    budget = {model.readout.id: config.input_spectrum}
    for ch in model.channels:
        if ch.id == ANCILLA:
            budget[ch.id] = ch.spectrum
    return budget


def _sensitivity(
    model: LinearModel,
    budget: Mapping[str, QuadratureSpectrum],
    phi: float,
    omegas: NDArray[np.float64],
) -> NDArray[np.float64]:
    """S_f over `omegas`, one stacked adjoint solve per block of frequencies.

    The readout quadrature's response to every state row gives each budget
    channel's coefficients, sqrt(rate) * y[rows] (minus d for the readout's
    own input), normalized by the force response y[force_row].
    """
    d = np.array([math.sin(phi), math.cos(phi)])
    channels = [ch for ch in model.channels if ch.id in budget]
    s_f = np.empty_like(omegas)
    for start in range(0, len(omegas), _BLOCK):
        block = omegas[start:start + _BLOCK]
        y = readout_adjoint(model, block, d)
        norm = y[:, model.force_row]
        invisible = np.abs(norm) <= _RESPONSE_FLOOR
        if invisible.any():
            raise ZeroResponse(block[np.argmax(invisible)])
        total = np.zeros(len(block))
        for ch in channels:
            c = np.sqrt(ch.rate) * y[:, ch.rows]
            if ch.is_readout:
                c = c - d
            c = c / norm[:, None]
            total += _channel_power(c[:, 0], c[:, 1], budget[ch.id])
        s_f[start:start + _BLOCK] = total
    return s_f


def sensitivity_at(
    config: SchemeConfig, omega: float, model: LinearModel | None = None
) -> float:
    """S_f of the configured scheme at a single frequency."""
    if model is None:
        model = build(config)
    budget = noise_budget(config, model)
    omegas = np.array([omega], dtype=float)
    return float(_sensitivity(model, budget, config.readout_angle, omegas)[0])


@dataclass(frozen=True)
class SensitivitySpectrum:
    """Force-sensitivity spectrum with the analytic bound columns."""

    omegas: NDArray[np.float64]
    s_f: NDArray[np.float64]
    sql: NDArray[np.float64]
    uql: NDArray[np.float64]
    guql: NDArray[np.float64]
    opt_uql: NDArray[np.float64]

    columns = ("omega", "s_f", "sql", "uql", "guql", "opt_uql")

    def __post_init__(self):
        lengths = {
            len(self.omegas), len(self.s_f), len(self.sql),
            len(self.uql), len(self.guql), len(self.opt_uql),
        }
        if len(lengths) != 1:
            raise ValueError("all spectrum columns must have the same length")
        if np.any(self.omegas <= 0.0) or np.any(np.diff(self.omegas) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing and positive")

    def rows(self):
        return zip(self.omegas, self.s_f, self.sql, self.uql, self.guql, self.opt_uql)


def sensitivity_spectrum(
    config: SchemeConfig, grid: NDArray[np.float64]
) -> SensitivitySpectrum:
    """Evaluate S_f and the bound columns of a scheme over a frequency grid.

    The generalized bound column uses the scheme's own coupling mix: eta for
    the toy detector, position coupling (eta = 0) for everything else.
    """
    omegas = np.asarray(grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(omegas <= 0.0) or np.any(np.diff(omegas) <= 0.0):
        raise ValueError("grid must be strictly increasing and positive")

    model = build(config)
    return _spectrum(config, model, noise_budget(config, model), omegas)


def _spectrum(
    config: SchemeConfig,
    model: LinearModel,
    budget: Mapping[str, QuadratureSpectrum],
    omegas: NDArray[np.float64],
) -> SensitivitySpectrum:
    """sensitivity_spectrum on a checked grid.

    A failure is the one a frequency-by-frequency loop would meet first.
    """
    params = config.params
    eta = config.eta if config.variant == "toy" else 0.0
    try:
        s_f = _sensitivity(model, budget, config.readout_angle, omegas)
    except (SingularAtFrequency, ZeroResponse) as exc:
        failure = exc
    else:
        return SensitivitySpectrum(
            omegas=omegas,
            s_f=s_f,
            sql=bounds.sql(params, omegas),
            uql=bounds.uql(params, omegas),
            guql=bounds.generalized_uql(
                bounds.coupling_susceptibilities(params, eta, omegas)
            ),
            opt_uql=bounds.optimal_uql(params, omegas),
        )
    # grid order: a failure of any stage, the bound columns included, at a
    # lower frequency is the one to report
    _spectrum(config, model, budget, omegas[omegas < failure.omega])
    raise failure

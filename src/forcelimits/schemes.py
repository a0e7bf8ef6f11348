"""Concrete detection-scheme models and their closed-form transfer functions.

Three scheme families are provided:

* ``standard`` -- single cavity reading out the oscillator position.  The
  variational-readout, squeezed-input and detuned variants are parameter
  settings (readout angle, input spectrum, Delta) of this one family.
* ``cqnc`` -- standard scheme plus a negative-mass ancilla cavity wired so
  the radiation-pressure backaction cancels coherently (resonant case only).
* ``toy`` -- cavity coupled through the mixed operator x + eta*p to both
  quadratures, the configuration that beats the usual dissipation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .errors import InvalidConfig, ParametricDivergence, UnstableModel
from .linsys import DriftMatrix, LinearModel, NoiseChannel, stability_check
from .spectra import QuadratureSpectrum, thermal, vacuum

MECHANICAL = "mechanical"
READOUT = "readout"
ANCILLA = "ancilla"

VARIANTS = ("standard", "cqnc", "toy")

_DIVERGENCE_FLOOR = 1e-14


@dataclass(frozen=True)
class DetectorParams:
    """Physical rates and couplings, all in one shared frequency unit.

    Omega : mechanical resonance frequency (> 0)
    Gamma : mechanical decay rate (>= 0)
    gamma : cavity decay rate (> 0)
    Delta : cavity detuning (any sign)
    g     : effective optomechanical coupling (any sign; the steady-state
            field amplitude is absorbed into it)
    n_th  : thermal occupancy of the mechanical bath; carried on the model
            but never summed into the detection noise
    """

    Omega: float
    Gamma: float
    gamma: float
    Delta: float = 0.0
    g: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        bad = [name for name, value in vars(self).items() if not math.isfinite(value)]
        if bad:
            raise InvalidConfig(f"{', '.join(bad)} must be finite")
        if not self.Omega > 0.0:
            raise InvalidConfig("Omega must be positive")
        if not self.gamma > 0.0:
            raise InvalidConfig("gamma must be positive")
        if self.Gamma < 0.0:
            raise InvalidConfig("Gamma must be nonnegative")
        if self.n_th < 0.0:
            raise InvalidConfig("n_th must be nonnegative")


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme variant with its parameters, readout angle and input state."""

    variant: str
    params: DetectorParams
    readout_angle: float = 0.0
    input_spectrum: QuadratureSpectrum = field(default_factory=vacuum)
    eta: float = 1.0  # toy coupling mix q = x + eta*p

    def __post_init__(self):
        if not (math.isfinite(self.readout_angle) and math.isfinite(self.eta)):
            raise InvalidConfig("readout angle and eta must be finite")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if self.variant == "cqnc" and self.params.Delta != 0.0:
            raise InvalidConfig("the cqnc ancilla wiring requires Delta = 0")
        if self.variant == "toy" and self.params.Delta != 0.0:
            raise InvalidConfig("the mixed-coupling model is defined on resonance")

    @property
    def coupling_mix(self) -> float:
        """eta of the coupling operator q = x + eta*p: `eta` for toy, 0 otherwise."""
        return self.eta if self.variant == "toy" else 0.0


def _standard_drift(p: DetectorParams) -> np.ndarray:
    return np.array(
        [
            [-p.Gamma / 2.0, p.Omega, 0.0, 0.0],
            [-p.Omega, -p.Gamma / 2.0, p.g, 0.0],
            [0.0, 0.0, -p.gamma / 2.0, p.Delta],
            [p.g, 0.0, -p.Delta, -p.gamma / 2.0],
        ]
    )


def _cqnc_drift(p: DetectorParams) -> np.ndarray:
    # ancilla is a negative-mass copy of the oscillator, decaying at Gamma
    return np.array(
        [
            [-p.Gamma / 2.0, p.Omega, 0.0, 0.0, 0.0, 0.0],
            [-p.Omega, -p.Gamma / 2.0, p.g, 0.0, 0.0, 0.0],
            [0.0, 0.0, -p.gamma / 2.0, 0.0, 0.0, 0.0],
            [p.g, 0.0, 0.0, -p.gamma / 2.0, p.g, 0.0],
            [0.0, 0.0, 0.0, 0.0, -p.Gamma / 2.0, -p.Omega],
            [0.0, 0.0, p.g, 0.0, p.Omega, -p.Gamma / 2.0],
        ]
    )


def _toy_drift(p: DetectorParams, eta: float) -> np.ndarray:
    # interaction -g (x + eta*p)(b1 + b2); eta = 1 gives the symmetric case
    g = p.g
    return np.array(
        [
            [-p.Gamma / 2.0, p.Omega, -g * eta, -g * eta],
            [-p.Omega, -p.Gamma / 2.0, g, g],
            [-g, -g * eta, -p.gamma / 2.0, 0.0],
            [g, g * eta, 0.0, -p.gamma / 2.0],
        ]
    )


def build(config: SchemeConfig) -> LinearModel:
    """Construct the LinearModel for a scheme and verify its stability."""
    p = config.params
    if config.variant == "standard":
        entries = _standard_drift(p)
    elif config.variant == "cqnc":
        entries = _cqnc_drift(p)
    else:
        entries = _toy_drift(p, config.eta)

    drift = DriftMatrix(entries=entries)
    channels = [
        NoiseChannel(MECHANICAL, rate=p.Gamma, rows=(0, 1), spectrum=thermal(p.n_th)),
        NoiseChannel(
            READOUT, rate=p.gamma, rows=(2, 3),
            spectrum=config.input_spectrum, is_readout=True,
        ),
    ]
    if config.variant == "cqnc":
        channels.append(
            NoiseChannel(ANCILLA, rate=p.Gamma, rows=(4, 5), spectrum=vacuum())
        )

    stable, eigenvalues = stability_check(drift)
    if not stable:
        worst = float(np.max(eigenvalues.real))
        raise UnstableModel(
            f"{config.variant} drift has eigenvalue real part {worst:.3e} > 0"
        )

    return LinearModel(drift=drift, channels=tuple(channels), force_row=1)


def closed_form_transfer(
    params: DetectorParams, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic (M_shot, M_back, v) blocks of the standard scheme, any Delta.

    The shot block is the bare cavity reflection, the backaction block the
    g-dependent part fed through the oscillator, and v the force response.
    Used as an independent oracle for the numeric matrix solves.
    """
    gamma, delta, g = params.gamma, params.Delta, params.g
    r = gamma / 2.0 - 1j * omega
    denom_rd = r * r + delta * delta
    chi_r = r / denom_rd
    chi_d = delta / denom_rd
    chi_a = bounds.chi_mech(params, omega)

    loop = 1.0 - g * g * chi_a * chi_d
    if abs(loop) < _DIVERGENCE_FLOOR:
        raise ParametricDivergence(omega)

    m_shot = -np.eye(2, dtype=complex) + gamma * np.array(
        [[chi_r, chi_d], [-chi_d, chi_r]]
    )
    m_back = (g * g * gamma * chi_a / loop) * np.array(
        [[chi_r * chi_d, chi_d * chi_d], [chi_r * chi_r, chi_r * chi_d]]
    )
    v = (g * math.sqrt(gamma) * chi_a / loop) * np.array([chi_d, chi_r])
    return m_shot, m_back, v

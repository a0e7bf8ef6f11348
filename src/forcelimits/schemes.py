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
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import ZERO, FailureAtFrequency, InvalidConfig, UnstableModel
from .linsys import LinearModel, NoiseChannel, stability_check
from .spectra import QuadratureSpectrum, vacuum

MECHANICAL = "mechanical"
READOUT = "readout"
ANCILLA = "ancilla"

#: unit vectors of the state quadratures: oscillator x, p on rows (0, 1),
#: cavity b1, b2 on (2, 3) and ancilla x_a on 4 (its p_a, row 5, couples to nothing)
_X, _P, _B1, _B2, _XA = np.eye(6)[:5]

_VACUUM = vacuum()


def conjugate_drive(f: np.ndarray) -> np.ndarray:
    """Drive vector J f produced by perturbing the Hamiltonian with -h*F, F = f . x.

    States come in canonical pairs (even, odd) with commutator i, so an
    x-like component of F drives its partner's row with +1 and a p-like
    component drives its partner's row with -1.
    """
    drive = np.empty_like(f)
    drive[1::2], drive[0::2] = f[0::2], -f[1::2]
    return drive


def coupling_drift(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Drift of the interaction -q F at unit g: J q (x) F + J F (x) q."""
    return np.outer(conjugate_drive(q), f) + np.outer(conjugate_drive(f), q)


class _Variant:
    """One variant's facts: the part (oscillator, readout or ancilla) whose
    block sits on each row pair (0, 1), (2, 3), ...; (q, F) of each coupling -g q F, the oscillator's
    first; why it needs Delta = 0 ("" if it does not); and whether it is
    mixed, the oscillator coupling through q = x + eta*p rather than x."""

    def __init__(self, channels, couplings, resonant="", mixed=False):
        self.channels, self.resonant, self.mixed = channels, resonant, mixed
        n = 2 * len(channels)
        self.couplings = [(q[:n], f[:n]) for q, f in couplings]
        # the drift per unit of each coefficient of build, on the last axis:
        # each pair's decay rate and rotation frequency, then g and g*eta
        basis = [np.kron(np.diag(e), block) for e in np.eye(len(channels))
                 for block in ([[-0.5, 0.0], [0.0, -0.5]], [[0.0, 1.0], [-1.0, 0.0]])]
        basis.append(sum(coupling_drift(q, f) for q, f in self.couplings))
        basis.append(coupling_drift(_P[:n], self.couplings[0][1]))  # q = x + eta*p
        self.basis = np.stack(basis, axis=-1)


#: every variant by name (see the module docstring)
VARIANTS = {
    "standard": _Variant((MECHANICAL, READOUT), [(_X, _B1)]),
    "cqnc": _Variant(
        (MECHANICAL, READOUT, ANCILLA), [(_X, _B1), (_XA, _B1)],
        resonant="the cqnc ancilla wiring requires Delta = 0",
    ),
    "toy": _Variant(
        (MECHANICAL, READOUT), [(_X, _B1 + _B2)],
        resonant="the mixed-coupling model is defined on resonance", mixed=True,
    ),
}


@dataclass(frozen=True)
class DetectorParams:
    """Physical rates and couplings, all in one shared frequency unit.

    Omega : mechanical resonance frequency (> 0)
    Gamma : mechanical decay rate (>= 0)
    gamma : cavity decay rate (> 0)
    Delta : cavity detuning (any sign)
    g     : effective optomechanical coupling (any sign; the steady-state
            field amplitude is absorbed into it)
    n_th  : thermal occupancy of the mechanical bath; validated and written
            to the CSV metadata only, since the bath is no noise channel
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
    input_spectrum: QuadratureSpectrum = _VACUUM
    eta: float = 1.0  # toy coupling mix q = x + eta*p

    def __post_init__(self):
        if not (math.isfinite(self.readout_angle) and math.isfinite(self.eta)):
            raise InvalidConfig("readout angle and eta must be finite")
        variant = VARIANTS.get(self.variant)
        if variant is None:
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if variant.resonant and self.params.Delta != 0.0:
            raise InvalidConfig(variant.resonant)

    @property
    def coupling_mix(self) -> float:
        """eta of the coupling operator q = x + eta*p: `eta` for toy, 0 otherwise."""
        return self.eta if VARIANTS[self.variant].mixed else 0.0


def build(config: SchemeConfig) -> LinearModel:
    """Construct the LinearModel for a scheme and verify its stability."""
    p = config.params
    variant = VARIANTS[config.variant]
    mix = p.g * config.coupling_mix
    if not math.isfinite(mix):
        raise InvalidConfig(f"g * eta overflows (g = {p.g!r}, eta = {config.eta!r})")
    blocks = {  # each pair's rate, its rotation frequency and, if S_f counts it, its input
        MECHANICAL: (p.Gamma, p.Omega, None),  # the oscillator, whose bath S_f leaves out
        READOUT: (p.gamma, p.Delta, config.input_spectrum),
        ANCILLA: (p.Gamma, -p.Omega, _VACUUM),  # a negative-mass oscillator copy
    }
    coefficients, channels = [], []
    for k, c in enumerate(variant.channels):
        rate, frequency, spectrum = blocks[c]
        coefficients += rate, frequency
        if spectrum is not None:
            channels.append(NoiseChannel(c, rate, (2 * k, 2 * k + 1), spectrum, c == READOUT))
    coefficients += p.g, mix
    model = LinearModel(variant.basis @ coefficients, tuple(channels), force_row=1)

    stable, eigenvalues = stability_check(model.drift)
    if not stable:
        raise UnstableModel(f"{config.variant} drift has eigenvalue real part "
                            f"{eigenvalues.real.max():.3e} > 0")
    return model


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

    loop = 1.0 - g * g * chi_a * chi_d  # zero relative to its 1
    FailureAtFrequency.at_first(omega, abs(loop) <= ZERO, "parametric divergence at")

    m_shot = -np.eye(2, dtype=complex) + gamma * np.array(
        [[chi_r, chi_d], [-chi_d, chi_r]]
    )
    m_back = (g * g * gamma * chi_a / loop) * np.array(
        [[chi_r * chi_d, chi_d * chi_d], [chi_r * chi_r, chi_r * chi_d]]
    )
    v = (g * math.sqrt(gamma) * chi_a / loop) * np.array([chi_d, chi_r])
    return m_shot, m_back, v

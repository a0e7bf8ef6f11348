"""Exception types for the forcelimits package."""

import numpy as np


class ForceLimitsError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfig(ForceLimitsError):
    """A scheme or grid configuration violates its invariants."""


class UnstableModel(ForceLimitsError):
    """The drift matrix has an eigenvalue with positive real part."""


class NumericalFailure(ForceLimitsError):
    """A computation broke down (CLI exit code 4)."""


class FailureAtFrequency(NumericalFailure):
    """A numerical failure at `omega`; subclasses give the `default` message."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = float(omega)
        text = f"{message} at" if message else self.default
        super().__init__(f"{text} omega = {self.omega!r}")

    @classmethod
    def at_first(cls, omega, bad, message: str | None = None) -> None:
        """Raise at the first omega (array order, broadcast with `bad`) where `bad` holds."""
        if np.count_nonzero(bad):
            omegas, bad = np.broadcast_arrays(omega, bad)
            raise cls(omegas[bad][0], message)


class SingularAtFrequency(FailureAtFrequency):
    """The frequency-domain system matrix is numerically singular."""
    default = "system matrix singular at"


class ParametricDivergence(FailureAtFrequency):
    """The detuned-cavity feedback denominator vanished at this frequency."""
    default = "parametric divergence at"


class ZeroResponse(FailureAtFrequency):
    """The force response vanishes at the chosen readout quadrature."""
    default = "force invisible at readout,"


class MechanicalResonanceSingularity(FailureAtFrequency):
    """Undamped mechanical susceptibility evaluated exactly on resonance."""
    default = "undamped oscillator driven on resonance at"


class ZeroResponseSusceptibility(FailureAtFrequency):
    """The coupling cross-susceptibility vanished; the bound is undefined."""
    default = "chi_qx vanished at"


class ZeroCoupling(NumericalFailure):
    """Detector-oscillator coupling is zero; no signal reaches the output."""


class DegenerateReadout(FailureAtFrequency):
    """The readout normalization coefficient vanished."""
    default = "readout normalization C vanished at"


class ZeroFrequencyFeedback(FailureAtFrequency):
    """The feedback transform is singular at zero frequency."""
    default = "feedback transform undefined at"

"""Exception types for the forcelimits package."""


class ForceLimitsError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfig(ForceLimitsError):
    """A scheme or grid configuration violates its invariants."""


class UnstableModel(ForceLimitsError):
    """The drift matrix has an eigenvalue with positive real part."""


class NumericalFailure(ForceLimitsError):
    """A computation broke down at a particular frequency (CLI exit code 4)."""


class SingularAtFrequency(NumericalFailure):
    """The frequency-domain system matrix is numerically singular."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = float(omega)
        super().__init__(message or f"system matrix singular at omega = {self.omega!r}")


class ParametricDivergence(NumericalFailure):
    """The detuned-cavity feedback denominator vanished at this frequency."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = float(omega)
        super().__init__(message or f"parametric divergence at omega = {self.omega!r}")


class ZeroResponse(NumericalFailure):
    """The force response vanishes at the chosen readout quadrature."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = float(omega)
        super().__init__(message or f"force invisible at readout, omega = {self.omega!r}")


class MechanicalResonanceSingularity(NumericalFailure):
    """Undamped mechanical susceptibility evaluated exactly on resonance."""


class ZeroResponseSusceptibility(NumericalFailure):
    """The coupling cross-susceptibility vanished; the bound is undefined."""


class ZeroCoupling(ForceLimitsError):
    """Detector-oscillator coupling is zero; no signal reaches the output."""


class DegenerateReadout(ForceLimitsError):
    """The readout normalization coefficient vanished."""


class ZeroFrequencyFeedback(ForceLimitsError):
    """The feedback transform is singular at zero frequency."""

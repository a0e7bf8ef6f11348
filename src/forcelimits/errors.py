"""Exception types for the forcelimits package."""

import numpy as np

#: the one zero rule: a quantity at most ZERO times the size of its terms is zero
ZERO = 1e-14


class ForceLimitsError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfig(ForceLimitsError, ValueError):
    """Rejected input (CLI exit code 2), raised where it is checked; a ValueError too."""


class UnstableModel(ForceLimitsError):
    """The drift matrix has an eigenvalue with positive real part."""


class NumericalFailure(ForceLimitsError):
    """A computation broke down (CLI exit code 4)."""


class FailureAtFrequency(NumericalFailure):
    """A numerical failure at `omega`; the raise site states what failed."""

    def __init__(self, omega: float, message: str):
        self.omega = float(omega)
        super().__init__(f"{message} omega = {self.omega!r}")

    @classmethod
    def at_first(cls, omega, bad, message: str) -> None:
        """Raise at the first omega (array order, broadcast with `bad`) where `bad` holds."""
        if np.count_nonzero(bad):
            omegas, bad = np.broadcast_arrays(omega, bad)
            raise cls(omegas[bad][0], message)

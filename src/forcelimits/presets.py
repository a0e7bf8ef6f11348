"""Benchmark parameter sets and default frequency grids."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidConfig
from .schemes import DetectorParams, SchemeConfig

#: resolved sideband family: slow, lightly damped oscillator in a fast cavity
FIG2A_PARAMS = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)

#: mixed-coupling family: unit oscillator, overcoupled cavity
FIG2B_PARAMS = DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, Delta=0.0, g=5.0)

MAX_POINTS = 10**7
SPACINGS = {"linear": np.linspace, "log": np.geomspace}

#: fig2a's grid, over a band bracketing both the mechanical resonance and the cavity line
FIG2A_GRID = {"omega_min": 1e-3, "omega_max": 1e1, "points": 400, "spacing": "log"}

#: two decades around the unit mechanical resonance
FIG2B_GRID = {**FIG2A_GRID, "omega_min": 1e-2 * FIG2B_PARAMS.Omega,
              "omega_max": 1e2 * FIG2B_PARAMS.Omega}


def frequencies(omega_min: float, omega_max: float, points: int, spacing: str) -> np.ndarray:
    """The grid of the four keys that every CSV records; a bad key is an InvalidConfig."""
    if not omega_min > 0.0:
        raise InvalidConfig("omega_min must be positive")
    if not math.isfinite(omega_max):
        raise InvalidConfig("omega_max must be finite")
    if not omega_max > omega_min:
        raise InvalidConfig("omega_max must exceed omega_min")
    if not 2 <= points <= MAX_POINTS:
        raise InvalidConfig(f"points must lie in [2, {MAX_POINTS}]")
    if spacing not in SPACINGS:
        raise InvalidConfig(f"spacing must be {' or '.join(map(repr, SPACINGS))}")
    return SPACINGS[spacing](omega_min, omega_max, points)


def fig2a_grid() -> np.ndarray:
    return frequencies(**FIG2A_GRID)


def fig2b_grid() -> np.ndarray:
    return frequencies(**FIG2B_GRID)


def fig2a_configs() -> dict[str, SchemeConfig]:
    """The four benchmark readout strategies sharing the fig2a parameters."""
    return {
        "standard": SchemeConfig("standard", FIG2A_PARAMS),
        "vm": SchemeConfig(
            "standard", FIG2A_PARAMS, readout_angle=math.atan(20.0)
        ),
        "cd": SchemeConfig("standard", replace(FIG2A_PARAMS, Delta=-7.0)),
        "cqnc": SchemeConfig("cqnc", FIG2A_PARAMS),
    }


def fig2b_config() -> SchemeConfig:
    """Mixed-coupling detector read out on the phase quadrature."""
    return SchemeConfig("toy", FIG2B_PARAMS, eta=1.0)

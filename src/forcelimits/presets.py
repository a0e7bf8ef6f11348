"""Benchmark parameter sets and default frequency grids."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .schemes import DetectorParams, SchemeConfig

#: resolved sideband family: slow, lightly damped oscillator in a fast cavity
FIG2A_PARAMS = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)

#: mixed-coupling family: unit oscillator, overcoupled cavity
FIG2B_PARAMS = DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, Delta=0.0, g=5.0)

GRID_POINTS = 400

#: fig2a frequency band, bracketing both the mechanical resonance and the cavity line
FIG2A_BAND = (1e-3, 1e1)


def fig2a_grid() -> np.ndarray:
    """Default grid: GRID_POINTS log-spaced over FIG2A_BAND."""
    return np.geomspace(*FIG2A_BAND, GRID_POINTS)


def fig2b_grid() -> np.ndarray:
    """Two decades around the unit mechanical resonance."""
    omega = FIG2B_PARAMS.Omega
    return np.geomspace(1e-2 * omega, 1e2 * omega, GRID_POINTS)


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

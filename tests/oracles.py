"""Oracles and draws that more than one test module uses.

`_oracle_draw` and `_mp_resolvent` feed the 50-digit oracles of the linear
solve, the noise budget and the detector extraction; `standard_s_f` is the
resonant standard scheme's closed form; `preset_cases` names the preset
curves; `parse_csv` reads a written spectrum back.
"""

import math

import mpmath
import numpy as np

from forcelimits import bounds, presets
from forcelimits.errors import UnstableModel
from forcelimits.schemes import DetectorParams, SchemeConfig, build
from forcelimits.spectra import squeeze_spectrum, vacuum
from forcelimits.verify import DRAW_RANGES

ETA_RANGE = (-2.0, 2.0)  # the toy scheme's coupling mix eta, as the tests draw it


def _oracle_draw(rng, variant, k):
    """Stable draw k of a variant and its frequency for the 50-digit oracle.

    Drawn from DRAW_RANGES and ETA_RANGE, except Gamma: log-uniform down to
    1e-6, exactly 1e-6 every third draw.  Every even draw sits at Omega
    (1 +- 1e-3), next to the lightly damped resonance.  Returns (config, omega).
    """
    while True:
        params = DetectorParams(
            Omega=rng.uniform(*DRAW_RANGES["Omega"]),
            Gamma=1e-6 if k % 3 == 0 else 10.0 ** rng.uniform(-6.0, 0.0),
            gamma=rng.uniform(*DRAW_RANGES["gamma"]),
            Delta=rng.uniform(*DRAW_RANGES["Delta"]) if variant == "standard" else 0.0,
            g=rng.uniform(*DRAW_RANGES["g"]) * rng.choice([-1.0, 1.0]),
        )
        config = SchemeConfig(variant, params, eta=rng.uniform(*ETA_RANGE))
        try:
            build(config)
        except UnstableModel:
            continue
        if k % 2 == 0:
            return config, params.Omega * (1.0 + rng.choice([-1e-3, 1e-3]))
        return config, rng.uniform(*DRAW_RANGES["omega"])


def _mp_resolvent(model, omega):
    """-(A + i w I)^(-1) at mpmath's working precision, from the float64 drift."""
    n = len(model.drift)
    m = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = mpmath.mpf(model.drift[i, j])
        m[i, i] += mpmath.mpc(0, omega)
    return -mpmath.inverse(m)


def standard_s_f(params, omega, phi=0.0, spectrum=vacuum()):
    """S_f of the resonant (Delta = 0) standard scheme read in the phi quadrature:

    2(xi u + w) Re(1/chi_mech) + g^2 gamma |chi_cav|^2 u
        + (xi^2 u + 2 xi w + v) / (g^2 gamma |chi_mech|^2 |chi_cav|^2),

    with xi = tan phi and (u, v, w) the readout input's spectrum.
    """
    xi = math.tan(phi)
    u, v, w = spectrum.u, spectrum.v, spectrum.w
    chi_a = bounds.chi_mech(params, omega)
    gain = params.g**2 * params.gamma * abs(bounds.chi_cav(params, omega)) ** 2
    return (2 * (xi * u + w) * (1 / chi_a).real + gain * u
            + (xi**2 * u + 2 * xi * w + v) / (gain * abs(chi_a) ** 2))


def preset_cases():
    """The fig2a curves, a squeezed standard curve and fig2b's toy: name -> (config, grid)."""
    cases = {name: (cfg, presets.fig2a_grid())
             for name, cfg in presets.fig2a_configs().items()}
    cases["squeezed"] = (
        SchemeConfig("standard", presets.FIG2A_PARAMS, readout_angle=0.4,
                     input_spectrum=squeeze_spectrum(0.8, 0.3)),
        presets.fig2a_grid(),
    )
    cases["toy"] = (presets.fig2b_config(), presets.fig2b_grid())
    return cases


def parse_csv(text):
    """The header and the data rows of a CSV, skipping `#` lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data

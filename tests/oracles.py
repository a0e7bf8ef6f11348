"""Oracles and draws that more than one test module uses.

`_oracle_draw` and `_mp_resolvent` feed the 50-digit oracles of the linear
solve, the noise budget and the detector extraction; `preset_cases` names the
preset curves; `parse_csv` reads a written spectrum back.
"""

import mpmath
import numpy as np

from forcelimits import presets
from forcelimits.errors import UnstableModel
from forcelimits.schemes import DetectorParams, SchemeConfig, build
from forcelimits.spectra import squeeze_spectrum

FIG2A = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)


def _oracle_draw(rng, variant, k):
    """Stable draw k of a variant and its frequency for the 50-digit oracle.

    Gamma is log-uniform down to 1e-6 (exactly 1e-6 every third draw) and
    every even draw sits at Omega (1 +- 1e-3), next to the lightly damped
    resonance.  Returns the configuration and the frequency.
    """
    while True:
        params = DetectorParams(
            Omega=rng.uniform(0.05, 3.0),
            Gamma=1e-6 if k % 3 == 0 else 10.0 ** rng.uniform(-6.0, 0.0),
            gamma=rng.uniform(0.3, 6.0),
            Delta=rng.uniform(-4.0, 4.0) if variant == "standard" else 0.0,
            g=rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0]),
        )
        config = SchemeConfig(variant, params, eta=rng.uniform(-2.0, 2.0))
        try:
            build(config)
        except UnstableModel:
            continue
        if k % 2 == 0:
            return config, params.Omega * (1.0 + rng.choice([-1e-3, 1e-3]))
        return config, rng.uniform(0.01, 12.0)


def _mp_resolvent(model, omega):
    """-(A + i w I)^(-1) at mpmath's working precision, from the float64 drift."""
    n = len(model.drift)
    m = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = mpmath.mpf(model.drift[i, j])
        m[i, i] += mpmath.mpc(0, omega)
    return -mpmath.inverse(m)


def preset_cases():
    """The fig2a curves, a squeezed standard curve and fig2b's toy: name -> (config, grid)."""
    cases = {name: (cfg, presets.fig2a_grid())
             for name, cfg in presets.fig2a_configs().items()}
    cases["squeezed"] = (
        SchemeConfig("standard", FIG2A, readout_angle=0.4,
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

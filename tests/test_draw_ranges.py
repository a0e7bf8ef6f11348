"""verify.DRAW_RANGES is the one statement of the randomized draws' box: with
every range pinned to one point, every helper that draws from it draws that
point, so no helper keeps a range of its own."""

import numpy as np
from hypothesis import find, settings
from oracles import _oracle_draw
from test_linear_detectors import detector_draw
from test_noise import random_stable_configs, scan_cases, stable_schemes
from test_units import combined_draws, draws

from forcelimits.spectra import squeeze_spectrum, vacuum
from forcelimits.verify import DRAW_RANGES, random_stable_standard

#: a stable standard scheme inside the box, away from the parametric divergence
#: that random_stable_standard redraws, with its frequency and readout inputs;
#: no value is one hypothesis shrinks a range of its own to, such as 1.0
POINT = {"Omega": 1.37, "Gamma": 0.53, "gamma": 2.21, "Delta": -0.47, "g": 1.13,
         "omega": 0.71, "phi": 0.29, "xi": 4.3, "squeeze": 0.77, "squeeze_angle": 0.31}


def rates(params):
    """The drawn rates by DRAW_RANGES key; g is drawn as a magnitude."""
    return {"Omega": params.Omega, "Gamma": params.Gamma, "gamma": params.gamma,
            "Delta": params.Delta, "g": abs(params.g)}


def scheme(config):
    """The drawn rates and readout angle of a configuration."""
    return {**rates(config.params), "phi": config.readout_angle}


def first(strategy, condition=lambda drawn: True):
    """The first example of a strategy that meets the condition, derandomized."""
    return find(strategy, condition, settings=settings(database=None, derandomize=True))


def damped_standard(config):
    return config.variant == "standard" and config.params.Gamma != 0.0


def test_every_helper_draws_the_pinned_point(monkeypatch):
    assert POINT.keys() == DRAW_RANGES.keys()
    for key, x in POINT.items():
        monkeypatch.setitem(DRAW_RANGES, key, (x, x))
    expected = {**POINT, "input": squeeze_spectrum(POINT["squeeze"], POINT["squeeze_angle"])}

    params, omega = random_stable_standard(np.random.default_rng(0))
    drawn = {"random_stable_standard": {**rates(params), "omega": omega}}
    config, omega = _oracle_draw(np.random.default_rng(0), "standard", 1)
    drawn["_oracle_draw"] = {**rates(config.params), "omega": omega}
    del drawn["_oracle_draw"]["Gamma"]  # log-uniform down to 1e-6, not from the box
    configs = random_stable_configs("standard", 8, seed=0)
    for k, config in enumerate(configs):
        drawn[f"random_stable_configs {k}"] = scheme(config)
    drawn["scan_cases"] = scheme(first(scan_cases(), lambda case: damped_standard(case[0]))[0])
    drawn["draws"] = scheme(first(draws(), damped_standard))
    config = first(stable_schemes("standard"))
    # its Omega, Gamma, gamma and |g| are log-uniform over four decades
    drawn["stable_schemes"] = {"Delta": config.params.Delta, "phi": config.readout_angle,
                               "input": config.input_spectrum}
    params, omega, xi, uvw = first(combined_draws())
    drawn["combined_draws"] = {**rates(params), "omega": omega, "xi": xi, "input": uvw}
    for helper, values in drawn.items():
        assert values == {key: expected[key] for key in values}, helper

    # these two squeeze about half of their inputs; the rest are vacuum
    rng = np.random.default_rng(0)
    detectors = [d for d in (detector_draw(rng, 1) for _ in range(20)) if d is not None]
    inputs = {
        "random_stable_configs": {c.input_spectrum for c in configs},
        "detector_draw": {model.channels[0].spectrum for model, *_ in detectors},
    }
    for helper, found in inputs.items():
        assert found == {vacuum(), expected["input"]}, helper

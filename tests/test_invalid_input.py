"""Rejected input is one type, InvalidConfig, raised where the input is checked,
with its message stated there; it is a ValueError too."""

import math
import re

import numpy as np
import pytest

from forcelimits import noise, presets, verify
from forcelimits.errors import InvalidConfig
from forcelimits.linsys import LinearModel, NoiseChannel
from forcelimits.spectra import QuadratureSpectrum, squeeze_spectrum, vacuum

STANDARD = presets.fig2a_configs()["standard"]
GRID_RULE = "grid must be finite, strictly increasing and positive, got "
READOUT = NoiseChannel("a", 1.0, (0, 1), vacuum(), is_readout=True)


def model(drift=-np.eye(4), channels=(READOUT,), force_row=1):
    return LinearModel(drift=drift, channels=channels, force_row=force_row)


CASES = {
    "grid-empty": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([])),
                   "grid must be a nonempty 1-d array"),
    "grid-2d": (lambda: noise.sensitivity_spectrum(STANDARD, np.ones((2, 2))),
                "grid must be a nonempty 1-d array"),
    "grid-order": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([0.1, 1.0, 0.5])),
                   GRID_RULE + "1.0 then 0.5"),
    "grid-repeat": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([1.0, 1.0])),
                    GRID_RULE + "1.0 then 1.0"),
    "grid-negative": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([-1.0, 0.5])),
                      GRID_RULE + "-1.0"),
    "grid-zero": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([0.0, 0.5])),
                  GRID_RULE + "0.0"),
    # a bad value is named before the order it breaks
    "grid-nan": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([0.5, np.nan, 1.0])),
                 GRID_RULE + "nan"),
    "grid-inf": (lambda: noise.sensitivity_spectrum(STANDARD, np.array([0.5, np.inf])),
                 GRID_RULE + "inf"),
    "columns": (lambda: noise.SensitivitySpectrum(*[np.ones(2)] * 5, np.ones(1)),
                "all spectrum columns must have the same length"),
    "spectrum-finite": (lambda: QuadratureSpectrum(math.nan, 0.5),
                        "spectrum elements must be finite"),
    "spectrum-diagonal": (lambda: QuadratureSpectrum(-0.5, 1.0),
                          "diagonal spectrum elements must be positive"),
    "spectrum-heisenberg": (lambda: QuadratureSpectrum(0.1, 0.1),
                            "spectrum violates u*v - w^2 >= 1/4"),
    "squeeze-angle": (lambda: squeeze_spectrum(1.0, math.inf),
                      "squeeze_angle must be finite"),
    "squeeze-angle-overflow": (lambda: squeeze_spectrum(1.0, 1e308),
                               "2 * squeeze_angle overflows (squeeze_angle = 1e+308)"),
    "squeeze-nan": (lambda: squeeze_spectrum(math.nan, 0.0),
                    "squeeze = nan gives no valid input state: spectrum elements must be finite"),
    "squeeze-overflow": (lambda: squeeze_spectrum(400.0, 0.0),
                         "squeeze = 400.0 gives no valid input state: math range error"),
    "squeeze-heisenberg": (lambda: squeeze_spectrum(200.0, 0.3),
                           "squeeze = 200.0 gives no valid input state: "
                           "spectrum violates u*v - w^2 >= 1/4"),
    "channel-rate": (lambda: NoiseChannel("a", -1.0, (0, 1), vacuum()),
                     "channel rate must be nonnegative"),
    "channel-rows": (lambda: NoiseChannel("a", 1.0, (2, 2), vacuum()),
                     "channel rows must be distinct"),
    "model-square": (lambda: model(drift=np.zeros((2, 4))), "drift matrix must be square"),
    "model-scalar": (lambda: model(drift=-1.0), "drift matrix must be square"),
    "model-even": (lambda: model(drift=-np.eye(3)),
                   "state dimension must be a positive even number"),
    "model-finite": (lambda: model(drift=np.diag([-1.0, np.nan])),
                     "drift entries must be finite"),
    "model-force-row": (lambda: model(force_row=4), "force_row out of range"),
    "model-readout": (lambda: model(channels=(NoiseChannel("b", 1.0, (0, 1), vacuum()),)),
                      "exactly one channel must be the readout"),
    "model-rows": (lambda: model(channels=(NoiseChannel("r", 1.0, (4, 5), vacuum(), True),)),
                   "channel 'r' rows out of range"),
    "verify-suite": (lambda: verify.run_suite("nope"),
                     f"unknown suite 'nope'; choose from {verify.SUITES + ('all',)}"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_rejected_input_is_invalid_config(call, message):
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$") as caught:
        call()
    # callers that catch ValueError keep working
    assert isinstance(caught.value, ValueError)

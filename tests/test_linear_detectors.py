"""The paper's results for any linear detector, not only the three built schemes.

`detector_model` couples a detector of any size to the oscillator through
-g q F, q = x + eta*p, and `random_detector` draws physical ones: a positive
quadratic Hamiltonian, one decay channel per mode and a readout on mode 0.
Two oracles need no closed form:

* the theorem: S_f from the engine stays above the generalized UQL
  |Im chi_qq| / |chi_qx|^2 of the oscillator's coupling;
* the free output field: with every input a channel, the oscillator's bath
  included, the readout's transfer blocks keep the canonical commutator,
  sum_c B_c C B_c^H = C with C = [[0, i], [-i, 0]] (Caves, PRD 26, 1817, 1982).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from test_noise import preset_cases

from forcelimits import bounds, noise, presets
from forcelimits.linsys import (
    LinearModel, NoiseChannel, channel_output, stability_check, transfer,
)
from forcelimits.schemes import DetectorParams, build, conjugate_drive, coupling_drift
from forcelimits.spectra import squeeze_spectrum, vacuum

COMMUTATOR = np.array([[0.0, 1j], [-1j, 0.0]])


def detector_model(Omega, Gamma, eta, g, h, rates, f, readout_spectrum):
    """The oscillator (rows 0, 1) coupled through -g q F to a detector on the rows after.

    The detector has Hamiltonian matrix h, one decay rate per mode (row pair)
    and F = f . x on its rows.  Mode 0 is the readout, its input in
    `readout_spectrum`; every other mode's input is vacuum.  The oscillator's
    bath is no channel, as in build.  The drift is A = J H - K/2 + g
    coupling_drift(q, F), J the rotation of each pair (minus conjugate_drive's).
    """
    n = 2 + len(h)
    hamiltonian = np.zeros((n, n))
    hamiltonian[:2, :2] = Omega * np.eye(2)
    hamiltonian[2:, 2:] = h
    q = np.zeros(n)
    q[:2] = 1.0, eta
    force = np.concatenate([np.zeros(2), f])
    drift = (-conjugate_drive(hamiltonian) - np.diag(np.repeat([Gamma, *rates], 2)) / 2.0
             + g * coupling_drift(q, force))
    channels = tuple(
        NoiseChannel(f"mode{k}", rate, (2 + 2 * k, 3 + 2 * k),
                     readout_spectrum if k == 0 else vacuum(), k == 0)
        for k, rate in enumerate(rates)
    )
    return LinearModel(drift, channels, force_row=1)


def random_detector(rng, modes):
    """A stable random model with `modes` detector modes: (model, Omega, Gamma, eta)."""
    while True:
        Omega, Gamma = rng.uniform(0.2, 3.0), rng.uniform(0.01, 1.0)
        m = rng.normal(size=(2 * modes, 2 * modes))
        spectrum = vacuum()
        if rng.random() < 0.5:
            spectrum = squeeze_spectrum(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
        eta = 0.0 if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
        model = detector_model(
            Omega, Gamma, eta, rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]),
            m @ m.T + 0.05 * np.eye(2 * modes), rng.uniform(0.1, 3.0, modes),
            rng.normal(size=2 * modes), spectrum,
        )
        if stability_check(model.drift)[0]:
            return model, Omega, Gamma, eta


@pytest.mark.parametrize("name", ["standard", "cd"])
def test_the_generator_rebuilds_the_standard_scheme(name):
    for g in (-10.0, 0.3, 2.5):
        config = presets.fig2a_configs()[name]
        config = replace(config, params=replace(config.params, g=g),
                         input_spectrum=squeeze_spectrum(0.7, 0.4))
        p = config.params
        model = detector_model(p.Omega, p.Gamma, 0.0, p.g, p.Delta * np.eye(2), [p.gamma],
                               np.array([1.0, 0.0]), config.input_spectrum)
        built = build(config)
        assert np.array_equal(model.drift, built.drift)
        assert model.channels == (replace(built.readout, id="mode0"),)
        assert model.force_row == built.force_row


@pytest.mark.parametrize("modes", [1, 2])
def test_sensitivity_obeys_the_theorem(modes):
    # S_f >= |Im chi_qq| / |chi_qx|^2 for every physical detector read out at any angle
    rng = np.random.default_rng(20 + modes)
    worst = math.inf
    for _ in range(150):
        model, Omega, Gamma, eta = random_detector(rng, modes)
        omegas = np.geomspace(Omega / 30.0, 30.0 * Omega, 32)
        s_f = noise._sensitivity(model, rng.uniform(-1.5, 1.5), omegas)
        guql = bounds.generalized_uql(bounds.coupling_susceptibilities(
            DetectorParams(Omega, Gamma, gamma=1.0), eta, omegas))
        worst = min(worst, float(np.min(s_f / guql)) - 1.0)
    assert worst >= -1e-9
    assert worst < 0.25  # and some draw comes close to it


def with_bath(model, Gamma):
    """The model with the oscillator's bath, rows (0, 1), as one more vacuum channel."""
    bath = NoiseChannel("bath", Gamma, (0, 1), vacuum())
    return replace(model, channels=model.channels + (bath,))


def commutator_error(model, omegas):
    """|sum_c B_c C B_c^H - C| over max |B|^2, per omega, B over the transfer blocks."""
    resp = transfer(model, omegas)
    blocks = np.stack([channel_output(ch, resp.y, np.eye(2)) for ch in model.channels])
    total = (blocks @ COMMUTATOR @ np.conj(blocks).swapaxes(-1, -2)).sum(axis=0)
    scale = (np.abs(blocks) ** 2).max(axis=(0, 2, 3))
    return np.abs(total - COMMUTATOR).max(axis=(1, 2)) / scale


@pytest.mark.parametrize("name", list(preset_cases()))
def test_preset_output_field_is_free(name):
    config, grid = preset_cases()[name]
    omegas = np.geomspace(grid[0], grid[-1], 50)
    assert (commutator_error(with_bath(build(config), config.params.Gamma), omegas) <= 1e-13).all()
    # the bath is part of the field: without it the commutator is lost
    assert commutator_error(build(config), omegas).max() > 1e-3


@pytest.mark.parametrize("modes", [1, 2])
def test_random_output_field_is_free(modes):
    rng = np.random.default_rng(40 + modes)
    for _ in range(40):
        model, Omega, Gamma, _ = random_detector(rng, modes)
        omegas = np.geomspace(Omega / 30.0, 30.0 * Omega, 32)
        assert (commutator_error(with_bath(model, Gamma), omegas) <= 1e-13).all()

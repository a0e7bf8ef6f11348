import math
from dataclasses import replace

import numpy as np
import pytest

from forcelimits import bounds, noise
from forcelimits.errors import FailureAtFrequency, InvalidConfig, UnstableModel
from forcelimits.linsys import transfer
from forcelimits.schemes import (
    ANCILLA,
    DetectorParams,
    SchemeConfig,
    build,
    closed_form_transfer,
)
from forcelimits.spectra import vacuum


FIG2A = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)


class TestBuild:
    def test_standard_drift_entries(self):
        # the cd preset's Delta = -7 pins where the cavity block puts the detuning
        for p in (FIG2A, replace(FIG2A, Delta=-7.0)):
            model = build(SchemeConfig("standard", p))
            expected = np.array(
                [
                    [-p.Gamma / 2, p.Omega, 0.0, 0.0],
                    [-p.Omega, -p.Gamma / 2, p.g, 0.0],
                    [0.0, 0.0, -p.gamma / 2, p.Delta],
                    [p.g, 0.0, -p.Delta, -p.gamma / 2],
                ]
            )
            assert np.array_equal(model.drift, expected)
            assert model.force_row == 1

    def test_toy_drift_symmetric_mix(self):
        p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, g=5.0)
        model = build(SchemeConfig("toy", p, eta=1.0))
        g = p.g
        expected = np.array(
            [
                [-0.5, 1.0, -g, -g],
                [-1.0, -0.5, g, g],
                [-g, -g, -50.0, 0.0],
                [g, g, 0.0, -50.0],
            ]
        )
        assert np.array_equal(model.drift, expected)

    def test_toy_drift_general_mix(self):
        p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, g=5.0)
        eta = 0.6
        model = build(SchemeConfig("toy", p, eta=eta))
        a = model.drift
        # x row sees the cavity through eta, the p row with full weight
        assert a[0, 2] == a[0, 3] == -p.g * eta
        assert a[1, 2] == a[1, 3] == p.g
        # cavity rows read x with full weight and p through eta
        assert a[2, 0] == a[3, 0] * -1 == -p.g
        assert a[2, 1] == a[3, 1] * -1 == -p.g * eta

    def test_cqnc_drift_entries(self):
        model = build(SchemeConfig("cqnc", FIG2A))
        p = FIG2A
        expected = np.array(
            [
                [-p.Gamma / 2, p.Omega, 0, 0, 0, 0],
                [-p.Omega, -p.Gamma / 2, p.g, 0, 0, 0],
                [0, 0, -p.gamma / 2, 0, 0, 0],
                [p.g, 0, 0, -p.gamma / 2, p.g, 0],
                [0, 0, 0, 0, -p.Gamma / 2, -p.Omega],
                [0, 0, p.g, 0, p.Omega, -p.Gamma / 2],
            ]
        )
        assert np.array_equal(model.drift, expected)
        # the cavity's amplitude quadrature drives both the oscillator momentum
        # and the ancilla, which is what cancels the backaction
        assert model.drift[1, 2] == p.g
        assert model.drift[5, 2] == p.g
        ancilla = [ch for ch in model.channels if ch.id == ANCILLA]
        assert len(ancilla) == 1 and ancilla[0].rate == p.Gamma

    def test_unstable_configuration_rejected(self):
        bad = replace(FIG2A, Delta=2.3)
        with pytest.raises(UnstableModel):
            build(SchemeConfig("standard", bad))

    def test_coupling_mix_is_toy_only(self):
        assert SchemeConfig("toy", FIG2A, eta=-2.5).coupling_mix == -2.5
        assert SchemeConfig("standard", FIG2A, eta=-2.5).coupling_mix == 0.0
        assert SchemeConfig("cqnc", FIG2A, eta=-2.5).coupling_mix == 0.0

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            SchemeConfig("cqnc", replace(FIG2A, Delta=-1.0))
        with pytest.raises(InvalidConfig):
            SchemeConfig("toy", replace(FIG2A, Delta=-1.0))
        with pytest.raises(InvalidConfig):
            SchemeConfig("nonsense", FIG2A)
        with pytest.raises(InvalidConfig):
            DetectorParams(Omega=-1.0, Gamma=0.1, gamma=1.0)
        with pytest.raises(InvalidConfig):
            DetectorParams(Omega=1.0, Gamma=0.1, gamma=0.0)


class TestClosedFormTransfer:
    def test_coupling_off(self):
        p = replace(FIG2A, g=0.0, Delta=1.2)
        m_shot, m_back, v = closed_form_transfer(p, 0.7)
        assert np.allclose(m_back, 0.0)
        assert np.allclose(v, 0.0)
        r = p.gamma / 2 - 0.7j
        chi_r = r / (r * r + p.Delta**2)
        chi_d = p.Delta / (r * r + p.Delta**2)
        expected = -np.eye(2) + p.gamma * np.array(
            [[chi_r, chi_d], [-chi_d, chi_r]]
        )
        assert np.allclose(m_shot, expected, rtol=1e-14)

    def test_resonant_shot_block_is_unimodular(self):
        for omega in (0.01, 0.4, 6.0):
            m_shot, _, _ = closed_form_transfer(FIG2A, omega)
            assert abs(np.linalg.det(m_shot)) == pytest.approx(1.0, rel=1e-12)

    def test_shot_block_unimodular_any_detuning(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = replace(FIG2A, Delta=rng.uniform(-8, 8))
            m_shot, _, _ = closed_form_transfer(p, rng.uniform(0.01, 9))
            assert abs(np.linalg.det(m_shot)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_numeric_solve(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 20:
            p = DetectorParams(
                Omega=rng.uniform(0.05, 2),
                Gamma=rng.uniform(0.01, 1),
                gamma=rng.uniform(0.5, 5),
                Delta=rng.uniform(-4, 4),
                g=rng.uniform(-4, 4),
            )
            try:
                model = build(SchemeConfig("standard", p))
            except UnstableModel:
                continue
            omega = rng.uniform(0.01, 8)
            resp = transfer(model, omega)
            m_shot, m_back, v = closed_form_transfer(p, omega)
            scale = np.max(np.abs(m_shot + m_back))
            assert np.max(np.abs(resp.M - (m_shot + m_back))) < 1e-10 * scale
            assert np.max(np.abs(resp.v - v)) < 1e-10 * max(np.max(np.abs(v)), scale)
            checked += 1

    def test_parametric_divergence(self):
        # at omega = 0 all susceptibilities are real, so the loop denominator
        # can be tuned to zero exactly
        p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=2.0, Delta=1.0)
        chi_a0 = p.Omega / (p.Gamma**2 / 4 + p.Omega**2)
        chi_d0 = p.Delta / (p.gamma**2 / 4 + p.Delta**2)
        g = 1.0 / math.sqrt(chi_a0 * chi_d0)
        with pytest.raises(FailureAtFrequency, match=r"^parametric divergence at omega = "):
            closed_form_transfer(replace(p, g=g), 0.0)


class TestCqncResidualNoise:
    def test_ancilla_term_matches_floor_exactly(self):
        # the ancilla channel alone reproduces the analytic noise floor; the
        # 1 % margin is loose on purpose, the agreement is exact
        p = replace(FIG2A, g=1e3)
        cfg = SchemeConfig("cqnc", p)
        model = build(cfg)
        for omega in (0.002, 0.01, 0.5, 4.0, 10.0):
            coeffs = noise.added_noise(transfer(model, omega), 0.0)
            ancilla_only = noise.power_density(
                {ANCILLA: coeffs[ANCILLA]}, {ANCILLA: vacuum()}
            )
            floor = p.Gamma / (2 * p.Omega**2) * (
                omega**2 + p.Omega**2 + p.Gamma**2 / 4
            )
            assert ancilla_only == pytest.approx(floor, rel=1e-10)
            assert abs(ancilla_only / floor - 1.0) < 0.01

    def test_added_noise_has_no_cavity_backaction(self):
        cfg = SchemeConfig("cqnc", FIG2A)
        model = build(cfg)
        p = FIG2A
        for omega in (0.005, 0.07, 1.1):
            coeffs = noise.added_noise(transfer(model, omega), 0.0)
            c1, c2 = coeffs["readout"]
            # shot-only coefficients: nothing along b1 beyond the xi = 0 shot,
            # and c2 exactly the inverse signal gain
            ca = bounds.chi_mech(p, omega)
            cb = bounds.chi_cav(p, omega)
            assert c1 == pytest.approx(0.0, abs=1e-12)
            expected = 1.0 / (p.g * math.sqrt(p.gamma) * ca * cb.conjugate())
            assert c2 == pytest.approx(expected, rel=1e-10)

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import optimize
from test_linsys import _mp_resolvent, _oracle_draw

from forcelimits import bounds, linresp, noise, presets
from forcelimits.errors import FailureAtFrequency, NumericalFailure
from forcelimits.schemes import ANCILLA, READOUT, DetectorParams, SchemeConfig, build
from forcelimits.spectra import squeeze_spectrum, vacuum
from forcelimits.verify import (
    numeric_coupling_minimum,
    random_detector,
    random_stable_standard,
)


FIG2A = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)


def make_detector(**kw):
    base = dict(
        omega=1.0, chi_FF=0.0, S_FF=0.5, S_ZZ=0.5, S_ZF=0.0,
        chi_qq=0.3 + 0.4j, chi_qx=0.3 + 0.4j, g=1.0,
    )
    base.update(kw)
    return linresp.GenericDetector(**base)


class TestSprimeF:
    def test_decoupled_form(self):
        det = make_detector(S_FF=0.8, S_ZZ=1.7, g=2.0)
        expected = det.g**2 * abs(det.chi_qq) ** 2 * 0.8 + 1.7 / det.g**2
        assert linresp.sprime_f(det) == pytest.approx(expected, rel=1e-12)

    def test_zero_coupling_rejected(self):
        with pytest.raises(NumericalFailure, match=r"^added noise is undefined at g = 0$"):
            linresp.sprime_f(make_detector(g=0.0))

    def test_coupling_array_matches_scalar_calls(self):
        det = random_detector(np.random.default_rng(71))
        gs = np.concatenate([np.geomspace(1e-4, 1e4, 41), -np.geomspace(1e-4, 1e4, 41)])
        values = linresp.sprime_f(replace(det, g=gs))
        for g, value in zip(gs, values):
            scalar = linresp.sprime_f(replace(det, g=float(g)))
            assert type(scalar) is float
            assert scalar == value  # bit for bit

    def test_zero_in_coupling_array_rejected(self):
        with pytest.raises(NumericalFailure, match=r"^added noise is undefined at g = 0$"):
            linresp.sprime_f(make_detector(g=np.array([1.0, 0.0, 2.0])))

    def test_minimum_at_heisenberg_floor(self):
        # chi_FF = 0, S_ZF = 0 and S_FF S_ZZ = 1/4: the coupling optimum of
        # a g^2 + b / g^2 is 2 sqrt(ab) = |chi_qq|
        det = make_detector(S_FF=0.5, S_ZZ=0.5)

        def objective(log_g):
            return linresp.sprime_f(replace(det, g=math.exp(log_g)))

        res = optimize.minimize_scalar(
            objective, bounds=(-15, 15), method="bounded", options={"xatol": 1e-12}
        )
        assert res.fun == pytest.approx(abs(det.chi_qq), rel=1e-9)
        assert linresp.g_optimized_bound(det) == pytest.approx(
            abs(det.chi_qq), rel=1e-12
        )

    def test_standard_detector_matches_pipeline(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            params, omega = random_stable_standard(rng)
            phi = float(rng.uniform(-1.2, 1.2))
            cfg = SchemeConfig("standard", params, readout_angle=phi)
            det = linresp.extract_detector(cfg, omega)
            assert linresp.sprime_f(det) / abs(det.chi_qx) ** 2 == pytest.approx(
                noise.sensitivity_at(cfg, omega), rel=1e-9
            )

    def test_cqnc_detector_has_no_backaction(self):
        # the ancilla is part of the cqnc detector and cancels the input
        # operator's response to its own drive exactly
        for g in (-10.0, 3.7, 1e3, 1e4):
            cfg = SchemeConfig("cqnc", replace(FIG2A, g=g))
            for omega in (1e-3, 0.01, 0.5, 10.0):
                assert linresp.extract_detector(cfg, omega).chi_FF == 0.0

    @pytest.mark.parametrize("variant", ["standard", "toy"])
    def test_detector_drift_is_the_uncoupled_build(self, variant):
        # with one coupling, the model less the oscillator's coupling is the
        # model at g = 0, bit for bit, and extracting leaves the scheme as built
        rng = np.random.default_rng(["standard", "toy"].index(variant) + 101)
        for k in range(150):
            config, _ = _oracle_draw(rng, variant, k)
            uncoupled = build(replace(config, params=replace(config.params, g=0.0)))
            drift = build(config).drift
            detector = linresp._detector_model(config).drift
            assert detector.tobytes() == uncoupled.drift.tobytes()
            linresp.extract_detector(config, 0.5)
            assert build(config).drift.tobytes() == drift.tobytes()

    def test_toy_detector_matches_pipeline(self):
        # the mixed-coupling scheme maps onto the generic layer with
        # chi_qq = (1 + eta^2) chi_mech and the printed chi_qx
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = DetectorParams(
                Omega=1.0,
                Gamma=float(rng.uniform(0.2, 2.0)),
                gamma=float(rng.uniform(5.0, 100.0)),
                g=float(rng.uniform(0.5, 6.0)),
            )
            eta = float(rng.uniform(-2.0, 2.0))
            cfg = SchemeConfig("toy", p, eta=eta)
            omega = float(rng.uniform(0.05, 10.0))
            det = linresp.extract_detector(cfg, omega)
            assert linresp.sprime_f(det) / abs(det.chi_qx) ** 2 == pytest.approx(
                noise.sensitivity_at(cfg, omega), rel=1e-9
            )


def _mp_cross(a, s, b):
    """a S b^dagger of two coefficient pairs, summed term by term."""
    return sum(a[i] * s[i][k] * mpmath.conj(b[k]) for i in range(2) for k in range(2))


def _mp_detector(config, omega, spectrum):
    """chi_FF, S_FF, S_ZZ and S_ZF from the resolvent formulas at 50 digits.

    The detector drift is the built drift less g (J q F + J F q) for the
    oscillator's coupling -g q F, written out here: q = x + eta p (eta for
    toy only) and F = b1, or b1 + b2 for toy; J maps each (x, p) pair to
    (-p, x).  R is its -(A + i w I)^(-1).  F = f . x responds to its own
    conjugate drive J f as f . R J f, and a budget channel's coefficients
    in F are sqrt(rate) (f . R[:, row]).  Z is d . out normalized by its
    response to J f, with channel coefficients d . (sqrt(rate_r rate)
    R[readout rows, row] - [readout] I).  The noise sums over the readout
    (in state `spectrum`) and the cqnc ancilla (vacuum).  The last value is
    the scale of chi_FF, the sum of its terms' magnitudes (chi_FF cancels
    to zero for the toy and cqnc couplings).
    """
    model = build(replace(config, input_spectrum=spectrum))
    n = len(model.drift)
    toy = config.variant == "toy"
    q, f = np.zeros(n), np.zeros(n)
    q[:2] = 1.0, config.eta if toy else 0.0
    f[2:4] = 1.0, 1.0 if toy else 0.0
    j = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])
    coupling = np.outer(j @ q, f) + np.outer(j @ f, q)
    bare = replace(model, drift=model.drift - config.params.g * coupling)
    readout = model.readout
    rows = readout.rows
    drive = j @ f
    phi = config.readout_angle
    with mpmath.workdps(50):
        R = _mp_resolvent(bare, omega)
        rate = mpmath.mpf(readout.rate)
        d = [mpmath.sin(phi), mpmath.cos(phi)]
        response = [sum(R[i, k] * drive[k] for k in range(n)) for i in range(n)]
        chi_ff = sum(f[i] * response[i] for i in range(n))
        chi_scale = sum(abs(f[i] * R[i, k] * drive[k])
                        for i in range(n) for k in range(n))
        chi_zf = mpmath.sqrt(rate) * sum(d[m] * response[r] for m, r in enumerate(rows))
        s_ff = s_zz = s_zf = 0
        for ch in model.channels:
            if ch.id not in (READOUT, ANCILLA):
                continue
            ch_rate = mpmath.mpf(ch.rate)
            f_c = [mpmath.sqrt(ch_rate) * sum(f[i] * R[i, c] for i in range(n))
                   for c in ch.rows]
            z_c = [
                sum(d[m] * (mpmath.sqrt(rate * ch_rate) * R[r, c]
                            - (ch.is_readout and m == k)) for m, r in enumerate(rows))
                / chi_zf
                for k, c in enumerate(ch.rows)
            ]
            sp = ch.spectrum
            s = [[sp.u, sp.w], [sp.w, sp.v]]
            s_ff += _mp_cross(f_c, s, f_c)
            s_zz += _mp_cross(z_c, s, z_c)
            s_zf += _mp_cross(z_c, s, f_c)
        return (
            complex(chi_ff), float(mpmath.re(s_ff)), float(mpmath.re(s_zz)),
            complex(s_zf), float(chi_scale),
        )


@pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
def test_extract_detector_against_50_digit_oracle(variant):
    # standard draws carry Delta != 0 and a random readout angle, toy draws a
    # random coupling mix eta; every input state is squeezed at a random angle
    rng = np.random.default_rng(["standard", "toy", "cqnc"].index(variant) + 41)
    for k in range(16):
        config, omega = _oracle_draw(rng, variant, k)
        config = replace(config, readout_angle=rng.uniform(-math.pi, math.pi))
        spectrum = squeeze_spectrum(
            rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi)
        )
        det = linresp.extract_detector(config, omega, input_spectrum=spectrum)
        chi_ff, s_ff, s_zz, s_zf, chi_scale = _mp_detector(config, omega, spectrum)
        assert abs(det.chi_FF - chi_ff) <= 1e-12 * chi_scale
        assert abs(det.S_FF - s_ff) <= 1e-12 * s_ff
        assert abs(det.S_ZZ - s_zz) <= 1e-12 * s_zz
        assert abs(det.S_ZF - s_zf) <= 1e-12 * math.sqrt(s_ff * s_zz)


def _sprime_terms(det):
    """The three terms of S'_f: g^2 |chi_qq|^2 S_FF, |g_z|^2 S_ZZ, 2 Re(g_f* g_z S_ZF)."""
    g_f = det.g * det.chi_qq
    g_z = 1.0 / det.g - det.g * det.chi_qq * det.chi_FF
    return (abs(g_f) ** 2 * det.S_FF, abs(g_z) ** 2 * det.S_ZZ,
            2.0 * (g_f.conjugate() * g_z * det.S_ZF).real)


def _identity_cases():
    """(config, omega) at every 20th preset grid point and on 16 oracle draws per variant."""
    presets_ = {**presets.fig2a_configs(), "toy": presets.fig2b_config()}
    for name, config in presets_.items():
        grid = presets.fig2b_grid() if name == "toy" else presets.fig2a_grid()
        yield from ((config, omega) for omega in grid[::20])
    for variant in ("standard", "cqnc", "toy"):
        rng = np.random.default_rng(["standard", "cqnc", "toy"].index(variant) + 107)
        yield from (_oracle_draw(rng, variant, k) for k in range(16))


def test_sensitivity_is_scaled_added_noise_for_every_scheme():
    # S_f |chi_qx|^2 = S'_f, within 1e-13 of S'_f's largest term: the g^2 terms
    # of S'_f cancel down to the coupling-independent floor
    variants = set()
    for config, omega in _identity_cases():
        det = linresp.extract_detector(config, omega)
        scale = max(abs(t) for t in _sprime_terms(det))
        s_f = noise.sensitivity_at(config, omega)
        assert abs(linresp.sprime_f(det) - s_f * abs(det.chi_qx) ** 2) <= 1e-13 * scale
        assert abs(linresp.sprime_f(det) - sum(_sprime_terms(det))) <= 1e-13 * scale
        variants.add(config.variant)
    assert variants == {"standard", "cqnc", "toy"}


class TestGOptimizedBound:
    def test_bound_is_true_minimum(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            det = random_detector(rng)
            minimum = None
            for log_g in np.linspace(-8, 8, 161):
                value = linresp.sprime_f(replace(det, g=math.exp(log_g)))
                minimum = value if minimum is None else min(minimum, value)
            bound = linresp.g_optimized_bound(det)
            assert minimum >= bound * (1 - 1e-9) - 1e-12
            res = optimize.minimize_scalar(
                lambda t: linresp.sprime_f(replace(det, g=math.exp(t))),
                bounds=(-8, 8), method="bounded", options={"xatol": 1e-12},
            )
            assert res.fun == pytest.approx(bound, rel=1e-7)

    def test_verify_scan_minimum_matches_bound(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            det = random_detector(rng)
            assert numeric_coupling_minimum(det) == pytest.approx(
                linresp.g_optimized_bound(det), rel=1e-12
            )

    def test_bound_dominates_dissipation_floor(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            det = random_detector(rng)
            floor = abs(det.chi_qq.imag)
            assert linresp.g_optimized_bound(det) >= floor * (1 - 1e-9) - 1e-12


def spectral_matrix(s, chi):
    """Hermitian matrix M = S - i (chi - chi^dagger)/2 whose positivity encodes
    the spectral uncertainty relations of an operator pair."""
    s = np.asarray(s, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    return s - 1j * (chi - chi.conj().T) / 2.0


def detector_spectral_matrix(det):
    # pair (F, Z) with chi_ZF = 1 and chi_ZZ = chi_FZ = 0 by convention
    s = np.array(
        [[det.S_FF, det.S_ZF.conjugate()], [det.S_ZF, det.S_ZZ]], dtype=complex
    )
    chi = np.array([[det.chi_FF, 0.0], [1.0, 0.0]], dtype=complex)
    return spectral_matrix(s, chi)


class TestUncertainty:
    def test_vacuum_saturates(self):
        slack = linresp.uncertainty_slack(make_detector())
        assert slack >= -1e-9
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_sub_heisenberg_fails(self):
        slack = linresp.uncertainty_slack(make_detector(S_FF=0.1, S_ZZ=0.1))
        assert not slack >= -1e-9
        assert slack == pytest.approx(-0.24, abs=1e-12)

    def test_extracted_standard_detector_holds(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            params, omega = random_stable_standard(rng)
            cfg = SchemeConfig(
                "standard", params, readout_angle=float(rng.uniform(-1.2, 1.2))
            )
            det = linresp.extract_detector(cfg, omega, input_spectrum=vacuum())
            assert linresp.uncertainty_slack(det) >= -1e-9
            assert np.linalg.eigvalsh(detector_spectral_matrix(det)).min() >= -1e-9

    @pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
    def test_extracted_detectors_hold(self, variant):
        # squeezed readout input, random readout angle; the cqnc detector
        # carries the ancilla's noise too
        rng = np.random.default_rng(["standard", "cqnc", "toy"].index(variant) + 113)
        for k in range(24):
            config, omega = _oracle_draw(rng, variant, k)
            config = replace(config, readout_angle=rng.uniform(-1.3, 1.3))
            spectrum = squeeze_spectrum(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
            det = linresp.extract_detector(config, omega, input_spectrum=spectrum)
            assert linresp.uncertainty_slack(det) >= -1e-9
        for g in (-10.0, 3.7, 1e3):
            det = linresp.extract_detector(SchemeConfig(variant, replace(FIG2A, g=g)), 0.5)
            assert linresp.uncertainty_slack(det) >= -1e-9

    def test_matrix_positivity_equals_scalar_relations(self):
        # positivity of the 2x2 spectral matrix is the same predicate as the
        # pair of diagonal relations plus the determinant relation
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 300:
            s11, s22 = rng.uniform(0.0, 2.0, size=2)
            s21 = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
            s = np.array([[s11, s21.conjugate()], [s21, s22]])
            chi = rng.normal(0, 0.7, size=(2, 2)) + 1j * rng.normal(0, 0.7, size=(2, 2))
            m = spectral_matrix(s, chi)
            assert np.allclose(m, m.conj().T)
            eigenvalues = np.linalg.eigvalsh(m)
            det = float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
            scale = max(float(np.max(np.abs(m))), 1e-3)
            boundary = 1e-10 * scale
            if abs(eigenvalues.min()) < boundary or abs(det) < boundary**2:
                continue
            by_eigenvalues = eigenvalues.min() >= 0.0
            by_scalars = m[0, 0].real >= 0.0 and m[1, 1].real >= 0.0 and det >= 0.0
            assert by_eigenvalues == by_scalars
            checked += 1


def combined_sensitivity(params, omega, cq):
    """S_f reassembled from the combined-scheme quantities."""
    inv_chi = bounds.inverse_chi_mech(params, omega)
    return 2.0 * inv_chi.real * cq.H + cq.K + abs(inv_chi) ** 2 * cq.L


class TestCombinedQuantities:
    def test_resonant_phase_readout_values(self):
        p = replace(FIG2A, Delta=0.0)
        omega = 0.4
        cq = linresp.combined_quantities(p, omega, 0.0, vacuum(), p.g)
        assert cq.D == 0.0
        assert cq.Y == 0.0
        r2 = p.gamma**2 / 4 + omega**2
        assert cq.E * cq.X == pytest.approx(p.g**2 * p.gamma * r2, rel=1e-12)
        assert abs(cq.C) ** 2 == pytest.approx(p.g**2 * p.gamma * r2, rel=1e-12)

    def test_identities_random_draws(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            params, omega = random_stable_standard(rng)
            xi = float(rng.uniform(-20, 20))
            uvw = squeeze_spectrum(
                float(rng.uniform(0, 1.5)), float(rng.uniform(-math.pi, math.pi))
            )
            cq = linresp.combined_quantities(params, omega, xi, uvw, params.g)
            c2 = abs(cq.C) ** 2
            assert abs(cq.E * cq.X - cq.D * cq.Y - c2) / c2 < 1e-10
            assert abs(cq.K * cq.L - cq.H**2 - (uvw.u * uvw.v - uvw.w**2)) < 1e-10

    def test_sensitivity_matches_pipeline(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            params, omega = random_stable_standard(rng)
            phi = float(rng.uniform(-1.2, 1.2))
            uvw = squeeze_spectrum(
                float(rng.uniform(0, 1.2)), float(rng.uniform(-math.pi, math.pi))
            )
            cfg = SchemeConfig(
                "standard", params, readout_angle=phi, input_spectrum=uvw
            )
            cq = linresp.combined_quantities(
                params, omega, math.tan(phi), uvw, params.g
            )
            assert combined_sensitivity(params, omega, cq) == pytest.approx(
                noise.sensitivity_at(cfg, omega), rel=1e-9
            )
            # chain endpoint: the combined scheme still obeys the dissipation bound
            assert combined_sensitivity(params, omega, cq) >= bounds.uql(
                params, omega
            ) * (1 - 1e-9)


class TestFeedback:
    def test_zero_gain_equals_static_sensitivity(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            det = random_detector(rng)
            assert linresp.feedback_added_noise(det, 0.0) == pytest.approx(
                linresp.sprime_f(det) / abs(det.chi_qx) ** 2, rel=1e-12
            )

    def test_gain_invariance(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            det = random_detector(rng)
            reference = linresp.feedback_added_noise(det, 0.0)
            for gain in (0.5, -0.5, 5.0, -5.0, 10.0):
                assert linresp.feedback_added_noise(det, gain) == pytest.approx(
                    reference, rel=1e-9
                )

    def test_standard_detector_with_feedback_matches_closed_form(self):
        p = FIG2A
        omega = 0.6
        det = linresp.extract_detector(SchemeConfig("standard", p), omega)
        ca2 = abs(bounds.chi_mech(p, omega)) ** 2
        cb2 = abs(bounds.chi_cav(p, omega)) ** 2
        closed = 0.5 * (
            p.g**2 * p.gamma * cb2 + 1.0 / (p.g**2 * p.gamma * ca2 * cb2)
        )
        assert linresp.feedback_added_noise(det, 1.0) == pytest.approx(
            closed, rel=1e-9
        )

    def test_zero_frequency_rejected(self):
        det = make_detector()
        with pytest.raises(FailureAtFrequency,
                           match=r"^feedback transform undefined at omega = 0\.0$"):
            linresp.feedback_added_noise(det, 1.0, omega=0.0)
        with pytest.raises(FailureAtFrequency) as info:
            linresp.feedback_added_noise(det, np.array([0.5, 1.0]), np.array([2.0, 0.0]))
        assert info.value.omega == 0.0
        assert str(info.value) == "feedback transform undefined at omega = 0.0"

    def test_stacked_solve_matches_scalar_calls(self):
        # the stacked elementwise arithmetic may round differently in the last bit
        rng = np.random.default_rng(97)
        gains = np.array([0.0, 0.5, -0.5, 5.0, -5.0])
        for _ in range(20):
            det = random_detector(rng)
            omegas = rng.uniform(0.05, 20.0, size=12)
            stacked = linresp.feedback_added_noise(det, gains[:, None], omegas)
            scalar = [[linresp.feedback_added_noise(det, float(gain), float(omega))
                       for omega in omegas] for gain in gains]
            assert stacked.shape == (len(gains), len(omegas))
            np.testing.assert_allclose(stacked, scalar, rtol=1e-14, atol=0)


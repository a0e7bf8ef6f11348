import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from forcelimits import bounds
from forcelimits.errors import FailureAtFrequency
from forcelimits.schemes import DetectorParams


def params(Omega=1.0, Gamma=1.0, gamma=2.0, **kw):
    return DetectorParams(Omega=Omega, Gamma=Gamma, gamma=gamma, **kw)


class TestSusceptibilities:
    def test_cavity_dc_value(self):
        p = params(gamma=3.0)
        assert bounds.chi_cav(p, 0.0) == pytest.approx(2.0 / 3.0)

    def test_mechanical_dc_value_undamped(self):
        p = params(Omega=2.0, Gamma=0.0)
        assert bounds.chi_mech(p, 0.0) == pytest.approx(0.5)

    def test_inverse_imaginary_part(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = params(Omega=rng.uniform(0.1, 5), Gamma=rng.uniform(0.0, 3))
            w = rng.uniform(0.0, 10)
            inv = bounds.inverse_chi_mech(p, w)
            assert inv.imag == pytest.approx(-w * p.Gamma / p.Omega, abs=1e-12)
            # and it really is the reciprocal
            assert inv * bounds.chi_mech(p, w) == pytest.approx(1.0, abs=1e-12)

    def test_resonance_singularity(self):
        p = params(Omega=1.0, Gamma=0.0)
        with pytest.raises(FailureAtFrequency,
                           match=r"^undamped oscillator driven on resonance at omega = "):
            bounds.chi_mech(p, 1.0)

    def test_resonance_is_relative_to_the_terms(self):
        # one ulp above an undamped resonance, |Omega^2 - w^2| is 4.4e-16, some
        # 2e-16 of Omega^2 + w^2: zero by the rule; 1e-13 away it is not
        p = params(Omega=1.0, Gamma=0.0)
        with pytest.raises(FailureAtFrequency,
                           match=r"^undamped oscillator driven on resonance at omega = "):
            bounds.chi_mech(p, math.nextafter(1.0, 2.0))
        assert abs(bounds.chi_mech(p, 1.0 + 1e-13)) == pytest.approx(5e12, rel=1e-3)


class TestSqlUql:
    def test_sql_undamped_dc(self):
        assert bounds.sql(params(Omega=3.0, Gamma=0.0), 0.0) == pytest.approx(3.0)

    def test_sql_vanishes_on_undamped_resonance(self):
        p = params(Omega=1.0, Gamma=0.0)
        assert bounds.sql(p, 1.0 - 1e-8) < 1e-7

    def test_sql_times_chi_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = params(Omega=rng.uniform(0.1, 4), Gamma=rng.uniform(0.01, 2))
            w = rng.uniform(0.01, 8)
            assert bounds.sql(p, w) * abs(bounds.chi_mech(p, w)) == pytest.approx(1.0)

    def test_float_call_past_underflow_is_inf(self):
        # far above Omega chi_mech (1e-320 here) is below 1/DBL_MAX: a float ends in inf,
        # as an array does
        p = params(Omega=1.0, Gamma=1.0, gamma=1.0)
        with np.errstate(all="ignore"):
            assert bounds.sql(p, 1e160) == math.inf
            assert bounds.sql(p, np.array([1e160]))[0] == math.inf

    def test_float_call_is_one_over_python_abs(self):
        # bit for bit 1/abs(chi) with Python's abs, which numpy's complex abs is not
        rng = np.random.default_rng(31)
        with np.errstate(all="ignore"):
            for _ in range(3000):
                p = params(Omega=10.0 ** rng.uniform(-3, 3), Gamma=10.0 ** rng.uniform(-3, 3))
                w = 10.0 ** rng.uniform(-5.0, 200.0)
                chi = bounds.chi_mech(p, w)
                assert bounds.sql(p, w) == (1.0 / abs(chi) if chi != 0.0 else math.inf)

    def test_sql_is_coupling_optimum(self):
        # oracle: minimize the shot/backaction tradeoff over the coupling
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = params(
                Omega=rng.uniform(0.1, 2), Gamma=rng.uniform(0.05, 1),
                gamma=rng.uniform(0.5, 5),
            )
            w = rng.uniform(0.05, 5)
            ca2 = abs(bounds.chi_mech(p, w)) ** 2
            cb2 = abs(bounds.chi_cav(p, w)) ** 2

            def tradeoff(log_g2):
                g2 = math.exp(log_g2)
                return 0.5 * (g2 * p.gamma * cb2 + 1.0 / (g2 * p.gamma * ca2 * cb2))

            res = optimize.minimize_scalar(
                tradeoff, bounds=(-40, 40), method="bounded",
                options={"xatol": 1e-12},
            )
            assert bounds.sql(p, w) == pytest.approx(res.fun, rel=1e-9)

    def test_uql_values(self):
        p = params(Omega=0.01, Gamma=0.01)
        assert bounds.uql(p, 0.37) == pytest.approx(0.37)
        assert bounds.uql(p, 0.0) == 0.0
        assert bounds.uql(params(Omega=2.0, Gamma=0.5), 3.0) == pytest.approx(0.75)


class TestCouplingSusceptibilities:
    def test_position_coupling_reduces_to_chi_mech(self):
        p = params()
        q = bounds.coupling_susceptibilities(p, 0.0, 0.7)
        ca = bounds.chi_mech(p, 0.7)
        assert q.chi_qq == pytest.approx(ca)
        assert q.chi_qx == pytest.approx(ca)

    def test_symmetric_mix_values(self):
        p = params()
        w = 1.3
        q = bounds.coupling_susceptibilities(p, 1.0, w)
        ca = bounds.chi_mech(p, w)
        assert q.chi_qq == pytest.approx(2.0 * ca)
        assert q.chi_qx == pytest.approx((1.0 + (p.Gamma / 2 - 1j * w) / p.Omega) * ca)

    def test_against_driven_oscillator_oracle(self):
        # oracle: drive the two-quadrature oscillator block directly and read
        # off the response of q = x + eta*p
        rng = np.random.default_rng(21)
        for _ in range(25):
            p = params(Omega=rng.uniform(0.2, 3), Gamma=rng.uniform(0.05, 2))
            eta = rng.uniform(-4, 4)
            w = rng.uniform(0.01, 6)
            a = np.array(
                [[-p.Gamma / 2, p.Omega], [-p.Omega, -p.Gamma / 2]]
            )
            res = np.linalg.solve(a + 1j * w * np.eye(2), -np.eye(2, dtype=complex))
            q_of = lambda state: state[0] + eta * state[1]
            chi_qq = q_of(res @ np.array([-eta, 1.0]))
            chi_qx = q_of(res @ np.array([0.0, 1.0]))
            q = bounds.coupling_susceptibilities(p, eta, w)
            assert q.chi_qq == pytest.approx(chi_qq, rel=1e-8)
            assert q.chi_qx == pytest.approx(chi_qx, rel=1e-8)


class TestGeneralizedBound:
    def test_position_coupling_recovers_uql(self):
        p = params(Omega=0.7, Gamma=0.2)
        w = 1.9
        q = bounds.coupling_susceptibilities(p, 0.0, w)
        assert bounds.generalized_uql(q) == pytest.approx(bounds.uql(p, w), rel=1e-12)

    def test_symmetric_mix_frozen_value(self):
        # direct evaluation of the eta = 1 closed form at Gamma = Omega = w
        p = params(Omega=1.0, Gamma=1.0)
        q = bounds.coupling_susceptibilities(p, 1.0, 1.0)
        assert bounds.generalized_uql(q) == pytest.approx(2.0 / 3.25, rel=1e-12)

    def test_beats_position_coupling_everywhere(self):
        p = params(Omega=1.0, Gamma=1.0)
        for w in np.geomspace(1e-3, 1e3, 60):
            q = bounds.coupling_susceptibilities(p, 1.0, w)
            ratio = bounds.generalized_uql(q) / bounds.uql(p, w)
            assert ratio == pytest.approx(2.0 / (2.25 + w**2), rel=1e-9)
            assert ratio < 1.0

    def test_zero_cross_susceptibility_raises(self):
        # at w = 0 and eta = -2 Omega / Gamma the coupling decouples from x
        p = params(Omega=1.0, Gamma=1.0)
        q = bounds.coupling_susceptibilities(p, -2.0, 0.0)
        assert abs(q.chi_qx) == 0.0
        with pytest.raises(FailureAtFrequency, match=r"^chi_qx vanished at omega = "):
            bounds.generalized_uql(q)


class TestOptimalBound:
    def test_frozen_value(self):
        # direct evaluation: (1/2) (2.25 - sqrt(1.0625)) at Gamma = Omega = w = 1
        p = params(Omega=1.0, Gamma=1.0)
        expected = 0.5 * (2.25 - math.sqrt(1.0625))
        assert bounds.optimal_uql(p, 1.0) == pytest.approx(expected, rel=1e-12)
        assert bounds.optimal_uql(p, 1.0) <= 2.0 / 3.25  # below the eta = 1 bound

    def test_matches_printed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = params(Omega=rng.uniform(0.2, 3), Gamma=rng.uniform(0.05, 3))
            w = rng.uniform(0.05, 10)
            quarter = p.Gamma**2 / 4
            direct = (p.Gamma / (2 * w * p.Omega)) * (
                quarter + w**2 + p.Omega**2
                - math.sqrt((quarter + w**2 - p.Omega**2) ** 2 + p.Gamma**2 * p.Omega**2)
            )
            assert bounds.optimal_uql(p, w) == pytest.approx(direct, rel=1e-9)

    def test_high_frequency_tail(self):
        p = params(Omega=1.0, Gamma=1.0)
        assert bounds.optimal_uql(p, 100.0) == pytest.approx(0.01, rel=0.01)

    def test_dominated_by_every_mix(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = params(Omega=rng.uniform(0.2, 3), Gamma=rng.uniform(0.05, 3))
            w = rng.uniform(0.02, 10)
            opt = bounds.optimal_uql(p, w)
            for eta in rng.uniform(-30, 30, size=6):
                guql = bounds.generalized_uql(
                    bounds.coupling_susceptibilities(p, float(eta), w)
                )
                assert guql >= opt * (1 - 1e-10)

    def test_zero_frequency_limit(self):
        assert bounds.optimal_uql(params(), 0.0) == 0.0

    def test_extreme_rates_against_60_digit_arithmetic(self):
        # in a unit of Omega alone, (Gamma/Omega)^2 or (w/Omega)^4 overflows to a bound of 0
        def exact(p, w):
            Omega, Gamma, w = map(mpmath.mpf, (p.Omega, p.Gamma, w))
            a = Gamma**2 / 4 + w**2 + Omega**2
            b = Gamma**2 / 4 + w**2 - Omega**2
            return 2 * Gamma * Omega * w / (a + mpmath.sqrt(b**2 + Gamma**2 * Omega**2))

        rng = np.random.default_rng(37)
        with mpmath.workdps(60):
            for _ in range(400):
                Omega, Gamma = 10.0 ** rng.uniform(-100, 100, 2)
                p = params(Omega=float(Omega), Gamma=float(Gamma))
                ws = p.Omega * 10.0 ** rng.uniform(-60.0, 60.0, 5)
                values = bounds.optimal_uql(p, ws)
                for w, value in zip(ws, values):
                    assert bounds.optimal_uql(p, float(w)) == value
                    expected = exact(p, w)  # below 2.2e-308 only to a subnormal's spacing
                    assert abs(value - expected) <= 1e-15 * expected + 5e-324
            # Gamma/s underflows in the unit s of Omega and w; Gamma itself does not
            far = params(Omega=1e300, Gamma=1e-300)
            expected = exact(far, 1e300)
            assert abs(bounds.optimal_uql(far, 1e300) - expected) <= 1e-15 * expected
        # approx's default absolute tolerance of 1e-12 would accept 0.0 here
        assert bounds.optimal_uql(params(), 1e200) == pytest.approx(1e-200, rel=1e-15, abs=0)


class TestUnitRule:
    # Gamma/Omega = 1.8e174 and w/Omega = 3.8: in the unit of Omega alone
    # (Gamma/s)^2 overflowed, chi_mech was 0, sql inf and gUQL raised
    FAR = params(Omega=2.6e-81, Gamma=4.7e93)
    OMEGA = 1e-80

    @staticmethod
    def exact(p, w, eta):
        """40-digit chi_mech, inverse_chi_mech, sql, uql, gUQL at eta and the optimal bound."""
        Omega, Gamma, w, eta = map(mpmath.mpf, (p.Omega, p.Gamma, w, eta))
        d = Gamma / 2 - 1j * w
        chi = Omega / (d**2 + Omega**2)
        a = Gamma**2 / 4 + w**2 + Omega**2
        b = Gamma**2 / 4 + w**2 - Omega**2
        return {
            "chi_mech": chi, "inverse_chi_mech": 1 / chi, "sql": 1 / abs(chi),
            "uql": w * Gamma / Omega,
            "generalized_uql": abs(((1 + eta**2) * chi).imag) / abs((1 + eta * d / Omega) * chi)**2,
            "optimal_uql": 2 * Gamma * Omega * w / (a + mpmath.sqrt(b**2 + Gamma**2 * Omega**2)),
        }

    @staticmethod
    def computed(p, w, eta):
        return {
            "chi_mech": bounds.chi_mech(p, w), "inverse_chi_mech": bounds.inverse_chi_mech(p, w),
            "sql": bounds.sql(p, w), "uql": bounds.uql(p, w),
            "generalized_uql": bounds.generalized_uql(bounds.coupling_susceptibilities(p, eta, w)),
            "optimal_uql": bounds.optimal_uql(p, w),
        }

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    @pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
    def test_far_rates_against_40_digit_arithmetic(self, eta, as_array):
        w = np.array([self.OMEGA]) if as_array else self.OMEGA
        with mpmath.workdps(40):
            expected = self.exact(self.FAR, self.OMEGA, eta)
            for name, value in self.computed(self.FAR, w, eta).items():
                value = complex(value[0] if as_array else value)
                error = abs(mpmath.mpc(value) - expected[name]) / abs(expected[name])
                assert error <= 1e-15, (name, value, expected[name])

    def test_generalized_bound_at_position_coupling_is_uql(self):
        for w in (self.OMEGA, np.array([self.OMEGA, 0.3, 1e90])):
            q = bounds.coupling_susceptibilities(self.FAR, 0.0, w)
            np.testing.assert_array_equal(bounds.generalized_uql(q), bounds.uql(self.FAR, w))

    def test_inverse_far_above_the_rates(self):
        # the real part -w^2/Omega overflows, the imaginary part -w Gamma/Omega does not;
        # (Gamma/2 - i w)^2 in the unit of max(Omega, Gamma) made both NaN
        p = params(Omega=1.0, Gamma=1.0)
        with np.errstate(over="ignore"):
            for value in (bounds.inverse_chi_mech(p, 1e160),
                          bounds.inverse_chi_mech(p, np.array([1e160]))[0]):
                assert value.real == -math.inf and value.imag == -1e160


def test_bounds_scale_linearly_with_frequency_unit():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = params(
            Omega=rng.uniform(0.2, 2), Gamma=rng.uniform(0.05, 1),
            gamma=rng.uniform(0.5, 4),
        )
        w = rng.uniform(0.05, 5)
        lam = rng.uniform(0.1, 50)
        scaled = DetectorParams(
            Omega=lam * p.Omega, Gamma=lam * p.Gamma, gamma=lam * p.gamma
        )
        assert bounds.sql(scaled, lam * w) == pytest.approx(lam * bounds.sql(p, w))
        assert bounds.uql(scaled, lam * w) == pytest.approx(lam * bounds.uql(p, w))
        assert bounds.optimal_uql(scaled, lam * w) == pytest.approx(
            lam * bounds.optimal_uql(p, w)
        )
        q = bounds.coupling_susceptibilities(p, 1.3, w)
        q_scaled = bounds.coupling_susceptibilities(scaled, 1.3, lam * w)
        assert bounds.generalized_uql(q_scaled) == pytest.approx(
            lam * bounds.generalized_uql(q)
        )


class TestArrayArguments:
    # arrays divide complex numbers with numpy's algorithm instead of
    # Python's: agreement to a few float64 ulps, fixed before measuring
    RTOL = 1e-14

    def test_frequency_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = params(Omega=rng.uniform(0.1, 4), Gamma=rng.uniform(0.0, 2),
                       gamma=rng.uniform(0.5, 5))
            eta = rng.uniform(-3, 3)
            ws = np.sort(rng.uniform(0.01, 10, size=50))
            cases = {
                "chi_mech": lambda w: bounds.chi_mech(p, w),
                "chi_cav": lambda w: bounds.chi_cav(p, w),
                "inverse_chi_mech": lambda w: bounds.inverse_chi_mech(p, w),
                "sql": lambda w: bounds.sql(p, w),
                "uql": lambda w: bounds.uql(p, w),
                "generalized_uql": lambda w: bounds.generalized_uql(
                    bounds.coupling_susceptibilities(p, eta, w)
                ),
                "optimal_uql": lambda w: bounds.optimal_uql(p, w),
            }
            for name, of in cases.items():
                np.testing.assert_allclose(
                    of(ws), [of(float(w)) for w in ws], rtol=self.RTOL, atol=0,
                    err_msg=name,
                )

    def test_mix_array_matches_scalar_calls(self):
        p = params(Omega=1.3, Gamma=0.7)
        etas = np.linspace(-50.0, 50.0, 201)
        q = bounds.coupling_susceptibilities(p, etas, 0.77)
        scalar = [bounds.coupling_susceptibilities(p, float(e), 0.77) for e in etas]
        np.testing.assert_allclose(q.chi_qq, [s.chi_qq for s in scalar], rtol=self.RTOL)
        np.testing.assert_allclose(q.chi_qx, [s.chi_qx for s in scalar], rtol=self.RTOL)
        np.testing.assert_allclose(
            bounds.generalized_uql(q), [bounds.generalized_uql(s) for s in scalar],
            rtol=self.RTOL,
        )

    def test_resonance_in_array_names_first_frequency(self):
        message = r"^undamped oscillator driven on resonance at omega = 1\.0$"
        p = params(Omega=1.0, Gamma=0.0)
        with pytest.raises(FailureAtFrequency, match=message):
            bounds.sql(p, np.array([0.5, 1.0, 2.0]))
        with pytest.raises(FailureAtFrequency, match=message):
            bounds.coupling_susceptibilities(p, 0.3, np.array([0.5, 1.0, 1.0]))

    def test_vanishing_cross_susceptibility_in_array(self):
        p = params(Omega=1.0, Gamma=1.0)
        q = bounds.coupling_susceptibilities(p, np.array([-1.0, -2.0, -3.0]), 0.0)
        with pytest.raises(FailureAtFrequency, match=r"^chi_qx vanished at omega = 0\.0$"):
            bounds.generalized_uql(q)

    def test_optimal_bound_zero_frequency_in_array(self):
        values = bounds.optimal_uql(params(), np.array([0.0, 0.5]))
        assert values[0] == 0.0
        assert values[1] == bounds.optimal_uql(params(), 0.5)

    def test_empty_arrays(self):
        none = np.array([], dtype=float)
        assert bounds.sql(params(Gamma=0.0), none).shape == (0,)
        q = bounds.coupling_susceptibilities(params(), 1.0, none)
        assert bounds.generalized_uql(q).shape == (0,)
        assert bounds.optimal_uql(params(), none).shape == (0,)

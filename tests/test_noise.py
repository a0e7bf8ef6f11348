import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import DRAW_RANGES, ETA_RANGE, _mp_resolvent, _oracle_draw, preset_cases, standard_s_f

from forcelimits import bounds, noise, presets
from forcelimits.errors import (
    FailureAtFrequency,
    ForceLimitsError,
    InvalidConfig,
    UnstableModel,
)
from forcelimits.linsys import FORCE_ROW, quadrature, transfer
from forcelimits.schemes import MECHANICAL, DetectorParams, SchemeConfig, build
from forcelimits.spectra import QuadratureSpectrum, squeeze_spectrum, vacuum


class TestQuadratureSpectrum:
    def test_vacuum(self):
        spec = vacuum()
        assert (spec.u, spec.v, spec.w) == (0.5, 0.5, 0.0)

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpectrum(u=0.1, v=0.1, w=0.0)
        with pytest.raises(ValueError):
            QuadratureSpectrum(u=-0.5, v=1.0, w=0.0)
        nan, inf = math.nan, math.inf
        for uvw in [(nan, 0.5, 0.0), (0.5, nan, 0.0), (0.5, 0.5, nan),
                    (inf, 0.5, 0.0), (0.5, inf, 0.0), (0.5, 0.5, inf), (inf, inf, inf)]:
            with pytest.raises(ValueError):
                QuadratureSpectrum(*uvw)
        # at s = 200 both u*v and w^2 overflow; their difference is NaN, not >= 1/4
        with pytest.raises(ValueError, match="violates"):
            squeeze_spectrum(200.0, 0.3)

    def test_no_squeezing_is_vacuum(self):
        spec = squeeze_spectrum(0.0, 1.234)
        assert (spec.u, spec.v, spec.w) == (0.5, 0.5, 0.0)
        # exactly, at any angle: s = 0 needs no special case
        for theta in [0.0, 0.3, -1.0, math.pi / 4, 2.5, -7.77, 49.99, -50.0, 1e3, 1e15]:
            assert squeeze_spectrum(0.0, theta) == vacuum()

    def test_frozen_squeezed_values(self):
        # cosh/sinh identities evaluated directly: u = e^(-2)/2, v = e^2/2
        spec = squeeze_spectrum(1.0, 0.0)
        assert spec.u == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)
        assert spec.v == pytest.approx(math.exp(2.0) / 2.0, rel=1e-12)
        assert spec.w == 0.0

    @given(
        s=st.floats(min_value=0.0, max_value=2.0),
        theta=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200)
    def test_pure_squeezing_saturates_heisenberg(self, s, theta):
        spec = squeeze_spectrum(s, theta)
        assert spec.u * spec.v - spec.w**2 == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_strong_squeezing_saturates_heisenberg(self, theta):
        # u and v are sums of positive terms, so they do not cancel as s grows
        for s in np.linspace(0.0, 10.0, 101):
            spec = squeeze_spectrum(float(s), theta)
            assert spec.u * spec.v - spec.w**2 == pytest.approx(0.25, abs=1e-15)


class TestAddedNoise:
    def test_resonant_coefficients(self):
        # shot term (xi b1 + b2)/(g sqrt(gamma) chi_a chi_b*) plus backaction
        # g sqrt(gamma) chi_b on b1
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = DetectorParams(
                Omega=rng.uniform(0.05, 2),
                Gamma=rng.uniform(0.01, 1),
                gamma=rng.uniform(0.5, 5),
                g=rng.uniform(0.3, 4) * rng.choice([-1, 1]),
            )
            phi = rng.uniform(-1.2, 1.2)
            omega = rng.uniform(0.01, 8)
            model = build(SchemeConfig("standard", p))
            coeffs = noise.added_noise(transfer(model, omega), phi)
            xi = math.tan(phi)
            ca = bounds.chi_mech(p, omega)
            cb = bounds.chi_cav(p, omega)
            shot = 1.0 / (p.g * math.sqrt(p.gamma) * ca * cb.conjugate())
            c1, c2 = coeffs["readout"]
            assert c1 == pytest.approx(
                xi * shot + p.g * math.sqrt(p.gamma) * cb, rel=1e-10
            )
            assert c2 == pytest.approx(shot, rel=1e-10)

    def test_steep_readout_angle_shot_term(self):
        # xi = 20 adds 20/(g sqrt(gamma) chi_a chi_b*) of extra shot noise on b1
        p = presets.FIG2A_PARAMS
        model = build(SchemeConfig("standard", p))
        omega = 0.43
        coeffs = noise.added_noise(transfer(model, omega), math.atan(20.0))
        ca = bounds.chi_mech(p, omega)
        cb = bounds.chi_cav(p, omega)
        shot = 1.0 / (p.g * math.sqrt(p.gamma) * ca * cb.conjugate())
        c1, c2 = coeffs["readout"]
        assert c1 == pytest.approx(20.0 * shot + p.g * math.sqrt(p.gamma) * cb, rel=1e-10)
        assert c2 == pytest.approx(shot, rel=1e-10)

    def test_uncoupled_force_is_invisible(self):
        model = build(SchemeConfig("standard", replace(presets.FIG2A_PARAMS, g=0.0)))
        with pytest.raises(FailureAtFrequency, match=r"^force invisible at readout, omega = "):
            noise.added_noise(transfer(model, 0.2), 0.0)

    def test_quarter_turn_readout_is_legal(self):
        # phi = pi/2 is a valid angle (no tan division anywhere); on
        # resonance the force is invisible on that quadrature, detuned it
        # is not
        resonant = build(SchemeConfig("standard", presets.FIG2A_PARAMS))
        with pytest.raises(FailureAtFrequency, match=r"^force invisible at readout, omega = "):
            noise.added_noise(transfer(resonant, 0.2), math.pi / 2)
        detuned_cfg = SchemeConfig(
            "standard", replace(presets.FIG2A_PARAMS, Delta=-7.0), readout_angle=math.pi / 2
        )
        assert noise.sensitivity_at(detuned_cfg, 0.2) > 0.0


class TestPowerDensity:
    def test_single_quadrature_vacuum(self):
        coeffs = {"readout": (0.0, 1.0)}
        assert noise.power_density(coeffs, {"readout": vacuum()}) == pytest.approx(0.5)

    @given(
        re1=st.floats(-5, 5), im1=st.floats(-5, 5),
        re2=st.floats(-5, 5), im2=st.floats(-5, 5),
        s=st.floats(*DRAW_RANGES["squeeze"]), theta=st.floats(*DRAW_RANGES["squeeze_angle"]),
    )
    @settings(max_examples=200)
    def test_never_negative(self, re1, im1, re2, im2, s, theta):
        coeffs = {"readout": (complex(re1, im1), complex(re2, im2))}
        spectra = {"readout": squeeze_spectrum(s, theta)}
        assert noise.power_density(coeffs, spectra) >= -1e-12

    def test_overall_phase_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c1 = complex(rng.normal(), rng.normal())
            c2 = complex(rng.normal(), rng.normal())
            spec = squeeze_spectrum(rng.uniform(*DRAW_RANGES["squeeze"]), rng.uniform(-3, 3))
            alpha = rng.uniform(0, 2 * math.pi)
            rotated = (
                c1 * complex(math.cos(alpha), math.sin(alpha)),
                c2 * complex(math.cos(alpha), math.sin(alpha)),
            )
            base = {"readout": (c1, c2)}
            rot = {"readout": rotated}
            assert noise.power_density(rot, {"readout": spec}) == pytest.approx(
                noise.power_density(base, {"readout": spec}), rel=1e-12
            )

    def test_resonant_phase_readout_closed_form(self):
        # vacuum, phi = 0: S_f = (g^2 gamma |chi_b|^2 + 1/(g^2 gamma |chi_a|^2 |chi_b|^2))/2
        p = presets.FIG2A_PARAMS
        cfg = SchemeConfig("standard", p)
        for omega in (0.003, 0.05, 0.97, 7.0):
            closed = standard_s_f(p, omega)
            assert noise.sensitivity_at(cfg, omega) == pytest.approx(closed, rel=1e-10)

    def test_rotated_readout_closed_form(self):
        # vacuum, xi = tan(phi):
        # S_f = xi Re(1/chi_a) + (g^2 gamma |chi_b|^2 + (1 + xi^2)/(...))/2
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = DetectorParams(
                Omega=rng.uniform(0.05, 2),
                Gamma=rng.uniform(0.01, 1),
                gamma=rng.uniform(0.5, 5),
                g=rng.uniform(0.3, 4) * rng.choice([-1, 1]),
            )
            phi = rng.uniform(-1.2, 1.2)
            omega = rng.uniform(0.01, 8)
            closed = standard_s_f(p, omega, phi)
            measured = noise.sensitivity_at(
                SchemeConfig("standard", p, readout_angle=phi), omega
            )
            assert measured == pytest.approx(closed, rel=1e-10)

    def test_squeezed_rotated_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = DetectorParams(
                Omega=rng.uniform(0.05, 2),
                Gamma=rng.uniform(0.01, 1),
                gamma=rng.uniform(0.5, 5),
                g=rng.uniform(0.3, 4) * rng.choice([-1, 1]),
            )
            phi = rng.uniform(-1.2, 1.2)
            uvw = squeeze_spectrum(rng.uniform(*DRAW_RANGES["squeeze"]),
                                   rng.uniform(*DRAW_RANGES["squeeze_angle"]))
            omega = rng.uniform(0.01, 8)
            closed = standard_s_f(p, omega, phi, uvw)
            measured = noise.sensitivity_at(
                SchemeConfig("standard", p, readout_angle=phi, input_spectrum=uvw),
                omega,
            )
            assert measured == pytest.approx(closed, rel=1e-10)

    def test_combined_squeezed_rotated_respects_dissipation_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            p = DetectorParams(
                Omega=rng.uniform(0.05, 2),
                Gamma=rng.uniform(0.01, 1),
                gamma=rng.uniform(0.5, 5),
                g=rng.uniform(0.3, 4) * rng.choice([-1, 1]),
            )
            cfg = SchemeConfig(
                "standard",
                p,
                readout_angle=rng.uniform(*DRAW_RANGES["phi"]),
                input_spectrum=squeeze_spectrum(rng.uniform(*DRAW_RANGES["squeeze"]),
                                                rng.uniform(*DRAW_RANGES["squeeze_angle"])),
            )
            omega = rng.uniform(0.01, 8)
            s_f = noise.sensitivity_at(cfg, omega)
            assert s_f >= bounds.uql(p, omega) * (1 - 1e-9)


class TestSensitivitySpectrum:
    def test_standard_orders_above_bounds(self):
        grid = np.geomspace(1e-3, 10, 120)
        spec = noise.sensitivity_spectrum(SchemeConfig("standard", presets.FIG2A_PARAMS), grid)
        assert np.all(spec.s_f >= 0.0)
        assert np.all(spec.s_f >= spec.sql * (1 - 1e-9))
        assert np.all(spec.sql >= spec.uql * (1 - 1e-12))
        assert np.all(spec.s_f >= spec.uql * (1 - 1e-9))
        assert np.all(spec.uql >= spec.opt_uql * (1 - 1e-12))

    def test_cqnc_approaches_ancilla_floor_with_coupling(self):
        # residual shot noise shrinks as 1/g^2, so the worst deviation from
        # the ancilla floor decreases monotonically with the pump
        grid = np.geomspace(1e-3, 10, 60)
        p = presets.FIG2A_PARAMS
        floor = p.Gamma / (2 * p.Omega**2) * (grid**2 + p.Omega**2 + p.Gamma**2 / 4)
        worst = []
        for g in (10.0, 100.0, 1000.0, 10000.0):
            spec = noise.sensitivity_spectrum(
                SchemeConfig("cqnc", replace(p, g=g)), grid
            )
            worst.append(np.max(np.abs(spec.s_f / floor - 1.0)))
        assert all(a > b for a, b in zip(worst, worst[1:]))
        assert worst[-1] < 0.01

    def test_cqnc_quadratic_scaling_window(self):
        # between the mechanical resonance and the shot-noise takeover
        # (relative shot grows as 0.75 omega^2 at g = -10) the ancilla floor
        # dominates and S_f grows as omega^2
        spec = noise.sensitivity_spectrum(
            SchemeConfig("cqnc", presets.FIG2A_PARAMS), np.geomspace(0.05, 0.3, 40)
        )
        p = presets.FIG2A_PARAMS
        quadratic = p.Gamma / (2 * p.Omega**2) * spec.omegas**2
        assert np.all(np.abs(spec.s_f / quadratic - 1.0) < 0.1)
        slope = np.polyfit(np.log(spec.omegas), np.log(spec.s_f), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_toy_tracks_generalized_bound(self):
        p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, g=5.0)
        grid = np.geomspace(1e-2, 1e2, 120)
        spec = noise.sensitivity_spectrum(SchemeConfig("toy", p, eta=1.0), grid)
        assert np.all(spec.s_f >= spec.guql * (1 - 1e-9))
        assert np.all(spec.guql < spec.uql)
        assert np.min(spec.s_f / spec.guql) < 1.1

    def test_unstable_model_raises(self):
        grid = np.geomspace(1e-3, 1, 10)
        with pytest.raises(UnstableModel):
            noise.sensitivity_spectrum(
                SchemeConfig("standard", replace(presets.FIG2A_PARAMS, Delta=2.3)), grid
            )

    def test_grid_validation(self):
        spec_cfg = SchemeConfig("standard", presets.FIG2A_PARAMS)
        with pytest.raises(ValueError):
            noise.sensitivity_spectrum(spec_cfg, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            noise.sensitivity_spectrum(spec_cfg, np.array([-1.0, 0.5]))
        # a non-finite grid is a grid fault, not a numerical failure at omega = nan
        for grid in ([np.nan, 1.0], [0.5, np.nan], [0.5, np.inf], [np.inf]):
            with pytest.raises(ValueError, match="grid must be finite"):
                noise.sensitivity_spectrum(spec_cfg, np.array(grid))

    def test_column_length_validation(self):
        with pytest.raises(ValueError):
            noise.SensitivitySpectrum(
                omegas=np.array([1.0, 2.0]),
                s_f=np.array([1.0]),
                sql=np.array([1.0, 1.0]),
                uql=np.array([1.0, 1.0]),
                guql=np.array([1.0, 1.0]),
                opt_uql=np.array([1.0, 1.0]),
            )

    def test_mechanical_bath_not_counted(self):
        # the oscillator's bath decays it through the drift but is no channel:
        # the built channels are the budget, and the occupancy reaches neither
        for config in (SchemeConfig("standard", presets.FIG2A_PARAMS),
                       presets.fig2a_configs()["cqnc"], presets.fig2b_config()):
            model = build(config)
            assert [ch.id for ch in model.channels] == list(noise.noise_budget(config, model))
            assert MECHANICAL not in noise.noise_budget(config, model)
            for n_th in (0.0, 1e6):
                warm = build(replace(config, params=replace(config.params, n_th=n_th)))
                assert warm.drift.tobytes() == model.drift.tobytes()
                assert warm.channels == model.channels
        hot = replace(presets.FIG2A_PARAMS, n_th=1e6)
        cold = presets.FIG2A_PARAMS
        omega = 0.21
        assert noise.sensitivity_at(
            SchemeConfig("standard", hot), omega
        ) == pytest.approx(
            noise.sensitivity_at(SchemeConfig("standard", cold), omega), rel=1e-14
        )


def pointwise_spectrum(config, grid):
    """Reference loop: S_f and the bound columns one frequency at a time."""
    model = build(config)
    budget = noise.noise_budget(config, model)
    params = config.params
    rows = []
    for omega in grid:
        coeffs = noise.added_noise(transfer(model, omega), config.readout_angle)
        rows.append((
            noise.power_density(coeffs, budget),
            bounds.sql(params, omega),
            bounds.uql(params, omega),
            bounds.generalized_uql(
                bounds.coupling_susceptibilities(params, config.coupling_mix, omega)
            ),
            bounds.optimal_uql(params, omega),
        ))
    return np.array(rows)


def outcome(evaluate, *args):
    """The value of `evaluate(*args)`, or the type and message it raised."""
    try:
        return evaluate(*args)
    except ForceLimitsError as exc:
        return type(exc), str(exc)


def undamped(Omega, g):
    """The standard scheme with an undamped oscillator."""
    return SchemeConfig("standard", DetectorParams(Omega=Omega, Gamma=0.0, gamma=3.0, g=g))


def random_stable_configs(variant, count, seed):
    """Stable draws of one variant from DRAW_RANGES, half of them squeezed, eta in ETA_RANGE."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        params = DetectorParams(
            Omega=float(rng.uniform(*DRAW_RANGES["Omega"])),
            Gamma=float(rng.uniform(*DRAW_RANGES["Gamma"])),
            gamma=float(rng.uniform(*DRAW_RANGES["gamma"])),
            Delta=float(rng.uniform(*DRAW_RANGES["Delta"])) if variant == "standard" else 0.0,
            g=float(rng.uniform(*DRAW_RANGES["g"]) * rng.choice([-1.0, 1.0])),
        )
        spectrum = (squeeze_spectrum(float(rng.uniform(*DRAW_RANGES["squeeze"])),
                                     float(rng.uniform(*DRAW_RANGES["squeeze_angle"])))
                    if rng.uniform() < 0.5 else vacuum())
        cfg = SchemeConfig(
            variant, params, readout_angle=float(rng.uniform(*DRAW_RANGES["phi"])),
            input_spectrum=spectrum, eta=float(rng.uniform(*ETA_RANGE)),
        )
        try:
            build(cfg)
        except UnstableModel:
            continue
        configs.append(cfg)
    return configs


# the bound columns divide complex numbers with numpy's algorithm instead of
# Python's: agreement to a few float64 ulps, fixed before measuring
BOUND_RTOL = 1e-14


class TestBlockedEngine:
    @pytest.mark.parametrize(
        "name", ["standard", "vm", "cd", "cqnc", "squeezed", "toy"]
    )
    def test_presets_match_pointwise_path(self, name):
        cfg, grid = preset_cases()[name]
        spec = noise.sensitivity_spectrum(cfg, grid)
        reference = pointwise_spectrum(cfg, grid)
        np.testing.assert_allclose(spec.s_f, reference[:, 0], rtol=1e-12, atol=0)
        columns = np.column_stack([spec.sql, spec.uql, spec.guql, spec.opt_uql])
        np.testing.assert_allclose(columns, reference[:, 1:], rtol=BOUND_RTOL, atol=0)

    @pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
    def test_random_draws_match_pointwise_path(self, variant):
        grid = np.geomspace(*DRAW_RANGES["omega"], 24)
        for cfg in random_stable_configs(variant, 32, seed=61):
            spec = noise.sensitivity_spectrum(cfg, grid)
            reference = pointwise_spectrum(cfg, grid)
            np.testing.assert_allclose(spec.s_f, reference[:, 0], rtol=1e-12, atol=0)

    def test_block_boundaries_move_no_digit(self):
        cuts = (0, 1, 255, 256, 300, 557, 1000)
        for cfg, preset_grid in preset_cases().values():
            grid = np.geomspace(preset_grid[0], preset_grid[-1], 1000)
            whole = noise.sensitivity_spectrum(cfg, grid)
            parts = [noise.sensitivity_spectrum(cfg, grid[a:b])
                     for a, b in zip(cuts, cuts[1:])]
            for column in ("s_f", "sql", "uql", "guql", "opt_uql"):
                joined = np.concatenate([getattr(p, column) for p in parts])
                assert np.array_equal(getattr(whole, column), joined), column

    def test_bound_columns_are_the_public_array_calls(self):
        # the spectrum evaluates chi_mech once for its SQL and gUQL columns;
        # every bound column stays bit for bit the one bounds computes alone
        grid = np.geomspace(*DRAW_RANGES["omega"], 24)
        cases = list(preset_cases().values()) + [
            (cfg, grid) for variant in ("standard", "cqnc", "toy")
            for cfg in random_stable_configs(variant, 16, seed=67)
        ]
        for cfg, omegas in cases:
            spec = noise.sensitivity_spectrum(cfg, omegas)
            p = cfg.params
            q = bounds.coupling_susceptibilities(p, cfg.coupling_mix, omegas)
            expected = {"sql": bounds.sql(p, omegas), "uql": bounds.uql(p, omegas),
                        "guql": bounds.generalized_uql(q),
                        "opt_uql": bounds.optimal_uql(p, omegas)}
            for name, column in expected.items():
                assert getattr(spec, name).tobytes() == column.tobytes(), (cfg, name)

    def test_added_noise_of_a_stacked_response(self):
        for cfg, grid in preset_cases().values():
            model = build(cfg)
            stacked = noise.added_noise(transfer(model, grid), cfg.readout_angle)
            points = [noise.added_noise(transfer(model, w), cfg.readout_angle)
                      for w in grid]
            for cid, pair in stacked.items():
                assert np.array_equal(np.transpose(pair), [p[cid] for p in points])
        resonant = build(SchemeConfig("standard", presets.FIG2A_PARAMS))
        with pytest.raises(FailureAtFrequency,
                           match=r"^force invisible at readout, omega = 0\.2$"):
            noise.added_noise(transfer(resonant, np.array([0.2, 0.3])), math.pi / 2)

    def test_sensitivity_at_is_a_one_point_call(self):
        for cfg, grid in preset_cases().values():
            spec = noise.sensitivity_spectrum(cfg, grid)
            for k in (0, 137, len(grid) - 1):
                assert noise.sensitivity_at(cfg, grid[k]) == spec.s_f[k]

    @pytest.mark.parametrize("omega", [1e55, 1e60, 1e80])
    def test_sensitivity_at_fails_where_the_spectrum_fails(self, omega):
        # S_f overflows to inf (1e55, 1e60) or NaN (1e80) on the fig2a standard curve
        config = presets.fig2a_configs()["standard"]
        message = re.escape(f"non-finite S_f or bound value at omega = {omega!r}")
        with np.errstate(all="ignore"), pytest.raises(FailureAtFrequency, match=f"^{message}$"):
            noise.sensitivity_spectrum(config, np.array([omega]))
        with np.errstate(all="ignore"), pytest.raises(FailureAtFrequency, match=f"^{message}$"):
            noise.sensitivity_at(config, omega)

    @pytest.mark.parametrize(
        "cfg, grid",
        [
            # undamped oscillator, singular matrix on resonance; g = 0 also
            # hides the force at every frequency
            pytest.param(undamped(1.0, 0.0), np.linspace(0.5, 2.0, 4),
                         id="1.0-0.0-grid0"),
            pytest.param(undamped(1.0, 0.5), np.linspace(0.5, 2.0, 4),
                         id="1.0-0.5-grid1"),
            pytest.param(undamped(1.0, 0.5),
                         np.concatenate([np.linspace(0.2, 0.9, 600), [1.0, 1.5]]),
                         id="1.0-0.5-grid2"),
            # the force stays visible relative to the solved response up to
            # the singular top frequency, in the third block
            pytest.param(undamped(1e6, 1e-3), np.geomspace(1e3, 1e6, 700),
                         id="1000000.0-0.001-grid3"),
            # readouts blind to the force at every frequency: the amplitude
            # quadrature at Delta = 0, and the toy's v = (a, -a) at phi = pi/4
            pytest.param(replace(presets.fig2a_configs()["standard"],
                                 readout_angle=math.pi / 2),
                         np.geomspace(1e-3, 1e7, 300), id="amplitude-quadrature"),
            pytest.param(replace(presets.fig2b_config(), readout_angle=math.pi / 4),
                         np.geomspace(1e-3, 1e7, 300), id="toy-quarter-angle"),
        ],
    )
    def test_first_failure_in_grid_order(self, cfg, grid):
        reference = outcome(pointwise_spectrum, cfg, grid)
        assert isinstance(reference, tuple)
        assert outcome(noise.sensitivity_spectrum, cfg, grid) == reference


@st.composite
def scan_cases(draw):
    """A scheme from DRAW_RANGES and ETA_RANGE but some with Gamma = 0, on a log grid to 1e160."""
    variant = draw(st.sampled_from(["standard", "cqnc", "toy"]))
    params = DetectorParams(
        Omega=draw(st.floats(*DRAW_RANGES["Omega"])),
        Gamma=draw(st.just(0.0) | st.floats(*DRAW_RANGES["Gamma"])),
        gamma=draw(st.floats(*DRAW_RANGES["gamma"])),
        Delta=draw(st.floats(*DRAW_RANGES["Delta"])) if variant == "standard" else 0.0,
        g=draw(st.floats(*DRAW_RANGES["g"])) * draw(st.sampled_from([-1.0, 1.0])),
    )
    config = SchemeConfig(variant, params, readout_angle=draw(st.floats(*DRAW_RANGES["phi"])),
                          eta=draw(st.floats(*ETA_RANGE)))
    low = draw(st.floats(-3.0, 2.0))
    grid = np.geomspace(10.0**low, 10.0 ** draw(st.floats(low + 1.0, 160.0)),
                        draw(st.integers(2, 40)))
    return config, grid


@given(scan_cases())
# S_f overflows at the fourth point; chi_qx of the bound column only at the fifth
@example((presets.fig2a_configs()["standard"], np.geomspace(1e-3, 1e80, 5)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_failure_is_the_first_in_grid_order(case):
    # a spectrum either evaluates, or fails at a grid point below which it evaluates
    config, grid = case
    try:
        build(config)
    except UnstableModel:
        return
    try:
        with np.errstate(all="ignore"):
            spec = noise.sensitivity_spectrum(config, grid)
    except FailureAtFrequency as failure:
        assert failure.omega in grid
        if failure.omega > grid[0]:
            with np.errstate(all="ignore"):
                noise.sensitivity_spectrum(config, grid[grid < failure.omega])
    else:
        assert all(np.isfinite(getattr(spec, c)).all() for c in ("s_f", "guql"))


def full_mask_rule(grid):
    """The grid rule as a mask over every point: None for a valid grid, else
    the message naming the first point that is not finite and positive, or
    the first pair out of order."""
    invalid = ~(np.isfinite(grid) & (grid > 0.0))
    bad = invalid | np.append(False, ~(grid[1:] > grid[:-1]))
    if not bad.any():
        return None
    k = int(bad.argmax())
    shown = grid[k:k + 1] if invalid[k] else grid[k - 1:k + 1]
    return ("grid must be finite, strictly increasing and positive, got "
            + " then ".join(map(repr, shown.tolist())))


@st.composite
def edited_grids(draw):
    """An increasing positive grid with a few points replaced by NaN, +-inf, +-0
    or a negative value, repeated, or swapped with their successor."""
    points = sorted(set(draw(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8))))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(points) - 1))
        edit = draw(st.sampled_from(["special", "negative", "repeat", "swap"]))
        if edit == "special":
            points[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))
        elif edit == "negative":
            points[k] = -points[k]
        elif edit == "repeat":
            points.insert(k, points[k])
        elif k + 1 < len(points):
            points[k], points[k + 1] = points[k + 1], points[k]
    return np.array(points)


@given(edited_grids())
@example(np.array([math.inf]))
@example(np.array([0.5, math.inf]))
@example(np.array([0.5, math.nan, 2.0]))
@example(np.array([2.0, 1.0, math.nan]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_grid_chain_is_the_full_mask_rule(grid):
    # the grid check tests a chain, first point > 0, last < inf, each above
    # the one before; it accepts and rejects what the full mask does, with its message
    try:
        noise._checked_grid(grid)
    except InvalidConfig as error:
        assert str(error) == full_mask_rule(grid)
    else:
        assert full_mask_rule(grid) is None


@st.composite
def stable_schemes(draw, variant):
    """A stable scheme: Omega, Gamma, gamma and |g| log-uniform over four decades.

    Readout angle (not cqnc's), detuning and squeezed input (standard only)
    come from DRAW_RANGES, eta from [-5, 5]; unstable draws are rejected.
    """
    decade = st.floats(-2.0, 2.0)
    standard = variant == "standard"
    params = DetectorParams(
        Omega=10.0 ** draw(decade), Gamma=10.0 ** draw(decade), gamma=10.0 ** draw(decade),
        Delta=draw(st.floats(*DRAW_RANGES["Delta"])) if standard else 0.0,
        g=10.0 ** draw(decade) * draw(st.sampled_from([-1.0, 1.0])),
    )
    spectrum = vacuum()
    if standard:
        spectrum = squeeze_spectrum(draw(st.floats(*DRAW_RANGES["squeeze"])),
                                    draw(st.floats(*DRAW_RANGES["squeeze_angle"])))
    config = SchemeConfig(
        variant, params, input_spectrum=spectrum, eta=draw(st.floats(-5.0, 5.0)),
        readout_angle=0.0 if variant == "cqnc" else draw(st.floats(*DRAW_RANGES["phi"])),
    )
    try:
        build(config)
    except UnstableModel:
        assume(False)
    return config


@pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sensitivity_obeys_the_generalized_uql(variant, data):
    # the paper's inequality for any linear detector: S_f >= gUQL >= optimal UQL
    config = data.draw(stable_schemes(variant))
    omega = config.params.Omega
    spec = noise.sensitivity_spectrum(config, np.geomspace(omega / 100, omega * 100, 64))
    assert (spec.s_f >= spec.guql * (1 - 1e-9)).all()
    assert (spec.guql >= spec.opt_uql * (1 - 1e-12)).all()


def _mp_sensitivity(config, omega):
    """S_f from a 50-digit inverse of A + i w I (the float64 entries, exactly).

    y[k] is the readout quadrature's response to a unit drive of state row k;
    each budget channel's coefficients are divided by the force response.
    """
    model = build(config)
    readout = model.readout
    d = [mpmath.mpf(x) for x in quadrature(config.readout_angle)]
    with mpmath.workdps(50):
        response = _mp_resolvent(model, omega)
        y = [mpmath.sqrt(readout.rate) * sum(dj * response[r, k]
                                             for dj, r in zip(d, readout.rows))
             for k in range(len(model.drift))]
        s_f = mpmath.mpf(0)
        budget = noise.noise_budget(config, model)
        for ch in (ch for ch in model.channels if ch.id in budget):
            spec = budget[ch.id]
            c = [mpmath.sqrt(ch.rate) * y[r] for r in ch.rows]
            if ch.is_readout:
                c = [ck - dk for ck, dk in zip(c, d)]
            c1, c2 = (ck / y[FORCE_ROW] for ck in c)
            s_f += (abs(c1) ** 2 * spec.u + abs(c2) ** 2 * spec.v
                    + 2 * mpmath.re(c1 * mpmath.conj(c2)) * spec.w)
        return float(s_f)


@pytest.mark.parametrize("name", ["standard", "vm", "cqnc", "toy"])
def test_sensitivity_against_50_digit_oracle(name):
    # far above both preset bands the force response is many orders below the
    # largest state-row response, but not below the output quadratures' own
    config = presets.fig2b_config() if name == "toy" else presets.fig2a_configs()[name]
    omegas = np.array([1e3, 3e4, 1e5, 1e6])
    s_f = noise.sensitivity_spectrum(config, omegas).s_f
    oracle = [_mp_sensitivity(config, omega) for omega in omegas]
    np.testing.assert_allclose(s_f, oracle, rtol=1e-12, atol=0)



def _cqnc_closed_form(params, omega):
    """S_f of cqnc read at phi = 0 (Tsang & Caves, PRL 105, 123601, 2010).

    The ancilla's floor Gamma (w^2 + Omega^2 + Gamma^2/4) / (2 Omega^2) plus
    the shot noise the cancelled backaction leaves,
    |1/chi_mech|^2 |gamma/2 - i w|^2 / (2 g^2 gamma).
    """
    p = params
    floor = p.Gamma * (omega**2 + p.Omega**2 + p.Gamma**2 / 4) / (2 * p.Omega**2)
    inverse_chi = ((p.Gamma / 2 - 1j * omega) ** 2 + p.Omega**2) / p.Omega
    return floor + (abs(inverse_chi) * abs(p.gamma / 2 - 1j * omega)) ** 2 / (2 * p.g**2 * p.gamma)


def test_cqnc_draws_against_the_closed_form():
    # Gamma down to 1e-6, half the draws at Omega (1 +- 1e-3); the form holds
    # at readout angle 0 only (at other angles it is off by up to a factor 13)
    rng = np.random.default_rng(47)
    for k in range(60):
        config, omega = _oracle_draw(rng, "cqnc", k)
        config = replace(config, readout_angle=0.0)
        expected = _cqnc_closed_form(config.params, omega)
        assert noise.sensitivity_at(config, omega) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("g", [-10.0, 3.7, 1e3])
def test_cqnc_preset_against_the_closed_form(g):
    config = presets.fig2a_configs()["cqnc"]
    config = replace(config, params=replace(config.params, g=g))
    grid = presets.fig2a_grid()
    np.testing.assert_allclose(noise.sensitivity_spectrum(config, grid).s_f,
                               _cqnc_closed_form(config.params, grid), rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", ["standard", "cqnc", "toy"])
def test_refined_solve_near_an_undamped_resonance(name):
    # Gamma from 1e-6 to 1e-12 and omega just above Omega: kappa_1 of the
    # solve runs from 7e4 to 3e11.  Refining with an extended-precision
    # residual holds standard and toy at 1e-13.  cqnc cancels its backaction
    # and loses digits in proportion to kappa_1: one step gives at most
    # 1.5e-23 kappa_1 here (3.3e-12 at kappa_1 = 2.9e11), two steps 1.1e-22
    # kappa_1, and a 64-bit residual or no step at all 4e-17 kappa_1 or more
    config = presets.fig2b_config() if name == "toy" else presets.fig2a_configs()[name]
    for gamma_m in (1e-6, 1e-8, 1e-10, 1e-12):
        config = replace(config, params=replace(config.params, Gamma=gamma_m))
        omegas = config.params.Omega * (1.0 + np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3]))
        s_f = noise.sensitivity_spectrum(config, omegas).s_f
        err = np.abs(s_f / [_mp_sensitivity(config, w) for w in omegas] - 1.0)
        drift = build(config).drift
        m = drift.T + 1j * omegas[:, None, None] * np.eye(len(drift))
        bound = 1e-21 * np.linalg.cond(m, 1) if name == "cqnc" else 1e-13
        assert (err <= bound).all(), (gamma_m, err)


def test_floor_is_relative_to_the_solved_response():
    # the force response falls as 1/omega^2 against the cavity's; an absolute
    # floor rejected the standard curve from omega ~ 3e4 on, and one relative
    # to the largest state-row response rejected it from about 3.4e6
    grid = np.geomspace(1e-3, 1e7, 300)
    for name in ("standard", "vm", "cd", "cqnc", "toy"):
        cfg, _ = preset_cases()[name]
        spec = noise.sensitivity_spectrum(cfg, grid)
        reference = pointwise_spectrum(cfg, grid)
        np.testing.assert_allclose(spec.s_f, reference[:, 0], rtol=1e-12, atol=0)

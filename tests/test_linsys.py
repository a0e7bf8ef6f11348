from dataclasses import replace

import mpmath
import numpy as np
import pytest

from forcelimits import linsys, presets
from forcelimits.errors import ZERO, FailureAtFrequency, UnstableModel
from forcelimits.schemes import DetectorParams, SchemeConfig, build
from forcelimits.spectra import vacuum


class TestStability:
    def test_diagonal_decay(self):
        stable, eigenvalues = linsys.stability_check(-np.eye(4))
        assert stable
        assert np.allclose(eigenvalues, -1.0)

    def test_mixed_coupling_eigenvalues(self):
        # the symmetric-mix drift keeps its eigenvalues independent of g
        cfg = SchemeConfig(
            "toy", DetectorParams(Omega=1.0, Gamma=1.0, gamma=100.0, g=5.0), eta=1.0
        )
        stable, eigenvalues = linsys.stability_check(build(cfg).drift)
        assert stable
        expected = np.sort_complex(np.array([-50.0, -50.0, -0.5 + 1j, -0.5 - 1j]))
        assert np.allclose(np.sort_complex(eigenvalues), expected, atol=1e-10)

    def test_negative_damping_is_unstable(self):
        gamma_m, omega_m, gamma_c, g = -1.0, 1.0, 3.0, 0.5
        entries = [
            [-gamma_m / 2, omega_m, 0, 0],
            [-omega_m, -gamma_m / 2, g, 0],
            [0, 0, -gamma_c / 2, 0],
            [g, 0, 0, -gamma_c / 2],
        ]
        stable, eigenvalues = linsys.stability_check(np.asarray(entries, dtype=float))
        assert not stable
        assert np.max(eigenvalues.real) > 0.1

    def test_shape_validation(self):
        # the model validates its drift first, each fault with its own message
        channels = (linsys.NoiseChannel("a", 1.0, (0, 1), vacuum(), is_readout=True),)
        for entries, message in [
            (np.zeros((2, 4)), "drift matrix must be square"),
            (np.zeros((3, 3)), "state dimension must be a positive even number"),
            (np.zeros((0, 0)), "state dimension must be a positive even number"),
            (np.diag([-1.0, np.nan]), "drift entries must be finite"),
            (np.diag([-1.0, np.inf]), "drift entries must be finite"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                linsys.LinearModel(drift=entries, channels=channels, force_row=1)

    def test_drift_is_a_read_only_copy(self):
        # a validated model cannot be changed through its drift or the caller's array
        entries = -np.eye(4)
        channels = (linsys.NoiseChannel("a", 1.0, (0, 1), vacuum(), is_readout=True),)
        model = linsys.LinearModel(drift=entries, channels=channels, force_row=1)
        with pytest.raises(ValueError, match="read-only"):
            model.drift[0, 0] = 1.0
        entries[0, 0] = 1.0
        assert entries.flags.writeable
        assert model.drift[0, 0] == -1.0

    def test_models_compare_and_hash_by_identity(self, standard_model):
        config = SchemeConfig("standard", DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, g=-10.0))
        assert (build(config) == build(config)) is False
        assert standard_model == standard_model
        assert len({standard_model, build(config), standard_model}) == 2
        assert replace(standard_model, drift=standard_model.drift.T).drift.flags.writeable is False


@pytest.fixture
def standard_model():
    params = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, Delta=0.0, g=-10.0)
    return build(SchemeConfig("standard", params))


def solve(model, omega, w):
    """The refined solve of (A + i w I) x = -w: adjoint_response of the transposed drift."""
    transposed = replace(model, drift=model.drift.T)
    return linsys.adjoint_response(
        transposed, np.array([omega], dtype=float), np.asarray(w, dtype=complex)
    )[0]


class TestSolveFrequency:
    def test_identity_drift(self):
        model = linsys.LinearModel(
            drift=-np.eye(4),
            channels=(
                linsys.NoiseChannel("a", 1.0, (0, 1), vacuum()),
                linsys.NoiseChannel("b", 1.0, (2, 3), vacuum(), is_readout=True),
            ),
            force_row=1,
        )
        x = solve(model, 0.0, np.array([1.0, 0, 0, 0]))
        assert np.allclose(x, [1.0, 0, 0, 0])

    def test_residual_bound(self, standard_model):
        rng = np.random.default_rng(2)
        for _ in range(25):
            omega = rng.uniform(1e-3, 10.0)
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            x = solve(standard_model, omega, w)
            m = standard_model.drift + 1j * omega * np.eye(4)
            assert np.linalg.norm(m @ x + w) < 1e-12 * np.linalg.norm(w)

    def test_linearity(self, standard_model):
        rng = np.random.default_rng(4)
        w1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        w2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = 0.3
        x1 = solve(standard_model, omega, w1)
        x2 = solve(standard_model, omega, w2)
        x12 = solve(standard_model, omega, w1 + 2.0 * w2)
        assert np.allclose(x12, x1 + 2.0 * x2, rtol=1e-12, atol=1e-14)

    def test_singular_at_undamped_resonance(self):
        params = DetectorParams(Omega=1.0, Gamma=0.0, gamma=3.0, g=0.0)
        model = build(SchemeConfig("standard", params))
        with pytest.raises(FailureAtFrequency, match=r"^system matrix singular at omega = "):
            solve(model, 1.0, np.ones(4, dtype=complex))

    def test_residual_bound_on_benchmark_grids(self):
        from forcelimits.presets import fig2a_configs, fig2a_grid, fig2b_config, fig2b_grid

        rng = np.random.default_rng(6)
        cases = [(cfg, fig2a_grid()) for cfg in fig2a_configs().values()]
        cases.append((fig2b_config(), fig2b_grid()))
        for cfg, grid in cases:
            model = build(cfg)
            n = len(model.drift)
            for omega in grid[:: len(grid) // 16]:
                w = rng.normal(size=n) + 1j * rng.normal(size=n)
                x = solve(model, omega, w)
                m = model.drift + 1j * omega * np.eye(n)
                assert np.linalg.norm(m @ x + w) < 1e-12 * np.linalg.norm(w)


class TestTransfer:
    def test_uncoupled_resonant_cavity_is_pure_phase(self):
        params = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, g=0.0)
        model = build(SchemeConfig("standard", params))
        for omega in (0.02, 0.8, 5.0):
            resp = linsys.transfer(model, omega)
            chi_b = 1.0 / (params.gamma / 2 - 1j * omega)
            phase = chi_b / chi_b.conjugate()
            assert np.allclose(resp.M, phase * np.eye(2), atol=5e-15)
            assert np.allclose(resp.v, 0.0, atol=1e-15)

    def test_cqnc_backaction_block_vanishes(self):
        params = DetectorParams(Omega=0.01, Gamma=0.01, gamma=3.0, g=-10.0)
        coupled = build(SchemeConfig("cqnc", params))
        from dataclasses import replace

        bare = build(SchemeConfig("cqnc", replace(params, g=0.0)))
        for omega in (0.005, 0.01, 0.3, 3.0):
            backaction = (
                linsys.transfer(coupled, omega).M - linsys.transfer(bare, omega).M
            )
            assert np.max(np.abs(backaction)) < 1e-12

    def test_readout_wiring_validation(self):
        channels = (
            linsys.NoiseChannel("a", 1.0, (0, 1), vacuum()),
            linsys.NoiseChannel("b", 1.0, (2, 3), vacuum()),
        )
        with pytest.raises(ValueError):
            linsys.LinearModel(drift=-np.eye(4), channels=channels, force_row=1)
        with pytest.raises(ValueError):
            linsys.NoiseChannel("a", 1.0, (2, 2), vacuum())


class TestReadoutAdjoint:
    def test_matches_transfer_blocks(self):
        from forcelimits.presets import fig2a_configs, fig2a_grid, fig2b_config, fig2b_grid

        cases = [(cfg, fig2a_grid()) for cfg in fig2a_configs().values()]
        cases.append((fig2b_config(), fig2b_grid()))
        for cfg, grid in cases:
            model = build(cfg)
            d = np.array([np.sin(cfg.readout_angle), np.cos(cfg.readout_angle)])
            omegas = grid[::37]
            y = linsys.adjoint_response(model, omegas, linsys.readout_drive(model, d))
            for omega, row in zip(omegas, y):
                resp = linsys.transfer(model, omega)
                scale = np.max(np.abs(row))
                assert abs(row[model.force_row] - d @ resp.v) < 1e-12 * scale
                for ch in model.channels:
                    adjoint = np.sqrt(ch.rate) * row[list(ch.rows)]
                    if ch.is_readout:
                        adjoint = adjoint - d
                    block = linsys.channel_output(ch, resp.y, np.eye(2))
                    assert np.max(np.abs(adjoint - d @ block)) < 1e-12 * scale

    def test_first_singular_frequency_raises(self):
        params = DetectorParams(Omega=1.0, Gamma=0.0, gamma=3.0, g=0.5)
        model = build(SchemeConfig("standard", params))
        with pytest.raises(FailureAtFrequency, match=r"^system matrix singular at omega = 1\.0$"):
            linsys.adjoint_response(
                model, np.array([0.5, 1.0, 1.5, 1.0]),
                linsys.readout_drive(model, np.array([0.0, 1.0])),
            )

    def test_stacked_directions_match_single_calls(self):
        from forcelimits.presets import fig2a_configs, fig2a_grid

        d = np.array([[0.0, 1.0, 0.6], [1.0, 0.0, -0.8]])
        omegas = fig2a_grid()[::41]
        for cfg in fig2a_configs().values():
            model = build(cfg)
            y = linsys.adjoint_response(model, omegas, linsys.readout_drive(model, d))
            assert y.shape == (len(omegas), len(model.drift), 3)
            for k in range(3):
                single = linsys.adjoint_response(
                    model, omegas, linsys.readout_drive(model, d[:, k])
                )
                scale = np.max(np.abs(single), axis=1, keepdims=True)
                assert np.all(np.abs(y[..., k] - single) <= 1e-14 * scale)


class TestFirstFailureOrder:
    """A stack with an exactly singular matrix is inverted point by point.

    The undamped oscillator makes (A + i w I)^T exactly singular at w = 1
    (the batched inverse raises for the whole stack) and invertible but
    ill-conditioned at w = 1 + 1e-15; the first offending w in grid order
    is reported either way.
    """

    @pytest.fixture
    def model(self):
        params = DetectorParams(Omega=1.0, Gamma=0.0, gamma=3.0, g=0.5)
        return build(SchemeConfig("standard", params))

    @staticmethod
    def reported(model, omegas):
        b = linsys.readout_drive(model, np.array([0.0, 1.0]))
        singular = r"^system matrix singular at omega = "
        with pytest.raises(FailureAtFrequency, match=singular) as err:
            linsys.adjoint_response(model, np.array(omegas), b)
        return err.value.omega

    @staticmethod
    def system(model, omega):
        return model.drift.T + 1j * omega * np.eye(len(model.drift))

    def test_ill_conditioned_before_exactly_singular(self, model):
        near = 1.0 + 1e-15
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(self.system(model, 1.0))
        assert np.linalg.cond(self.system(model, near), 1) > 1 / ZERO
        assert self.reported(model, [0.5, near, 1.5, 1.0, 2.0]) == near

    @pytest.mark.parametrize("omegas", [[0.5, 1.0, 1.5], [0.5, 1.5, 1.0]])
    def test_only_exactly_singular_point(self, model, omegas):
        good = [w for w in omegas if w != 1.0]
        b = linsys.readout_drive(model, np.array([0.0, 1.0]))
        assert np.isfinite(linsys.adjoint_response(model, np.array(good), b)).all()
        assert self.reported(model, omegas) == 1.0


@pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
def test_condition_number_against_numpy(variant):
    rng = np.random.default_rng(["standard", "cqnc", "toy"].index(variant) + 21)
    for k in range(8):
        config, omega = _oracle_draw(rng, variant, k)
        omegas = np.append(rng.uniform(0.01, 12.0, size=15), omega)
        model = build(config)
        inv = linsys.inverted_system(model, omegas)
        m = model.drift.T + 1j * omegas[:, None, None] * np.eye(len(model.drift))
        cond = linsys._cond1(model.drift, omegas, inv)
        assert np.allclose(cond, np.linalg.cond(m, 1), rtol=1e-12, atol=0)


def test_condition_number_of_a_lopsided_drift():
    # in the scheme drifts each row pair shares its diagonal, and its two rows'
    # off-diagonal sums are its two columns', so ||m||_1 = ||m||_inf there; here
    # the rows of A (||m||_1) and its columns (||m||_inf) give different norms
    channels = (linsys.NoiseChannel("a", 1.0, (0, 1), vacuum(), is_readout=True),)
    model = linsys.LinearModel(np.array([[-1.0, 50.0], [0.0, -3.0]]), channels, force_row=1)
    omegas = np.array([0.0, 0.5, 2.0, 30.0])
    inv = linsys.inverted_system(model, omegas)
    m = model.drift.T + 1j * omegas[:, None, None] * np.eye(2)
    cond = linsys._cond1(model.drift, omegas, inv)
    assert np.allclose(cond, np.linalg.cond(m, 1), rtol=1e-12, atol=0)


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


def _mp_transfer(model, omega):
    """M and v from a 50-digit inverse of A + i w I (the float64 entries, exactly)."""
    readout = model.readout
    with mpmath.workdps(50):
        response = _mp_resolvent(model, omega)
        rate = mpmath.mpf(readout.rate)
        v = [mpmath.sqrt(rate) * response[r, model.force_row] for r in readout.rows]
        M = [[rate * response[r, c] - (i == j) for j, c in enumerate(readout.rows)]
             for i, r in enumerate(readout.rows)]
        return np.array(M, dtype=complex), np.array(v, dtype=complex)


@pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
def test_transfer_against_50_digit_oracle(variant):
    rng = np.random.default_rng(["standard", "cqnc", "toy"].index(variant) + 11)
    for k in range(16):
        config, omega = _oracle_draw(rng, variant, k)
        model = build(config)
        resp = linsys.transfer(model, omega)
        M, v = _mp_transfer(model, omega)
        assert np.max(np.abs(resp.M - M)) <= 1e-12 * np.max(np.abs(M))
        assert np.max(np.abs(resp.v - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("variant", ["standard", "cqnc", "toy"])
def test_array_transfer_equals_pointwise_calls(variant):
    if variant == "toy":
        config, grid = presets.fig2b_config(), presets.fig2b_grid()
    else:
        config, grid = presets.fig2a_configs()[variant], presets.fig2a_grid()
    model = build(config)
    stacked = linsys.transfer(model, grid.reshape(20, -1))
    points = [linsys.transfer(model, omega) for omega in grid]
    assert stacked.M.shape == (20, len(grid) // 20, 2, 2)
    assert stacked.y.shape == (20, len(grid) // 20, 2, len(model.drift))
    assert np.array_equal(stacked.y.reshape(-1, 2, len(model.drift)), [p.y for p in points])
    assert np.array_equal(stacked.M.reshape(-1, 2, 2), [p.M for p in points])
    assert np.array_equal(stacked.v.reshape(-1, 2), [p.v for p in points])

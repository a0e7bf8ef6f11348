"""Unit covariance: no verdict or column depends on the frequency unit.

All rates and frequencies share one arbitrary unit (hbar = 1).  Scaling
Omega, Gamma, gamma, Delta, g and the grid by lambda = 4^k multiplies every
product and quotient by a power of two, which is exact, so every column of a
spectrum scales by lambda bit for bit and every failure is the same failure
at the scaled frequency (a metamorphic relation in the sense of Chen, Cheung
& Yiu, HKUST-CS98-01, 1998).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import DRAW_RANGES, ETA_RANGE, parse_csv

from forcelimits import bounds, cli, linresp, noise, presets
from forcelimits.errors import FailureAtFrequency, ForceLimitsError, UnstableModel
from forcelimits.schemes import DetectorParams, SchemeConfig
from forcelimits.spectra import squeeze_spectrum, vacuum

GRID = np.geomspace(1e-2, 1e1, 16)
COLUMNS = ("omegas", "s_f", "sql", "uql", "guql", "opt_uql")


def scaled_params(p: DetectorParams, lam: float) -> DetectorParams:
    """The same parameters with every rate multiplied by lam."""
    return replace(p, Omega=lam * p.Omega, Gamma=lam * p.Gamma, gamma=lam * p.gamma,
                   Delta=lam * p.Delta, g=lam * p.g)


def scaled(config: SchemeConfig, lam: float) -> SchemeConfig:
    """The same scheme with every rate multiplied by lam."""
    return replace(config, params=scaled_params(config.params, lam))


def outcome_of(call, *args):
    """The call's result, or the package failure it raised."""
    try:
        return call(*args)
    except ForceLimitsError as error:
        return error


@st.composite
def draws(draw):
    """A config drawn from DRAW_RANGES and ETA_RANGE, stable or not, but with
    Gamma = 0 about one time in five."""
    variant = draw(st.sampled_from(["standard", "cqnc", "toy"]))
    params = DetectorParams(
        Omega=draw(st.floats(*DRAW_RANGES["Omega"])),
        Gamma=draw(st.floats(*DRAW_RANGES["Gamma"])) if draw(st.integers(0, 4)) else 0.0,
        gamma=draw(st.floats(*DRAW_RANGES["gamma"])),
        Delta=draw(st.floats(*DRAW_RANGES["Delta"])) if variant == "standard" else 0.0,
        g=draw(st.floats(*DRAW_RANGES["g"])) * draw(st.sampled_from([-1.0, 1.0])),
    )
    return SchemeConfig(variant, params, readout_angle=draw(st.floats(*DRAW_RANGES["phi"])),
                        eta=draw(st.floats(*ETA_RANGE)))


@given(config=draws(), k=st.integers(-400, 400))
@example(config=presets.fig2a_configs()["cqnc"], k=-400)
@example(config=presets.fig2b_config(), k=400)
@example(config=SchemeConfig(  # unstable at every scale: Re lambda = 0.052
    "standard", DetectorParams(Omega=1.0, Gamma=0.1, gamma=1.0, Delta=-1.0, g=0.5)), k=-400)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_spectrum_is_unit_covariant(config, k):
    lam = 4.0**k
    base = outcome_of(noise.sensitivity_spectrum, config, GRID)
    with np.errstate(all="ignore"):
        moved = outcome_of(noise.sensitivity_spectrum, scaled(config, lam), lam * GRID)
    assert type(moved) is type(base), (base, moved)
    if isinstance(base, noise.SensitivitySpectrum):
        for name in COLUMNS:
            np.testing.assert_array_equal(
                getattr(moved, name), lam * getattr(base, name), err_msg=name
            )
    elif isinstance(base, FailureAtFrequency):
        message = str(base).rpartition(" omega = ")[0]
        assert str(moved) == str(FailureAtFrequency(lam * base.omega, message))
    elif not isinstance(base, UnstableModel):  # its message prints an eigenvalue
        assert str(moved) == str(base)


def run_csv(tmp_path, args):
    """Exit code and CSV columns by name of one in-process spectrum run."""
    path = tmp_path / "out.csv"
    code = cli.main(["spectrum", *args, "--output", str(path)])
    if code != 0:
        return code, None
    header, data = parse_csv(path.read_text())
    return code, dict(zip(header, data.T))


def test_toy_run_is_stable_in_its_own_unit(tmp_path):
    # the largest real part is 1.046e-11, some 5e-16 of the largest |lambda|;
    # the same model in a unit 1e4 larger was stable under an absolute test
    args = ["--scheme", "toy", "--Omega", "2e4", "--Gamma", "0", "--gamma", "7e3",
            "--g=-1.8e4", "--eta", "0.5", "--omega-min", "1", "--omega-max", "10",
            "--points", "3"]
    assert run_csv(tmp_path, args)[0] == 0


@pytest.mark.parametrize("args", [
    ["--Omega", "3.87e-123", "--Gamma", "3.87e-123", "--gamma", "1.16e-120",
     "--g=-3.87e-120", "--omega-min", "3.87e-124", "--omega-max", "3.87e-120",
     "--points", "3"],
    ["--Omega", "1e118", "--Gamma", "1e118", "--gamma", "3e120", "--g=-1e121",
     "--omega-min", "1e117", "--omega-max", "1e121"],
], ids=["lambda-4^-200", "lambda-4^200"])
def test_bounds_at_the_ends_of_the_unit_range(tmp_path, args):
    # 2 Gamma Omega omega once under- and overflowed in optimal_uql
    code, table = run_csv(tmp_path, args)
    assert code == 0
    assert (table["opt_uql"] > 0.0).all()
    assert np.isfinite(table["s_f"]).all()


def test_chi_mech_in_a_tiny_unit():
    # the denominator (4^-400)^2 once fell below an absolute floor of 1e-300
    p = DetectorParams(Omega=1.3, Gamma=0.2, gamma=1.0)
    lam = 4.0**-400
    small = DetectorParams(Omega=lam * p.Omega, Gamma=lam * p.Gamma, gamma=lam * p.gamma)
    assert bounds.chi_mech(small, lam * 0.9) == bounds.chi_mech(p, 0.9) / lam


@st.composite
def far_rates(draw):
    """Parameters, eta, three frequencies and k: Gamma/Omega and w/Omega span
    1e+-200, and every rate stays within 1e+-300 when scaled by 4^k."""
    ratios = [10.0 ** draw(st.floats(-200.0, 200.0)) for _ in range(4)]
    low, high = math.log10(min(1.0, *ratios)), math.log10(max(1.0, *ratios))
    reach = int((600.0 - (high - low)) / math.log10(4.0))
    k = draw(st.integers(max(-400, -reach), min(400, reach)))
    shift = k * math.log10(4.0)
    Omega = 10.0 ** draw(st.floats(-300.0 - low - min(0.0, shift), 300.0 - high - max(0.0, shift)))
    eta = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(-3.0, 3.0))
    return (DetectorParams(Omega=Omega, Gamma=Omega * ratios[0], gamma=1.0), eta,
            [Omega * r for r in ratios[1:]], k)


#: each public bound and susceptibility of (params, eta, omega), with its power of the unit
BOUNDS = {
    "chi_mech": (-1, lambda p, eta, w: bounds.chi_mech(p, w)),
    "chi_qq": (-1, lambda p, eta, w: bounds.coupling_susceptibilities(p, eta, w).chi_qq),
    "chi_qx": (-1, lambda p, eta, w: bounds.coupling_susceptibilities(p, eta, w).chi_qx),
    "sql": (1, lambda p, eta, w: bounds.sql(p, w)),
    "uql": (1, lambda p, eta, w: bounds.uql(p, w)),
    "generalized_uql": (
        1, lambda p, eta, w: bounds.generalized_uql(bounds.coupling_susceptibilities(p, eta, w))),
    "optimal_uql": (1, lambda p, eta, w: bounds.optimal_uql(p, w)),
}


def normal(x):
    return np.finfo(float).tiny <= abs(x) < math.inf


@given(case=far_rates())
@example(case=(DetectorParams(Omega=2.6e-81, Gamma=4.7e93, gamma=1.0), 0.7, [1e-80], 100))
@example(case=(DetectorParams(Omega=2.6e-81, Gamma=4.7e93, gamma=1.0), 0.7, [1e-80], -100))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bounds_are_unit_covariant(case):
    # each part that is a normal double in both units scales by lambda^power
    # bit for bit (where it leaves that range only its rounding differs), and
    # a failure is the same failure at the scaled frequency
    p, eta, omegas, k = case
    lam = 4.0**k
    for name, (power, call) in BOUNDS.items():
        for w in (*omegas, np.array(omegas)):
            with np.errstate(all="ignore"):
                value = outcome_of(call, p, eta, w)
                moved = outcome_of(call, scaled_params(p, lam), eta, lam * w)
            assert type(moved) is type(value), (name, value, moved)
            if isinstance(value, FailureAtFrequency):
                message = str(value).rpartition(" omega = ")[0]
                assert str(moved) == str(FailureAtFrequency(lam * value.omega, message))
                continue
            if not isinstance(w, np.ndarray):  # a float call returns a scalar, not an array
                assert isinstance(value, complex if power < 0 or "inverse" in name else float)
            for b, m in zip(np.ravel(value), np.ravel(moved)):
                for part in ("real", "imag"):
                    expected = float(getattr(b, part)) * lam**power
                    # sql is 1/|chi_mech|: it keeps its bits where each part of
                    # chi_mech is normal or negligible, |chi_mech| >= 2^53 tiny
                    if normal(getattr(b, part)) and normal(expected) and (
                            name != "sql" or normal(0.5**53 / b) and normal(0.5**53 / expected)):
                        assert getattr(m, part) == expected, (name, part)


#: the power of the unit in each closed-form quantity of the combined bound
COMBINED_POWERS = {"D": 2, "E": 3, "X": 2, "Y": 3, "C": 2.5, "H": 0, "K": 1, "L": -1}


#: the fig2b parameters detuned by 0.3, at omega = 0.7 and xi = 0.4
FIG2B_DETUNED = (replace(presets.fig2b_config().params, Delta=0.3), 0.7, 0.4,
                 squeeze_spectrum(0.5, 0.3))


@st.composite
def combined_draws(draw):
    """Parameters, omega, xi and a squeezed input state from DRAW_RANGES, stable or not."""
    ranges = {k: st.floats(*DRAW_RANGES[k]) for k in DRAW_RANGES}
    params = DetectorParams(
        Omega=draw(ranges["Omega"]), Gamma=draw(ranges["Gamma"]), gamma=draw(ranges["gamma"]),
        Delta=draw(ranges["Delta"]), g=draw(ranges["g"]) * draw(st.sampled_from([-1.0, 1.0])),
    )
    uvw = squeeze_spectrum(draw(ranges["squeeze"]), draw(ranges["squeeze_angle"]))
    return params, draw(ranges["omega"]), draw(ranges["xi"]), uvw


# d*e*u multiplies five rates and |C|^2 squared a Python float: on FIG2B_DETUNED
# K was nan at 4^100 and 0 at 4^-100, and the call raised OverflowError at
# 4^130 and ZeroDivisionError at 4^-200
@given(case=combined_draws(), k=st.integers(-150, 150))
@example(case=FIG2B_DETUNED, k=-200)
@example(case=FIG2B_DETUNED, k=-100)
@example(case=FIG2B_DETUNED, k=100)
@example(case=FIG2B_DETUNED, k=130)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_combined_quantities_in_any_unit(case, k):
    p, omega, xi, uvw = case
    base = linresp.combined_quantities(p, omega, xi, uvw)
    moved = linresp.combined_quantities(scaled_params(p, 4.0**k), 4.0**k * omega, xi, uvw)
    for name, power in COMBINED_POWERS.items():
        factor = math.ldexp(1.0, round(2 * k * power))  # (4^k)^power
        assert getattr(moved, name) == getattr(base, name) * factor, name


def test_combined_normalization_keeps_its_bits():
    # the unit s is a power of four, so sqrt(gamma/s) is sqrt(gamma)/sqrt(s)
    # exactly and C has the bits of g sqrt(gamma) (r + xi Delta) in any unit
    for gamma in (50.0, 100.0, 200.0, 300.0):  # s = 16, 64, 64, 256
        p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=gamma, Delta=0.3, g=5.0)
        for omega in (0.1, 0.7, 3.0):
            c = linresp.combined_quantities(p, omega, 0.4, vacuum()).C
            assert c == p.g * math.sqrt(p.gamma) * (p.gamma / 2.0 - 1j * omega + 0.4 * p.Delta)


@pytest.mark.parametrize("k", [-200, 200])
def test_blind_quadrature_in_any_unit(k):
    # the amplitude quadrature at Delta = 0: cos(pi/2) = 6.1e-17 leaves its
    # response some 6e-17 of the perpendicular quadrature's
    lam = 4.0**k
    config = replace(presets.fig2a_configs()["standard"], readout_angle=math.pi / 2)
    with pytest.raises(FailureAtFrequency) as info:
        linresp.extract_detector(scaled(config, lam), lam * 0.2)
    assert str(info.value) == str(
        FailureAtFrequency(lam * 0.2, "output does not respond to the input operator at")
    )

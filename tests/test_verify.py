"""A verify check's verdict and printed line, derived from its record, the
root search behind uql-dominance/sql-attained, the identities suite's draws
and the recorded verdicts."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from forcelimits import bounds, presets
from forcelimits.errors import NumericalFailure
from forcelimits.schemes import DetectorParams, SchemeConfig, build
from forcelimits.verify import (
    CheckResult,
    random_stable_standard,
    run_suite,
    sql_balance_frequency,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "reference.json"


@pytest.mark.parametrize("measured, sense, threshold, line", [
    (5e-10, "<", 1e-9, "[PASS] s/c: r = 5e-10 (needs < 1e-9)"),
    (1e-9, "<", 1e-9, "[FAIL] s/c: r = 1e-09 (needs < 1e-9)"),
    (math.nan, "<", 1e-9, "[FAIL] s/c: r = nan (needs < 1e-9)"),
    (-1e-10, ">=", -1e-10, "[PASS] s/c: r = -1e-10 (needs >= -1e-10)"),
    (-0.5, ">=", 0.0, "[FAIL] s/c: r = -0.5 (needs >= 0)"),
    (math.nan, ">=", -1e-9, "[FAIL] s/c: r = nan (needs >= -1e-9)"),
])
def test_verdict_and_line_follow_the_record(measured, sense, threshold, line):
    check = CheckResult("s", "c", measured, sense, threshold, f"r = {measured}")
    assert check.passed is line.startswith("[PASS]")
    assert check.line() == line


@pytest.mark.parametrize("threshold, needs, clause", [
    (5.0, "(needs {} s)", "(needs < 5 s)"),
    (1.0, "(recorded; needs {})", "(recorded; needs < 1)"),
    (1.1, "(needs {} everywhere)", "(needs < 1.1 everywhere)"),
    (0.01, "(needs {}); 1% holds below 4", "(needs < 0.01); 1% holds below 4"),
])
def test_needs_template(threshold, needs, clause):
    check = CheckResult("s", "c", 7.0, "<", threshold, "r = 7", needs)
    assert check.line() == f"[FAIL] s/c: r = 7 {clause}"


def test_sql_balance_frequency_matches_brentq():
    params = presets.FIG2A_PARAMS

    def mismatch(omega):
        cb2 = abs(bounds.chi_cav(params, omega)) ** 2
        return params.g**2 * params.gamma * cb2 * abs(bounds.chi_mech(params, omega)) - 1.0

    grid = np.geomspace(1e-4, 1e2, 4001)
    k = np.flatnonzero(np.diff(np.sign(mismatch(grid))))[0]
    root = optimize.brentq(mismatch, grid[k], grid[k + 1], xtol=1e-15, rtol=1e-15)
    assert sql_balance_frequency(params) == pytest.approx(root, rel=1e-14)


def test_no_balance_point_is_a_numerical_failure():
    # at g = 0 there is no backaction to balance the shot noise
    message = "^no shot/backaction balance point in the scanned range$"
    with pytest.raises(NumericalFailure, match=message):
        sql_balance_frequency(replace(presets.FIG2A_PARAMS, g=0.0))


class ScriptedDraws:
    """A generator stand-in that returns its script: uniform gives the next
    value, choice the next sign."""

    def __init__(self, values, signs):
        self.values, self.signs = iter(values), iter(signs)

    def uniform(self, low, high):
        value = next(self.values)
        assert low <= value <= high
        return value

    def choice(self, options):
        return next(self.signs)


def test_draw_near_parametric_divergence_is_redrawn():
    # Omega, Gamma, gamma, Delta, |g| and omega of each draw
    near = (1.32, 0.69, 1.19, -0.91, 1.0912, 1.2697)
    second = (1.0, 0.5, 2.0, 0.5, 1.0, 0.7)
    params = DetectorParams(*near[:5])
    build(SchemeConfig("standard", params))  # stable
    r = params.gamma / 2.0 - 1j * near[5]
    loop = 1.0 - params.g**2 * bounds.chi_mech(params, near[5]) * params.Delta / (
        r * r + params.Delta**2)
    assert abs(loop) < 1e-3
    drawn = random_stable_standard(ScriptedDraws(near + second, [1.0, 1.0]))
    assert drawn == (DetectorParams(*second[:5]), second[5])


# seed 13 is the one where identities/gram-identity fails as well
@pytest.mark.parametrize("seed", [0, 13, 31])
def test_verdicts_match_recorded_reference(seed):
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["verify"]
    failing = set(recorded["failing"][str(seed)])
    expected = {name: name not in failing for name in recorded["checks"]}
    assert {f"{r.suite}/{r.name}": r.passed for r in run_suite("all", seed)} == expected

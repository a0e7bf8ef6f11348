"""A verify check's verdict and printed line, derived from its record."""

import math

import pytest

from forcelimits.verify import CheckResult


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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The checks themselves live in forcelimits.verify so the CLI `verify`
subcommand and this module certify exactly the same measurements.  The full
set runs once per session; individual criteria assert on their slice of it.
"""

import time

import pytest

from forcelimits import verify

SEED = 0


@pytest.fixture(scope="module")
def all_checks():
    start = time.perf_counter()
    results = verify.run_suite("all", seed=SEED)
    elapsed = time.perf_counter() - start
    return {(r.suite, r.name): r for r in results}, elapsed


def _report(number, title, results):
    passed = all(r.passed for r in results)
    print(f"\ncriterion {number:2d} ({title}): {'PASS' if passed else 'FAIL'}")
    for r in results:
        print(f"    {r.line()}")
    assert passed, f"criterion {number} failed: " + "; ".join(
        r.line() for r in results if not r.passed
    )


def pick(checks, *keys):
    return [checks[key] for key in keys]


def test_criterion_01_uql_dominance(all_checks):
    checks, _ = all_checks
    _report(
        1, "UQL dominance for the four benchmark schemes",
        pick(
            checks,
            ("uql-dominance", "standard-above-uql"),
            ("uql-dominance", "vm-above-uql"),
            ("uql-dominance", "cd-above-uql"),
            ("uql-dominance", "cqnc-above-uql"),
            ("uql-dominance", "fig2a-runtime"),
        ),
    )


def test_criterion_02_sql_attainment_and_beating(all_checks):
    checks, _ = all_checks
    _report(
        2, "SQL attainment and beating",
        pick(
            checks,
            ("uql-dominance", "standard-above-sql"),
            ("uql-dominance", "sql-attained"),
            ("uql-dominance", "vm-beats-sql"),
            ("uql-dominance", "cd-beats-sql"),
        ),
    )


def test_criterion_03_closed_form_equivalence(all_checks):
    checks, _ = all_checks
    _report(
        3, "numeric transfer equals analytic closed forms",
        pick(checks, ("identities", "transfer-closed-form")),
    )


def test_criterion_04_corrected_identities(all_checks):
    checks, _ = all_checks
    _report(
        4, "combined-scheme product identities",
        pick(
            checks,
            ("identities", "product-identity"),
            ("identities", "gram-identity"),
        ),
    )


def test_criterion_05_cqnc(all_checks):
    checks, _ = all_checks
    _report(
        5, "CQNC backaction cancellation and ancilla floor",
        pick(
            checks,
            ("cqnc", "backaction-cancelled"),
            ("cqnc", "ancilla-floor"),
        ),
    )


def test_criterion_06_toy_detector(all_checks):
    checks, _ = all_checks
    _report(
        6, "mixed-coupling detector against its generalized bound",
        pick(
            checks,
            ("uql-dominance", "toy-above-guql"),
            ("uql-dominance", "toy-near-attains-guql"),
            ("uql-dominance", "guql-below-uql"),
        ),
    )


def test_criterion_07_optimal_bound(all_checks):
    checks, _ = all_checks
    _report(
        7, "optimal bound equals the coupling-mix scan",
        pick(
            checks,
            ("bounds", "optimal-matches-scan"),
            ("bounds", "high-frequency-tail"),
        ),
    )


def test_criterion_08_linear_response_chain(all_checks):
    checks, _ = all_checks
    _report(
        8, "coupling-optimized bound chain and extraction uncertainty",
        pick(
            checks,
            ("linresp", "min-above-bound"),
            ("linresp", "bound-above-im-chi"),
            ("linresp", "extraction-uncertainty"),
        ),
    )


def test_criterion_09_feedback_invariance(all_checks):
    checks, _ = all_checks
    _report(9, "direct-feedback invariance", pick(checks, ("feedback", "gain-invariance")))


def test_criterion_10_verify_all(all_checks):
    checks, elapsed = all_checks
    failed = [r for r in checks.values() if not r.passed]
    status = "PASS" if (elapsed < 60.0 and not failed) else "FAIL"
    print(f"\ncriterion 10 (verify all < 60 s, exit 0): {status}")
    print(f"    elapsed = {elapsed:.1f} s over {len(checks)} checks")
    for r in failed:
        print(f"    blocking: {r.line()}")
    assert elapsed < 60.0
    assert not failed, "verify-all would exit nonzero; failing checks above"


#: the sense and threshold of every check as certified; loosening one fails here
THRESHOLDS = {
    ("uql-dominance", "standard-above-uql"): (">=", -1e-9),
    ("uql-dominance", "vm-above-uql"): (">=", -1e-9),
    ("uql-dominance", "cd-above-uql"): (">=", -1e-9),
    ("uql-dominance", "cqnc-above-uql"): (">=", -1e-9),
    ("uql-dominance", "fig2a-runtime"): ("<", 5.0),
    ("uql-dominance", "standard-above-sql"): (">=", -1e-9),
    ("uql-dominance", "sql-attained"): ("<", 1e-9),
    ("uql-dominance", "vm-beats-sql"): ("<", 1.0),
    ("uql-dominance", "cd-beats-sql"): ("<", 1.0),
    ("uql-dominance", "toy-above-guql"): (">=", -1e-9),
    ("uql-dominance", "toy-near-attains-guql"): ("<", 1.1),
    ("uql-dominance", "guql-below-uql"): ("<", 1.0),
    ("identities", "transfer-closed-form"): ("<", 1e-10),
    ("identities", "product-identity"): ("<", 1e-10),
    ("identities", "gram-identity"): ("<", 1e-10),
    ("cqnc", "backaction-cancelled"): ("<", 1e-12),
    ("cqnc", "ancilla-floor"): ("<", 0.01),
    ("linresp", "min-above-bound"): (">=", -1e-9),
    ("linresp", "bound-above-im-chi"): (">=", -1e-9),
    ("linresp", "extraction-uncertainty"): (">=", -1e-9),
    ("feedback", "gain-invariance"): ("<", 1e-9),
    ("bounds", "optimal-matches-scan"): ("<", 1e-8),
    ("bounds", "high-frequency-tail"): ("<", 0.01),
    ("bounds", "optimal-dominates"): (">=", -1e-10),
}


def test_thresholds_as_certified(all_checks):
    checks, _ = all_checks
    assert {key: (r.sense, r.threshold) for key, r in checks.items()} == THRESHOLDS

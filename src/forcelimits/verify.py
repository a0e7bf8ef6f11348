"""Numerical certification suites for the quantum-limit properties.

Every check is a CheckResult record: the measured slack or residual, the
threshold it is held to and the sense of the comparison, so failures carry
their evidence.  Slacks are reported relative to the scale of the quantities
compared; the thresholds are fixed here, not tunable.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds, linresp, noise, presets
from .errors import InvalidConfig, NumericalFailure, UnstableModel
from .linsys import transfer
from .schemes import DetectorParams, SchemeConfig, build, closed_form_transfer
from .spectra import squeeze_spectrum, vacuum

# a NaN measurement compares False under both, so it fails either way
_SENSES = {"<": operator.lt, ">=": operator.ge}


def _plain(value: float) -> str:
    """Shortest form of a threshold: 5, 0.01, -1e-9 (not 5.0 or -1e-09)."""
    mantissa, _, exponent = f"{value:g}".partition("e")
    return f"{mantissa}e{int(exponent)}" if exponent else mantissa


@dataclass(frozen=True)
class CheckResult:
    """One check: `measured` must be `sense` ("<" or ">=") `threshold`.

    `detail` says what was measured; `needs` is where the requirement goes
    in the printed line, its `{}` replaced by e.g. "< 1e-9".
    """

    suite: str
    name: str
    measured: float
    sense: str
    threshold: float
    detail: str
    needs: str = "(needs {})"

    @property
    def passed(self) -> bool:
        return bool(_SENSES[self.sense](self.measured, self.threshold))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        needs = self.needs.format(f"{self.sense} {_plain(self.threshold)}")
        return f"[{status}] {self.suite}/{self.name}: {self.detail} {needs}"


def _relative_slack(value, floor):
    """(value - floor) / scale, positive when the bound is respected (elementwise)."""
    scale = np.maximum(np.maximum(abs(value), abs(floor)), 1e-30)
    return (value - floor) / scale


_ZOOM_POINTS, _ZOOM_ROUNDS = 65, 10


def _zoom(f, x, pick):
    """Refine the scan x to the sample pick(f(x)) chooses; return (x_k, f(x_k)).

    Each of _ZOOM_ROUNDS rounds rescans _ZOOM_POINTS points between the picked
    sample's neighbours, a 32-fold smaller bracket (Kiefer 1953; Brent 1973)."""
    for _ in range(_ZOOM_ROUNDS):
        k = pick(f(x))
        x = np.linspace(x[max(k - 1, 0)], x[min(k + 1, len(x) - 1)], _ZOOM_POINTS)
    values = f(x)
    k = pick(values)
    return x[k], values[k]


# ---------------------------------------------------------------------------
# uql-dominance: pointwise bound dominance, SQL attainment, mixed-coupling gap


def sql_balance_frequency(params: DetectorParams) -> float:
    """Frequency where shot and backaction noise balance, i.e. S_f touches the SQL."""
    def mismatch(omega):
        cb2 = abs(bounds.chi_cav(params, omega)) ** 2
        ca = abs(bounds.chi_mech(params, omega))
        return params.g * params.g * params.gamma * cb2 * ca - 1.0

    def first_sign_flip(values):
        flips = np.flatnonzero(np.diff(np.sign(values)))
        if flips.size == 0:
            raise NumericalFailure("no shot/backaction balance point in the scanned range")
        return flips[0]

    return float(_zoom(mismatch, np.geomspace(1e-4, 1e2, 4001), first_sign_flip)[0])


def suite_uql_dominance(check, seed: int) -> list[CheckResult]:
    grid = presets.fig2a_grid()
    configs = presets.fig2a_configs()

    start = time.perf_counter()
    spectra = {name: noise.sensitivity_spectrum(cfg, grid) for name, cfg in configs.items()}
    elapsed = time.perf_counter() - start

    results = []
    for name, spec in spectra.items():
        slack = float(np.min(spec.s_f / spec.uql)) - 1.0
        results.append(check(
            f"{name}-above-uql", slack, ">=", -1e-9, f"min S_f/UQL - 1 = {slack:.3e}"
        ))
    results.append(check(
        "fig2a-runtime", elapsed, "<", 5.0,
        f"four spectra over {len(grid)} points in {elapsed:.2f} s", "(needs {} s)",
    ))

    std = spectra["standard"]
    sql_slack = float(np.min(std.s_f / std.sql)) - 1.0
    results.append(check(
        "standard-above-sql", sql_slack, ">=", -1e-9, f"min S_f/SQL - 1 = {sql_slack:.3e}"
    ))

    omega_star = sql_balance_frequency(presets.FIG2A_PARAMS)
    s_f_star = noise.sensitivity_at(configs["standard"], omega_star)
    gap = abs(s_f_star / bounds.sql(presets.FIG2A_PARAMS, omega_star) - 1.0)
    results.append(check(
        "sql-attained", gap, "<", 1e-9,
        f"|S_f/SQL - 1| = {gap:.3e} at balance frequency {omega_star:.6g}",
    ))

    for name in ("vm", "cd"):
        ratio = float(np.min(spectra[name].s_f / spectra[name].sql))
        results.append(check(
            f"{name}-beats-sql", ratio, "<", 1.0, f"min S_f/SQL = {ratio:.6f}",
            "(recorded; needs {})",
        ))

    toy = noise.sensitivity_spectrum(presets.fig2b_config(), presets.fig2b_grid())
    ratio = toy.s_f / toy.guql
    touch, touch_omega = float(np.min(ratio)), float(toy.omegas[int(np.argmin(ratio))])
    results.append(check(
        "toy-above-guql", touch - 1.0, ">=", -1e-9, f"min S_f/gUQL - 1 = {touch - 1.0:.3e}"
    ))
    results.append(check(
        "toy-near-attains-guql", touch, "<", 1.1,
        f"min S_f/gUQL = {touch:.6f} at omega = {touch_omega:.4g}",
    ))
    guql_gap = float(np.max(toy.guql / toy.uql))
    results.append(check(
        "guql-below-uql", guql_gap, "<", 1.0, f"max gUQL/UQL = {guql_gap:.6f}",
        "(needs {} everywhere)",
    ))
    return results


# ---------------------------------------------------------------------------
# identities: numeric transfer vs closed forms, combined-scheme identities


def random_stable_standard(rng: np.random.Generator) -> tuple[DetectorParams, float]:
    """Draw a stable standard-scheme parameter set plus an analysis frequency."""
    while True:
        params = DetectorParams(
            Omega=float(rng.uniform(0.05, 3.0)),
            Gamma=float(rng.uniform(0.01, 1.0)),
            gamma=float(rng.uniform(0.3, 6.0)),
            Delta=float(rng.uniform(-4.0, 4.0)),
            g=float(rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0])),
        )
        omega = float(rng.uniform(0.01, 12.0))
        try:
            build(SchemeConfig("standard", params))
        except UnstableModel:
            continue
        ca = bounds.chi_mech(params, omega)
        r = params.gamma / 2.0 - 1j * omega
        chi_d = params.Delta / (r * r + params.Delta**2)
        if abs(1.0 - params.g**2 * ca * chi_d) < 1e-3:
            continue
        return params, omega


def _entrywise_relative(numeric: np.ndarray, closed: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(closed))), 1e-30)
    denom = np.maximum(np.abs(closed), 1e-12 * scale)
    return float(np.max(np.abs(numeric - closed) / denom))


def suite_identities(check, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)

    worst_transfer = 0.0
    for _ in range(100):
        params, omega = random_stable_standard(rng)
        model = build(SchemeConfig("standard", params))
        resp = transfer(model, omega)
        m_shot, m_back, v = closed_form_transfer(params, omega)
        worst_transfer = max(
            worst_transfer,
            _entrywise_relative(resp.M, m_shot + m_back),
            _entrywise_relative(resp.v, v),
        )

    worst_first = 0.0
    worst_second = 0.0
    for _ in range(200):
        params, omega = random_stable_standard(rng)
        xi = float(rng.uniform(-20.0, 20.0))
        if rng.uniform() < 0.5:
            uvw = squeeze_spectrum(float(rng.uniform(0.0, 1.5)),
                                   float(rng.uniform(-math.pi, math.pi)))
        else:
            uvw = vacuum()
        cq = linresp.combined_quantities(params, omega, xi, uvw, params.g)
        c2 = abs(cq.C) ** 2
        worst_first = max(worst_first, abs(cq.E * cq.X - cq.D * cq.Y - c2) / c2)
        worst_second = max(
            worst_second,
            abs(cq.K * cq.L - cq.H**2 - (uvw.u * uvw.v - uvw.w**2)),
        )
    return [
        check(
            "transfer-closed-form", worst_transfer, "<", 1e-10,
            f"max entrywise relative error = {worst_transfer:.3e} over 100 draws",
        ),
        check(
            "product-identity", worst_first, "<", 1e-10,
            f"max |EX - DY - |C|^2| / |C|^2 = {worst_first:.3e} over 200 draws",
        ),
        check(
            "gram-identity", worst_second, "<", 1e-10,
            f"max |KL - H^2 - (uv - w^2)| = {worst_second:.3e} over 200 draws",
        ),
    ]


# ---------------------------------------------------------------------------
# cqnc: coherent backaction cancellation and the ancilla-limited sensitivity


def suite_cqnc(check, seed: int) -> list[CheckResult]:
    grid = presets.fig2a_grid()

    cfg = presets.fig2a_configs()["cqnc"]
    bare, strong = (replace(cfg, params=replace(cfg.params, g=g)) for g in (0.0, 1e3))
    backaction = transfer(build(cfg), grid).M - transfer(build(bare), grid).M
    worst_block = float(np.max(np.abs(backaction)))
    cancelled = check(
        "backaction-cancelled", worst_block, "<", 1e-12,
        f"max |readout backaction block| = {worst_block:.3e} over the grid",
    )

    spec = noise.sensitivity_spectrum(strong, grid)
    p = strong.params
    ancilla_floor = (
        p.Gamma / (2.0 * p.Omega**2) * (grid**2 + p.Omega**2 + p.Gamma**2 / 4.0)
    )
    deviation = np.abs(spec.s_f / ancilla_floor - 1.0)
    worst_dev = float(np.max(deviation))
    worst_omega = float(grid[int(np.argmax(deviation))])
    ancilla = check(
        "ancilla-floor", worst_dev, "<", 0.01,
        f"max |S_f/floor - 1| = {worst_dev:.3e} at omega = {worst_omega:.4g} "
        "with g = 1e3",
    )
    if not ancilla.passed:
        # the residual shot noise scales as w^4/(g^2 gamma Gamma) relative to
        # the floor, so at fixed g the approximation only holds below a cutoff
        tol = ancilla.threshold
        omega_ok = (tol * p.g**2 * p.gamma * p.Gamma) ** 0.25
        g_needed = math.sqrt(float(grid[-1]) ** 4 / (tol * p.gamma * p.Gamma))
        ancilla = replace(ancilla, needs=ancilla.needs + (
            f"; {tol:.0%} holds only for omega <~ {omega_ok:.3g}, covering the full "
            f"grid would need g >~ {g_needed:.3g}"
        ))
    return [cancelled, ancilla]


# ---------------------------------------------------------------------------
# linresp: coupling-optimized bound chain and physical-extraction uncertainty


def random_detector(rng: np.random.Generator) -> linresp.GenericDetector:
    """Random one-frequency detector satisfying the uncertainty relation."""
    omega = float(rng.uniform(0.1, 5.0))
    chi_ff = complex(rng.normal(0.0, 0.7), rng.normal(0.0, 0.7))
    s_zz = float(rng.uniform(0.2, 2.5))
    s_zf = complex(rng.normal(0.0, 0.5), rng.normal(0.0, 0.5))
    b = chi_ff.imag * s_zz + s_zf.imag
    s_ff = (abs(s_zf) ** 2 + abs(b) + 0.25) / s_zz * float(rng.uniform(1.0, 2.5))

    def nonzero_complex(floor: float) -> complex:
        while True:
            z = complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))
            if abs(z) > floor:
                return z

    return linresp.GenericDetector(
        omega=omega, chi_FF=chi_ff, S_FF=s_ff, S_ZZ=s_zz, S_ZF=s_zf,
        chi_qq=nonzero_complex(0.05), chi_qx=nonzero_complex(0.1),
        g=float(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])),
    )


def numeric_coupling_minimum(det: linresp.GenericDetector) -> float:
    """Brute-force minimum of S'_f over the coupling strength."""
    def objective(log_g):
        return linresp.sprime_f(replace(det, g=np.exp(log_g)))

    return float(_zoom(objective, np.linspace(-10.0, 10.0, 201), np.argmin)[1])


def suite_linresp(check, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)

    worst_min_vs_bound = np.inf
    worst_bound_vs_floor = np.inf
    for _ in range(100):
        det = random_detector(rng)
        minimum = numeric_coupling_minimum(det)
        bound = linresp.g_optimized_bound(det)
        floor = abs(det.chi_qq.imag)
        worst_min_vs_bound = min(worst_min_vs_bound, _relative_slack(minimum, bound))
        worst_bound_vs_floor = min(worst_bound_vs_floor, _relative_slack(bound, floor))

    worst_extraction = np.inf
    for _ in range(50):
        params, omega = random_stable_standard(rng)
        phi = float(rng.uniform(-1.3, 1.3))
        det = linresp.extract_detector(
            SchemeConfig("standard", params, readout_angle=phi), omega,
            input_spectrum=vacuum(),
        )
        worst_extraction = min(worst_extraction, linresp.uncertainty_slack(det))
    return [
        check(
            "min-above-bound", worst_min_vs_bound, ">=", -1e-9,
            f"worst (min_g S'_f - bound)/scale = {worst_min_vs_bound:.3e} over 100 "
            "draws",
        ),
        check(
            "bound-above-im-chi", worst_bound_vs_floor, ">=", -1e-9,
            f"worst (bound - |Im chi_qq|)/scale = {worst_bound_vs_floor:.3e} over "
            "100 draws",
        ),
        check(
            "extraction-uncertainty", worst_extraction, ">=", -1e-9,
            f"worst uncertainty slack of extracted detectors = "
            f"{worst_extraction:.3e} over 50 draws",
        ),
    ]


# ---------------------------------------------------------------------------
# feedback: invariance of the added noise under direct output feedback


def suite_feedback(check, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gains = (0.0, 0.5, -0.5, 5.0, -5.0)
    worst = 0.0
    for _ in range(20):
        det = random_detector(rng)
        omegas = rng.uniform(0.05, 20.0, size=20)
        # rows: the gains; the first, zero gain, is the reference
        values = linresp.feedback_added_noise(det, np.array(gains)[:, None], omegas)
        worst = max(worst, float(np.max(abs(values[1:] / values[0] - 1.0))))
    return [check(
        "gain-invariance", worst, "<", 1e-9,
        f"max relative S_f deviation over gains {gains} = {worst:.3e}",
    )]


# ---------------------------------------------------------------------------
# bounds: coupling-mix optimization against the closed form


def eta_scan_minimum(params: DetectorParams, omega: float) -> float:
    """Scan-and-refine minimum of the generalized bound over the coupling mix."""
    def objective(eta):
        return bounds.generalized_uql(bounds.coupling_susceptibilities(params, eta, omega))

    return float(_zoom(objective, np.linspace(-1000.0, 1000.0, 4001), np.argmin)[1])


def suite_bounds(check, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)

    # draw ranges keep the optimal mix well inside the scanned interval
    worst_scan = 0.0
    for _ in range(50):
        params = DetectorParams(
            Omega=float(rng.uniform(0.3, 3.0)),
            Gamma=float(rng.uniform(0.3, 3.0)),
            gamma=1.0,
        )
        omega = float(rng.uniform(0.05, 5.0) * params.Omega)
        closed = bounds.optimal_uql(params, omega)
        scanned = eta_scan_minimum(params, omega)
        worst_scan = max(worst_scan, abs(closed / scanned - 1.0))

    params = DetectorParams(Omega=1.0, Gamma=1.0, gamma=1.0)
    omega = 100.0
    asymptote = params.Gamma * params.Omega / omega
    dev = abs(bounds.optimal_uql(params, omega) / asymptote - 1.0)

    worst_dom = np.inf
    for _ in range(50):
        params = DetectorParams(
            Omega=float(rng.uniform(0.2, 4.0)),
            Gamma=float(rng.uniform(0.05, 4.0)),
            gamma=1.0,
        )
        omega = float(rng.uniform(0.02, 20.0))
        opt = bounds.optimal_uql(params, omega)
        etas = rng.uniform(-50.0, 50.0, size=8)
        guql = bounds.generalized_uql(bounds.coupling_susceptibilities(params, etas, omega))
        worst_dom = min(worst_dom, float(np.min(_relative_slack(guql, opt))))
    return [
        check(
            "optimal-matches-scan", worst_scan, "<", 1e-8,
            f"max |closed/scan - 1| = {worst_scan:.3e} over 50 draws",
        ),
        check(
            "high-frequency-tail", dev, "<", 0.01,
            f"|optimal bound * omega/(Gamma Omega) - 1| = {dev:.3e} at omega = "
            "100 Omega",
        ),
        check(
            "optimal-dominates", worst_dom, ">=", -1e-10,
            f"worst (gUQL - optimal)/scale = {worst_dom:.3e} over sampled mixes",
        ),
    ]


# ---------------------------------------------------------------------------


# each suite function takes a CheckResult factory with its suite name bound
_SUITE_FUNCTIONS = {
    "uql-dominance": suite_uql_dominance,
    "identities": suite_identities,
    "cqnc": suite_cqnc,
    "linresp": suite_linresp,
    "feedback": suite_feedback,
    "bounds": suite_bounds,
}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or every suite for name == 'all'."""
    if name == "all":
        return [r for suite in SUITES for r in run_suite(suite, seed)]
    if name not in _SUITE_FUNCTIONS:
        raise InvalidConfig(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FUNCTIONS[name](partial(CheckResult, name), seed)

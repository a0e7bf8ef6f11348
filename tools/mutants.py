"""Mutation table for the numerical guards.

Each row of MUTANTS names a file, an exact text that must occur in it once,
the text that replaces it and the test ids that the change must fail.  For
each row the runner copies src/, tests/, perfbench/ (some tests read its
recorded reference) and pyproject.toml to a temporary directory, applies the
substitution there and runs each listed id in its own pytest process, one at
a time.  A listed id that still passes is a survivor: a guard is missing,
so add the test that kills it and keep the row.

    python tools/mutants.py [PATH ...]

With paths (for example src/forcelimits/cli.py) only the rows of those files
run.  Before any mutant, the listed ids run once on an unmutated copy; they
must pass there.  Exit status 0 when every listed id fails under its mutant,
1 on a path that no row names, a survivor, a stale row (its old text not
found exactly once), a listed id that fails unmutated or a pytest run that
errors instead of failing.  A failing run whose output shows a NameError,
ImportError or SyntaxError is an error too: the mutant broke the code, not a
guard.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "residual-complex128", "src/forcelimits/linsys.py",
        "    y_hi = y.astype(np.clongdouble)\n"
        "    residual = rhs - (drift.T.astype(np.clongdouble) @ y_hi",
        "    y_hi = y.astype(np.complex128)\n"
        "    residual = rhs - (drift.T.astype(np.complex128) @ y_hi",
        ("tests/test_linsys.py::TestTransfer::test_cqnc_backaction_block_vanishes",),
    ),
    Mutant(
        "no-correction", "src/forcelimits/linsys.py",
        "    y = y + inv @ residual.astype(np.complex128)\n",
        "",
        ("tests/test_linsys.py::TestTransfer::test_cqnc_backaction_block_vanishes",
         "tests/test_linresp.py::test_sensitivity_is_scaled_added_noise_for_every_scheme"),
    ),
    Mutant(
        "cond1-infinity-norm-of-inverse", "src/forcelimits/linsys.py",
        ".copy().sum(axis=0).max(axis=0)",
        ".copy().sum(axis=1).max(axis=0)",
        ("tests/test_linsys.py::test_condition_number_against_numpy[toy]",),
    ),
    Mutant(
        "cond1-infinity-norm-of-m", "src/forcelimits/linsys.py",
        "np.abs(drift).sum(axis=1)",
        "np.abs(drift).sum(axis=0)",
        ("tests/test_linsys.py::test_condition_number_of_a_lopsided_drift",),
    ),
    Mutant(
        "fallback-raises-at-exactly-singular", "src/forcelimits/linsys.py",
        "            except np.linalg.LinAlgError:\n"
        "                pass\n",
        "            except np.linalg.LinAlgError:\n"
        "                raise FailureAtFrequency(omegas[k], \"system matrix singular at\")"
        " from None\n",
        ("tests/test_linsys.py::TestFirstFailureOrder"
         "::test_ill_conditioned_before_exactly_singular",),
    ),
    Mutant(
        "locator-ignores-mask", "src/forcelimits/errors.py",
        "        if np.count_nonzero(bad):\n",
        "        if False:\n",
        ("tests/test_linsys.py::TestFirstFailureOrder::test_only_exactly_singular_point[omegas0]",
         "tests/test_cli.py::TestNumericalFailureInProcess"
         "::test_first_failing_frequency[0.5-system matrix singular at omega = 1.0]"),
    ),
    Mutant(
        "budget-drops-ancilla", "src/forcelimits/schemes.py",
        "ANCILLA: (p.Gamma, -p.Omega, _VACUUM),",
        "ANCILLA: (p.Gamma, -p.Omega, None),",
        ("tests/test_noise.py::test_sensitivity_obeys_the_generalized_uql[cqnc]",),
    ),
    Mutant(
        "budget-counts-bath", "src/forcelimits/schemes.py",
        "MECHANICAL: (p.Gamma, p.Omega, None),",
        "MECHANICAL: (p.Gamma, p.Omega, _VACUUM),",
        ("tests/test_noise.py::TestSensitivitySpectrum::test_mechanical_bath_not_counted",
         "tests/test_noise.py::TestPowerDensity::test_resonant_phase_readout_closed_form"),
    ),
    Mutant(
        "zero-as-%.0f", "src/forcelimits/cli.py",
        '        return "0"\n',
        '        return "%.0f" % value\n',
        ("tests/test_cli.py::TestFmt12::test_zero",
         "tests/test_cli.py::TestFmt12::test_block_writer_matches_decimal_oracle"),
    ),
    Mutant(
        "no-near-decade-fix-up", "src/forcelimits/cli.py",
        '    exponent = text.partition("e")[2]\n',
        "    exponent = str(int(np.log10(abs(value)) // 1)) if np.isfinite(value) else \"\"\n",
        ("tests/test_cli.py::TestFmt12::test_decade_carry",),
    ),
    Mutant(
        "no-half-margin", "src/forcelimits/cli.py",
        "        fast &= np.abs(scaled - 0.5) >= 1e-3\n",
        "",
        ("tests/test_cli.py::TestFmt12::test_exact_tie_rounds_to_even[123456789013.5-1.23456789014e+11]",
         "tests/test_cli.py::TestFmt12::test_exact_tie_rounds_to_even[123456.0234375-123456.023438]"),
    ),
    Mutant(
        "no-upper-decade-margin", "src/forcelimits/cli.py",
        "scaled < 1e12 - 0.501",
        "scaled < 1e12",
        ("tests/test_cli.py::TestFmt12::test_decade_carry",
         "tests/test_cli.py::TestFmt12::test_edge_of_the_integer_path"),
    ),
    Mutant(
        "csv-point-a-digit-late", "src/forcelimits/cli.py",
        "(8 + 2 * e)}.{' ' * (16 - 2 * e)}",
        "(10 + 2 * e)}.{' ' * (14 - 2 * e)}",
        ("tests/test_cli.py::TestFmt12::test_every_template",
         "tests/test_cli.py::TestFmt12::test_twelve_significant_digits"),
    ),
    Mutant(
        "csv-comma-ends-the-row", "src/forcelimits/cli.py",
        '[:, -1, -1] = ord("\\n")',
        '[:, -1, -1] = ord(",")',
        ("tests/test_cli.py::TestFmt12::test_every_template",
         "tests/test_cli.py::TestFmt12::test_block_writer_matches_decimal_oracle"),
    ),
    Mutant(
        "csv-digit-groups-swapped", "src/forcelimits/cli.py",
        "out=(groups[:, :, 0], groups[:, :, 1])",
        "out=(groups[:, :, 1], groups[:, :, 0])",
        ("tests/test_cli.py::TestFmt12::test_every_template",
         "tests/test_cli.py::TestFmt12::test_twelve_significant_digits"),
    ),
    Mutant(
        "csv-pad-not-nul", "src/forcelimits/cli.py",
        '.replace(" ", "\\0")',
        '.replace(" ", "\\1")',
        ("tests/test_cli.py::TestFmt12::test_every_template",
         "tests/test_cli.py::TestFmt12::test_scientific_threshold"),
    ),
    Mutant(
        "no-variant-case-fold", "src/forcelimits/cli.py",
        'values["scheme"]["variant"].lower()',
        'values["scheme"]["variant"]',
        ("tests/test_cli.py::TestRunKeys::test_file_variant_recorded_in_lower_case",),
    ),
    Mutant(
        "config-default-section-inherited", "src/forcelimits/cli.py",
        'interpolation=None, default_section="")',
        "interpolation=None)",
        ("tests/test_cli.py::TestRunKeys::test_unknown_file_section[DEFAULT]",),
    ),
    Mutant(
        "config-percent-interpolation", "src/forcelimits/cli.py",
        "interpolation=None, ",
        "",
        ("tests/test_cli.py::TestSpectrumCommand::test_bad_config_file",),
    ),
    Mutant(
        "config-colon-delimiter", "src/forcelimits/cli.py",
        'delimiters=("=",), ',
        "",
        ("tests/test_cli.py::TestRunKeys::test_unreadable_file_is_one_line[colon]",),
    ),
    Mutant(
        "config-semicolon-comment", "src/forcelimits/cli.py",
        ' comment_prefixes=("#",),',
        "",
        ("tests/test_cli.py::TestRunKeys::test_unreadable_file_is_one_line[semicolon]",),
    ),
    Mutant(
        "argparse-negative-number-rule", "src/forcelimits/cli.py",
        '        self._negative_number_matcher = re.compile(r"^-(\\d|\\.\\d|inf|nan)", re.I)\n',
        "",
        ("tests/test_cli.py::test_spectrum_ends_in_csv_or_one_line",),
    ),
    Mutant(
        "flag-abbreviations", "src/forcelimits/cli.py",
        "super().__init__(allow_abbrev=False, **kwargs)",
        "super().__init__(**kwargs)",
        ("tests/test_cli.py::test_abbreviated_flag_is_a_usage_error[--Om-0.5]",),
    ),
    Mutant(
        "grid-spacing-unchecked", "src/forcelimits/presets.py",
        "    if spacing not in SPACINGS:\n"
        "        raise InvalidConfig(f\"spacing must be {' or '.join(map(repr, SPACINGS))}\")\n",
        "",
        ("tests/test_cli.py::TestSpectrumCommand::test_bad_config_file",),
    ),
    Mutant(
        "omega-min-unchecked", "src/forcelimits/presets.py",
        "    if not omega_min > 0.0:\n"
        "        raise InvalidConfig(\"omega_min must be positive\")\n",
        "",
        ("tests/test_cli.py::test_invalid_number_is_a_configuration_error"
         "[flags15-omega_min must be positive]",),
    ),
    Mutant(
        "omega-max-order-unchecked", "src/forcelimits/presets.py",
        "    if not omega_max > omega_min:\n"
        "        raise InvalidConfig(\"omega_max must exceed omega_min\")\n",
        "",
        ("tests/test_cli.py::test_invalid_number_is_a_configuration_error"
         "[flags16-omega_max must exceed omega_min]",),
    ),
    Mutant(
        "points-unchecked", "src/forcelimits/presets.py",
        "    if not 2 <= points <= MAX_POINTS:\n"
        "        raise InvalidConfig(f\"points must lie in [2, {MAX_POINTS}]\")\n",
        "",
        ("tests/test_cli.py::test_invalid_number_is_a_configuration_error"
         "[flags17-points must lie in [2, 10000000]]",
         "tests/test_cli.py::TestSpectrumCommand::test_single_point_grid_rejected"),
    ),
    Mutant(
        "fig2b-grid-is-fig2a's", "src/forcelimits/presets.py",
        'FIG2B_GRID = {**FIG2A_GRID, "omega_min": 1e-2 * FIG2B_PARAMS.Omega,\n'
        '              "omega_max": 1e2 * FIG2B_PARAMS.Omega}',
        "FIG2B_GRID = {**FIG2A_GRID}",
        ("tests/test_cli.py::test_csv_bytes_match_recorded_digests[fig2b]",),
    ),
    Mutant(
        "run-keys-delta-g-swapped", "src/forcelimits/cli.py",
        '"Delta", "g")',
        '"g", "Delta")',
        ("tests/test_cli.py::test_csv_bytes_match_recorded_digests[fig2a]",
         "tests/test_cli.py::TestRunKeys::test_default_dump_config"),
    ),
    Mutant(
        "preset-metadata-without-extra", "src/forcelimits/cli.py",
        "**grid_keys, **extra}",
        "**grid_keys}",
        ("tests/test_cli.py::test_csv_bytes_match_recorded_digests[fig2b]",),
    ),
    Mutant(
        "preset-metadata-without-grid-keys", "src/forcelimits/cli.py",
        "**grid_keys, **extra}",
        "**extra}",
        ("tests/test_cli.py::test_csv_bytes_match_recorded_digests[fig2a]",),
    ),
    Mutant(
        "readout-rows-swapped", "src/forcelimits/linsys.py",
        "b[list(readout.rows)] =",
        "b[list(readout.rows)[::-1]] =",
        ("tests/test_schemes.py::TestClosedFormTransfer::test_matches_numeric_solve",),
    ),
    Mutant(
        "force-row-is-position", "src/forcelimits/linsys.py",
        "FORCE_ROW = 1\n",
        "FORCE_ROW = 0\n",
        ("tests/test_noise.py::TestPowerDensity::test_resonant_phase_readout_closed_form",),
    ),
    Mutant(
        "conjugate-drive-sign-flipped", "src/forcelimits/schemes.py",
        "drive[1::2], drive[0::2] = f[0::2], -f[1::2]",
        "drive[1::2], drive[0::2] = -f[0::2], f[1::2]",
        ("tests/test_schemes.py::TestBuild::test_standard_drift_entries",
         "tests/test_schemes.py::TestBuild::test_cqnc_drift_entries"),
    ),
    Mutant(
        "channel-output-sign", "src/forcelimits/linsys.py",
        "return c - d if",
        "return c + d if",
        ("tests/test_linear_detectors.py::test_sensitivity_obeys_the_theorem[1]",
         "tests/test_linear_detectors.py::test_preset_output_field_is_free[standard]"),
    ),
    Mutant(
        "engine-drops-a-channel", "src/forcelimits/noise.py",
        "/ response).T) for ch in model.channels}",
        "/ response).T) for ch in (model.readout,)}",
        ("tests/test_linear_detectors.py::test_sensitivity_obeys_the_theorem[2]",
         "tests/test_schemes.py::TestCqncResidualNoise::test_ancilla_term_matches_floor_exactly"),
    ),
    Mutant(
        "coefficients-not-per-unit-force", "src/forcelimits/noise.py",
        "tuple((channel_output(ch, y, d) / response).T)",
        "tuple(channel_output(ch, y, d).T)",
        ("tests/test_noise.py::test_sensitivity_against_50_digit_oracle[cqnc]",
         "tests/test_noise.py::TestAddedNoise::test_resonant_coefficients"),
    ),
    Mutant(
        "optimal-uql-omega-unit", "src/forcelimits/bounds.py",
        "_unit(omega, params.Omega, params.Gamma)",
        "_unit(params.Omega, params.Gamma)",
        ("tests/test_bounds.py::TestOptimalBound::test_extreme_rates_against_60_digit_arithmetic",),
    ),
    Mutant(
        "chi-mech-unit-from-omega", "src/forcelimits/bounds.py",
        "_unit(omega, params.Omega, params.Gamma)",
        "_unit(params.Omega)",
        ("tests/test_bounds.py::TestUnitRule::test_far_rates_against_40_digit_arithmetic[float-0.0]",
         "tests/test_bounds.py::TestUnitRule::test_far_rates_against_40_digit_arithmetic[array-0.7]"),
    ),
    Mutant(
        "guql-from-im-chi-qq", "src/forcelimits/bounds.py",
        "return (1.0 + q._eta * q._eta) / mag * q._in_unit[3] * (q._uql / mag)",
        "return abs(q.chi_qq.imag) / abs(q.chi_qx) / abs(q.chi_qx)",
        ("tests/test_bounds.py::TestUnitRule::test_far_rates_against_40_digit_arithmetic[float-0.7]",
         "tests/test_bounds.py::TestUnitRule::test_far_rates_against_40_digit_arithmetic[array-0.7]"),
    ),
    Mutant(
        "sql-numpy-abs", "src/forcelimits/bounds.py",
        "np.divide(1.0, abs(self.chi_mech))",
        "np.divide(1.0, np.abs(self.chi_mech))",
        ("tests/test_bounds.py::TestSqlUql::test_float_call_is_one_over_python_abs",),
    ),
    Mutant(
        "sql-from-chi-qq", "src/forcelimits/bounds.py",
        "np.divide(1.0, abs(self.chi_mech))",
        "np.divide(1.0, abs(self.chi_qq))",
        ("tests/test_noise.py::TestBlockedEngine::test_bound_columns_are_the_public_array_calls",),
    ),
    Mutant(
        "grid-chain-without-finite-last-point", "src/forcelimits/noise.py",
        "omegas[0] > 0.0 and omegas[-1] < np.inf and ",
        "omegas[0] > 0.0 and ",
        ("tests/test_noise.py::test_grid_chain_is_the_full_mask_rule",
         "tests/test_noise.py::TestSensitivitySpectrum::test_grid_validation"),
    ),
    Mutant(
        "grid-chain-without-positive-first-point", "src/forcelimits/noise.py",
        "omegas[0] > 0.0 and omegas[-1] < np.inf and ",
        "omegas[-1] < np.inf and ",
        ("tests/test_noise.py::test_grid_chain_is_the_full_mask_rule",),
    ),
    Mutant(
        "combined-k-not-scaled-back", "src/forcelimits/linresp.py",
        "K=k * s,",
        "K=k,",
        ("tests/test_units.py::test_combined_quantities_in_any_unit",),
    ),
    Mutant(
        "unit-a-power-of-two", "src/forcelimits/bounds.py",
        "(lib.frexp(scale)[1] - 1) & ~1",
        "lib.frexp(scale)[1] - 1",
        ("tests/test_units.py::test_combined_normalization_keeps_its_bits",),
    ),
    Mutant(
        "chi-mech-absolute-floor", "src/forcelimits/bounds.py",
        "abs(denom) / (abs(dd) + om2) <= ZERO",
        "abs(denom) * s * s < 1e-300",
        ("tests/test_units.py::test_chi_mech_in_a_tiny_unit",
         "tests/test_bounds.py::TestSusceptibilities::test_resonance_is_relative_to_the_terms"),
    ),
    Mutant(
        "stability-absolute", "src/forcelimits/linsys.py",
        "top <= 0.0 or top <= ZERO * abs(eigenvalues).max()",
        "top <= 1e-12",
        ("tests/test_units.py::test_toy_run_is_stable_in_its_own_unit",
         "tests/test_units.py::test_spectrum_is_unit_covariant"),
    ),
    Mutant(
        "response-absolute-floor", "src/forcelimits/linresp.py",
        "abs(chi_zf_raw) <= ZERO * max(abs(chi_zf_raw), abs(y_perp @ drive))",
        "abs(chi_zf_raw) < 1e-300",
        ("tests/test_units.py::test_blind_quadrature_in_any_unit[-200]",
         "tests/test_cli.py::TestNumericalFailureInProcess"
         "::test_message_is_stated_at_its_site[linresp-unresponsive-output]"),
    ),
    Mutant(
        "detector-coupling-without-mix", "src/forcelimits/linresp.py",
        "q = x + config.coupling_mix * conjugate_drive(x)  # J x is p",
        "q = x",
        ("tests/test_linresp.py::TestSprimeF::test_detector_drift_is_the_uncoupled_build[toy]",),
    ),
    Mutant(
        "invalid-config-not-a-value-error", "src/forcelimits/errors.py",
        "class InvalidConfig(ForceLimitsError, ValueError):",
        "class InvalidConfig(ForceLimitsError):",
        ("tests/test_invalid_input.py::test_rejected_input_is_invalid_config[grid-order]",
         "tests/test_linsys.py::TestStability::test_shape_validation"),
    ),
    Mutant(
        "optimal-uql-gamma-in-the-unit", "src/forcelimits/bounds.py",
        "2.0 * om * params.Gamma * abs(w)",
        "2.0 * gm * params.Omega * abs(w)",
        ("tests/test_bounds.py::TestOptimalBound::test_extreme_rates_against_60_digit_arithmetic",),
    ),
    Mutant(
        "squeeze-without-angle-check", "src/forcelimits/spectra.py",
        "    if not math.isfinite(theta_sq):\n"
        "        raise InvalidConfig(\"squeeze_angle must be finite\")\n"
        "    if not math.isfinite(2.0 * theta_sq):\n"
        "        raise InvalidConfig(f\"2 * squeeze_angle overflows (squeeze_angle = {theta_sq!r})\")\n",
        "",
        ("tests/test_invalid_input.py::test_rejected_input_is_invalid_config[squeeze-angle]",
         "tests/test_cli.py::test_invalid_number_is_a_configuration_error"
         "[flags13-2 * squeeze_angle overflows (squeeze_angle = 1e+308)]"),
    ),
    Mutant(
        "no-near-divergence-redraw", "src/forcelimits/verify.py",
        "        if abs(1.0 - params.g**2 * ca * chi_d) < 1e-3:\n"
        "            continue\n",
        "",
        ("tests/test_verify.py::test_draw_near_parametric_divergence_is_redrawn",),
    ),
    Mutant(
        "draw-box-drops-red-detuning", "src/forcelimits/verify.py",
        '"Delta": (-4.0, 4.0)',
        '"Delta": (0.0, 4.0)',
        ("tests/test_verify.py::test_draw_near_parametric_divergence_is_redrawn",),
    ),
    Mutant(
        "draws-restate-omega-range", "tests/test_units.py",
        'Omega=draw(st.floats(*DRAW_RANGES["Omega"])),',
        "Omega=draw(st.floats(0.05, 3.0)),",
        ("tests/test_draw_ranges.py::test_every_helper_draws_the_pinned_point",),
    ),
    Mutant(
        "init-re-export", "src/forcelimits/__init__.py",
        '"""Quantum-noise force-sensitivity spectra and limit bounds for linear detectors."""\n',
        '"""Quantum-noise force-sensitivity spectra and limit bounds for linear detectors."""\n'
        "\nfrom .noise import sensitivity_spectrum\n",
        ("tests/test_imports.py::test_no_unused_imports[__init__.py]",),
    ),
)


def select(paths: list[str]) -> list[Mutant]:
    """The rows whose file is one of `paths`, every row when there are none.

    A path that no row names raises ValueError.
    """
    files = {Path(p).resolve() for p in paths}
    unknown = files - {(ROOT / m.path).resolve() for m in MUTANTS}
    if unknown:
        raise ValueError(f"no row names {', '.join(sorted(map(str, unknown)))}")
    return [m for m in MUTANTS if not files or (ROOT / m.path).resolve() in files]


def stale(mutant: Mutant) -> bool:
    """True when the row's old text does not occur exactly once in its file."""
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1


def _copy(destination: Path) -> None:
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, destination / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", destination)


#: a failing run whose output names one of these broke the mutated code
#: itself, so it tests no guard
BROKEN = ("NameError", "ImportError", "SyntaxError")


def _pytest(workdir: Path, ids) -> tuple[int, str]:
    """Exit status and combined output of one pytest run of `ids`.

    The bytecode cache sits beside the work directories, so runs after the
    first skip compiling numpy, hypothesis and pytest; each copy's own files
    have their own paths and so their own cache entries.
    """
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONPYCACHEPREFIX=str(workdir.parent / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids]
    run = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout + run.stderr


def _verdict(code: int, output: str) -> str:
    if code == 1 and any(name in output for name in BROKEN):
        return "ERROR"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")


def main(paths: list[str]) -> int:
    try:
        rows = select(paths)
    except ValueError as exc:
        print(f"ERROR     {exc}")
        return 1
    stale_rows = [m for m in rows if stale(m)]
    for mutant in stale_rows:
        print(f"STALE     {mutant.name}: old text not found exactly once in {mutant.path}")
    if stale_rows:
        return 1

    killed = survived = errors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy(baseline)
        if _pytest(baseline, dict.fromkeys(i for m in rows for i in m.killers))[0] != 0:
            print("ERROR     the listed ids do not all pass unmutated")
            return 1
        for k, mutant in enumerate(rows):
            workdir = Path(tmp) / f"mutant-{k}"
            _copy(workdir)
            target = workdir / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                              encoding="utf-8")
            for test in mutant.killers:
                verdict = _verdict(*_pytest(workdir, [test]))
                print(f"{verdict:<9} {mutant.name}: {test}", flush=True)
                killed += verdict == "killed"
                survived += verdict == "SURVIVED"
                errors += verdict.startswith("ERROR")
            shutil.rmtree(workdir)
    print(f"{len(rows)} rows, {killed + survived + errors} runs: "
          f"{killed} killed, {survived} survived, {errors} errors")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import parse_csv

from forcelimits import bounds, cli, errors, linresp, linsys, noise, presets
from forcelimits.schemes import DetectorParams, build, closed_form_transfer
from forcelimits.spectra import vacuum


#: SHA-256 of the default spectrum and the fig2a/fig2b CSVs, as the benchmark recorded
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "reference.json"


def run_cli(*args):
    """`python -m forcelimits args` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "forcelimits", *args], capture_output=True, text=True,
    )


def main_in_process(capsys, *args):
    """cli.main(args) in this interpreter, with its exit code and output as run_cli gives them."""
    capsys.readouterr()
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def written(*values):
    """Each value as the CSV writer prints it: one row per value, the value in every column."""
    column = np.array(values, dtype=float)
    buffer = io.StringIO()
    cli.write_spectrum_csv(noise.SensitivitySpectrum(*[column] * 6), buffer, {})
    rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
    assert all(row == row[:1] * 6 for row in rows)
    return [row[0] for row in rows]


class TestFmt12:
    # the 12-digit rule, through the CSV writer
    def test_twelve_significant_digits(self):
        assert written(3.14159265358979, 0.001234567890123, 99999.1234567) == [
            "3.14159265359", "0.00123456789012", "99999.1234567"]

    def test_scientific_threshold(self):
        assert "e" not in written(999999.0)[0]
        assert written(1234567.0) == ["1.23456700000e+06"]
        assert "e" not in written(1.234e-5)[0]
        assert written(1.234e-6) == ["1.23400000000e-06"]
        assert written(-2.5e8) == ["-2.50000000000e+08"]

    def test_zero(self):
        assert written(0.0, -0.0) == ["0", "0"]

    @given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    def test_matches_decimal_oracle(self, value):
        assert written(value) == [twelve_digits(value)]

    def test_decade_carry(self):
        assert written(999999.9999999, 0.99999999999995) == ["1.00000000000e+06", "1.00000000000"]
        values = []
        for decade in range(-320, 308):
            # below this point 12 digits round down within the decade, from it up
            carry = float(Decimal(10) ** (decade + 1) * (1 - Decimal("5e-13")))
            values += [signed for value in (carry, *neighbours(carry, 3))
                       for signed in (value, -value)]
        assert written(*values) == [twelve_digits(v) for v in values]

    def test_block_writer_matches_decimal_oracle(self):
        # 600 rows cross the writer's block edges at 256 and 512; every
        # non-omega column mixes near-decade values with ordinary ones
        rng = np.random.default_rng(9)
        special = [0.0, -0.0, 5e-324, 2.2e-310, 1e-315, np.nextafter(0.0, 1.0) * 7,
                   1e6, 999999.5, 1.0000001e6, 1e-6, 9.99999e-7, 1.5e-6, 1e-3, 10.0]
        for decade in range(-12, 12):
            carry = float(Decimal(10) ** (decade + 1) * (1 - Decimal("5e-13")))
            special += [carry, *neighbours(carry, 2), 10.0 ** decade,
                        *neighbours(10.0 ** decade, 2)]
        rows = 600
        ordinary = rng.standard_normal(5 * rows) * 10.0 ** rng.uniform(-9, 9, 5 * rows)
        values = np.concatenate([special, ordinary[len(special):]])
        values = rng.permutation(values * rng.choice([-1.0, 1.0], values.size))
        spectrum = noise.SensitivitySpectrum(
            np.geomspace(1e-3, 10.0, rows), *values.reshape(5, rows)
        )
        buffer = io.StringIO()
        cli.write_spectrum_csv(spectrum, buffer, {})
        lines = buffer.getvalue().splitlines()
        assert len(lines) == rows + 1
        table = np.column_stack([spectrum.omegas, values.reshape(5, rows).T])
        for line, row in zip(lines[1:], table):
            expected = [twelve_digits(v) if v != 0.0 else "0" for v in row.tolist()]
            assert line.split(",") == expected

    @pytest.mark.parametrize("value, text", [
        (123456789012.5, "1.23456789012e+11"),
        (123456789013.5, "1.23456789014e+11"),
        (123456.0078125, "123456.007812"),
        (123456.0234375, "123456.023438"),
    ])
    def test_exact_tie_rounds_to_even(self, value, text):
        assert written(value, -value) == [text, "-" + text]
        assert [twelve_digits(value), twelve_digits(-value)] == [text, "-" + text]

    def test_edge_of_the_integer_path(self):
        # the integer path covers decimal exponents up to 99 in magnitude
        carry = 9.999999999995002e99  # the least float that rounds up to 1e100
        values = [1e99, 9.99999999999e99, carry, *neighbours(carry, 2), 9.999999999998e99,
                  1e100, 1e-99, 9.99999999999e-100, 1e-100]
        values += [-v for v in values]
        assert written(carry, 9.999999999998e99) == ["1.00000000000e+100"] * 2
        assert written(*values) == [twelve_digits(v) for v in values]

    def test_not_finite(self):
        assert written(np.nan, -np.nan, np.inf, -np.inf) == ["nan", "nan", "inf", "-inf"]

    def test_every_template(self, monkeypatch):
        # for every exponent and sign: the decade's first float, the first and
        # the last float on the integer path and one mid-decade value, each once
        # in every column, so that every exponent's field ends in "," and in "\n"
        scalar = []
        monkeypatch.setattr(cli, "_scalar", lambda v, f=cli._scalar: scalar.append(v) or f(v))
        firsts, windows = [], []
        for e in range(-99, 100):
            first = float(Decimal(10) ** e)
            firsts.append(first if first >= Decimal(10) ** e else float(np.nextafter(first, 1)))
            # the integer path's edges are within a few floats of these
            low = float(Decimal(10) ** e * (1 + Decimal("1.01e-14")))
            high = float(Decimal(10) ** (e + 1) * (1 - Decimal("5.01e-13")))
            windows += [sorted([low, *neighbours(low, 12)]),
                        sorted([high, *neighbours(high, 12)], reverse=True)]
        written(*[v for window in windows for v in window])
        on_scalar = set(scalar)
        edges = []
        for window in windows:
            # from outside the integer path to its last float
            assert window[0] in on_scalar and window[-1] not in on_scalar
            edges.append(next(v for v in window if v not in on_scalar))
        mids = [float(Decimal("1.23456789012345") * Decimal(10) ** e) for e in range(-99, 100)]
        values = [v for quad in zip(firsts, edges[::2], mids, edges[1::2]) for v in quad]
        values += [-v for v in values]

        scalar.clear()
        ends = [np.nan, -np.inf, 0.0, 1e-100]
        table = np.array([np.roll(values, -k) for k in range(6)]).T
        table = np.vstack([table, [[*mids[:5], end] for end in ends]])
        buffer = io.StringIO()
        cli.write_spectrum_csv(noise.SensitivitySpectrum(*table.T), buffer, {})
        lines = buffer.getvalue().split("\n")
        assert lines[-1] == "" and len(lines) == len(table) + 2
        expected = [["%.11e" % v if not math.isfinite(v) else twelve_digits(v) if v else "0"
                     for v in row] for row in table.tolist()]
        assert [line.split(",") for line in lines[1:-1]] == expected
        # only each decade's first float and the row ends took the _scalar path
        assert sorted(map(repr, scalar)) == sorted(map(repr, 6 * values[::4] + ends))

    @settings(derandomize=True, max_examples=400)
    @given(st.integers(0, 2**64 - 1))
    @example(1)                        # the smallest subnormal
    @example(0x000FFFFFFFFFFFFF)       # the largest subnormal
    @example(0x8000000000000001)
    @example(0x8000000000000000)       # -0.0
    @example(0x7FF8000000000001)       # a nan with a payload
    @example(0xFFF0000000000000)       # -inf
    def test_any_bit_pattern(self, bits):
        value = float(np.uint64(bits).view(np.float64))
        if not math.isfinite(value):
            expected = "%.11e" % value
        else:
            expected = twelve_digits(value) if value else "0"
        assert written(value) == [expected]


def twelve_digits(value):
    """The 12-digit rule from exact decimal arithmetic, rounding half to even."""
    exact = Decimal(value)
    mantissa, _, exponent = f"{exact:.11e}".partition("e")
    if abs(int(exponent)) >= 6:
        return f"{mantissa}e{int(exponent):+03d}"
    return f"{exact:.{11 - int(exponent)}f}"


def neighbours(value, count):
    """The `count` floats on either side of `value`."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return [float(v) for v in below[1:] + above[1:] if v != 0.0]


class TestSpectrumCommand:
    def test_default_run_writes_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        result = run_cli(
            "spectrum", "--scheme", "standard", "--Omega", "0.01", "--Gamma", "0.01",
            "--gamma", "3", "--g", "-10", "--Delta", "0", "--phi", "0",
            "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        assert "\r" not in text
        header, data = parse_csv(text)
        assert header == ["omega", "s_f", "sql", "uql", "guql", "opt_uql"]
        assert data.shape == (400, 6)
        # spot-check the dominance ordering the data should show
        assert np.all(data[:, 1] >= data[:, 3] * (1 - 1e-9))

    def test_deterministic_output(self, capsys):
        args = (
            "spectrum", "--scheme", "toy", "--eta", "1", "--Omega", "1",
            "--Gamma", "1", "--gamma", "100", "--g", "5", "--phi", "0",
            "--points", "50",
        )
        first = main_in_process(capsys, *args)
        second = main_in_process(capsys, *args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_single_point_grid_rejected(self, capsys):
        result = main_in_process(capsys, "spectrum", "--points", "1")
        assert result.returncode == 2

    def test_unstable_model_exit_code(self):
        result = run_cli(
            "spectrum", "--scheme", "standard", "--Omega", "0.01", "--Gamma", "0.01",
            "--gamma", "3", "--g", "-10", "--Delta", "2.3",
        )
        assert result.returncode == 3
        assert "unstable" in result.stderr.lower()
        assert "Traceback" not in result.stderr

    def test_numerical_failure_exit_code(self, capsys):
        # zero coupling makes the force invisible at the readout
        result = main_in_process(
            capsys,
            "spectrum", "--scheme", "standard", "--Omega", "1", "--Gamma", "0",
            "--g", "0", "--omega-min", "0.5", "--omega-max", "2", "--points", "4",
            "--spacing", "linear",
        )
        assert result.returncode == 4
        assert "omega" in result.stderr

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        result = main_in_process(
            capsys,
            "spectrum", "--scheme", "standard", "--Omega", "0.02", "--gamma", "2.5",
            "--g", "-3", "--phi", "0.2", "--points", "40",
            "--dump-config", str(cfg), "--output", str(first),
        )
        assert result.returncode == 0, result.stderr
        assert cfg.exists()
        result = main_in_process(capsys, "spectrum", "--config", str(cfg),
                                 "--output", str(second))
        assert result.returncode == 0, result.stderr
        assert first.read_bytes() == second.read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[scheme]\nvariant = standard\nOmega = 0.02\ngamma = 2.5\ng = -3\n"
            "[grid]\npoints = 40\n"
        )
        base = main_in_process(capsys, "spectrum", "--config", str(cfg))
        override = main_in_process(capsys, "spectrum", "--config", str(cfg), "--points", "25")
        assert base.returncode == override.returncode == 0
        assert len(parse_csv(base.stdout)[1]) == 40
        assert len(parse_csv(override.stdout)[1]) == 25

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "broken.cfg"
        # a value is read as written: a %(key)s reference is no number either
        for text in ["[scheme]\nOmega = not-a-number\n", "[scheme]\nOmega = 2\ng = %(Omega)s\n"]:
            cfg.write_text(text)
            result = main_in_process(capsys, "spectrum", "--config", str(cfg))
            assert result.returncode == 2
            assert result.stderr.startswith(
                f"configuration error: bad value in config file {str(cfg)!r}: ")
        # --spacing takes only its choices; a file's spacing meets the grid's own check
        cfg.write_text("[grid]\nspacing = cubic\n")
        result = main_in_process(capsys, "spectrum", "--config", str(cfg))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "configuration error: spacing must be 'linear' or 'log'\n"
        missing = tmp_path / "nope.cfg"
        assert main_in_process(capsys, "spectrum", "--config", str(missing)).returncode == 2

    def test_metadata_comment_lines(self, capsys):
        result = main_in_process(capsys, "spectrum", "--points", "10")
        assert result.returncode == 0
        comments = [ln for ln in result.stdout.splitlines() if ln.startswith("# ")]
        assert any(ln.startswith("# variant = ") for ln in comments)
        assert any(ln.startswith("# points = ") for ln in comments)


DEFAULT_CONFIG = """\
[scheme]
variant = standard
Omega = 0.01
Gamma = 0.01
gamma = 3.0
Delta = 0.0
g = -10.0
phi = 0.0
eta = 1.0
squeeze = 0.0
squeeze_angle = 0.0
n_th = 0.0

[grid]
omega_min = 0.001
omega_max = 10.0
points = 400
spacing = log

"""


class TestRunKeys:
    def test_default_dump_config(self, tmp_path):
        dump = tmp_path / "default.cfg"
        assert cli.main(["spectrum", "--dump-config", str(dump),
                         "--output", str(tmp_path / "spectrum.csv")]) == 0
        assert dump.read_text(encoding="utf-8") == DEFAULT_CONFIG

    def test_default_run_is_the_fig2a_standard_curve(self, tmp_path):
        assert cli.main(["spectrum", "--output", str(tmp_path / "spectrum.csv")]) == 0
        assert cli.main(["fig2a", "--outdir", str(tmp_path)]) == 0

        def data_rows(name):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            return [ln for ln in lines if not ln.startswith("#")]

        assert data_rows("spectrum.csv") == data_rows("fig2a_standard.csv")

    def test_file_variant_recorded_in_lower_case(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[scheme]\nvariant = Toy\n[grid]\npoints = 7\n", encoding="utf-8")
        dump, first, second = tmp_path / "dump.cfg", tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["spectrum", "--config", str(cfg), "--dump-config", str(dump),
                         "--output", str(first)]) == 0
        assert "# variant = toy\n" in first.read_text(encoding="utf-8")
        assert "variant = toy\n" in dump.read_text(encoding="utf-8")
        assert cli.main(["spectrum", "--config", str(dump), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_file_variant(self, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("[scheme]\nvariant = bogus\n", encoding="utf-8")
        assert cli.main(["spectrum", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: unknown variant 'bogus'\n"

    # DEFAULT is no section that others inherit from, but one more unknown one
    @pytest.mark.parametrize("content, section", [
        ("[grids]\npoints = 5\n", "grids"),
        ("[DEFAULT]\nOmega = 5\n", "DEFAULT"),
    ], ids=["grids", "DEFAULT"])
    def test_unknown_file_section(self, tmp_path, capsys, content, section):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(content, encoding="utf-8")
        assert cli.main(["spectrum", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: unknown config section {section!r}\n"

    @pytest.mark.parametrize("content, message", [
        (b"[scheme]\nvariant = \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"points = 3\n", "File contains no section headers. file: "),
        (b"[grid]\n= 3\n", "Source contains parsing errors: "),
        # `=` is the one delimiter and `#` the one comment prefix
        (b"[scheme]\ng: 1\n", "Source contains parsing errors: "),
        (b"[scheme]\n; note\n", "Source contains parsing errors: "),
    ], ids=["not-utf-8", "no-section-header", "no-key", "colon", "semicolon"])
    def test_unreadable_file_is_one_line(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        assert cli.main(["spectrum", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"configuration error: cannot read config file {str(cfg)!r}: {message}"
        )
        assert captured.err.count("\n") == 1


def _standard(**params):
    """The fig2a standard scheme, `params` replacing its DetectorParams fields."""
    config = presets.fig2a_configs()["standard"]
    return replace(config, params=replace(config.params, **params))


def _detector(**fields):
    """A GenericDetector with generic susceptibilities, `fields` replacing any field."""
    base = dict(omega=1.0, chi_FF=0.0, S_FF=0.5, S_ZZ=0.5, S_ZF=0.0,
                chi_qq=0.3 + 0.4j, chi_qx=0.3 + 0.4j, g=1.0)
    return linresp.GenericDetector(**{**base, **fields})


def _divergent_loop():
    # at omega = 0 every susceptibility is real, so 1 - g^2 chi_a chi_d is
    # tuned to zero exactly
    p = DetectorParams(Omega=1.0, Gamma=1.0, gamma=2.0, Delta=1.0)
    chi_a0 = p.Omega / (p.Gamma**2 / 4 + p.Omega**2)
    chi_d0 = p.Delta / (p.gamma**2 / 4 + p.Delta**2)
    return closed_form_transfer(replace(p, g=1.0 / math.sqrt(chi_a0 * chi_d0)), 0.0)


def _overflowing_solve():
    # well conditioned, but the right-hand side overflows the solve
    model = build(_standard())
    b = 1e308 * linsys.readout_drive(model, np.array([0.0, 1.0]))
    return linsys.adjoint_response(model, np.array([1.0, 2.0]), b)


#: every raise site of a NumericalFailure, each reached through a public call:
#: the call, its exact message and the omega it names (None: no frequency)
FAILURE_SITES = [
    pytest.param(
        lambda: linsys.transfer(build(_standard(Omega=1.0, Gamma=0.0, g=0.5)),
                                np.array([0.5, 1.0, 1.5])),
        "system matrix singular at omega = 1.0", 1.0, id="linsys-singular"),
    pytest.param(
        _overflowing_solve, "non-finite transfer entries at omega = 1.0", 1.0,
        id="linsys-non-finite"),
    pytest.param(
        lambda: noise.sensitivity_spectrum(_standard(g=0.0), np.array([0.2, 0.3])),
        "force invisible at readout, omega = 0.2", 0.2, id="noise-force-invisible"),
    pytest.param(
        lambda: noise.sensitivity_spectrum(_standard(), np.array([1.0, 1e60])),
        "non-finite S_f or bound value at omega = 1e+60", 1e60, id="noise-non-finite"),
    pytest.param(
        _divergent_loop, "parametric divergence at omega = 0.0", 0.0,
        id="schemes-parametric-divergence"),
    pytest.param(
        lambda: bounds.chi_mech(_standard(Omega=1.0, Gamma=0.0).params, np.array([0.5, 1.0])),
        "undamped oscillator driven on resonance at omega = 1.0", 1.0,
        id="bounds-undamped-resonance"),
    pytest.param(  # at omega = 0, eta = -2 Omega / Gamma decouples q from x
        lambda: bounds.generalized_uql(
            bounds.coupling_susceptibilities(_standard(Omega=1.0, Gamma=1.0).params, -2.0, 0.0)),
        "chi_qx vanished at omega = 0.0", 0.0, id="bounds-chi-qx-vanished"),
    pytest.param(
        lambda: linresp.combined_quantities(_standard(g=0.0).params, 0.2, 0.0, vacuum()),
        "readout normalization C vanished at omega = 0.2", 0.2, id="linresp-C-vanished"),
    pytest.param(  # the amplitude quadrature at Delta = 0 is blind to the input
        lambda: linresp.extract_detector(replace(_standard(), readout_angle=math.pi / 2), 0.2),
        "output does not respond to the input operator at omega = 0.2", 0.2,
        id="linresp-unresponsive-output"),
    pytest.param(  # S_ZZ grows as omega^4 and overflows
        lambda: linresp.extract_detector(_standard(), 1e290),
        "non-finite detector spectra at omega = 1e+290", 1e290,
        id="linresp-non-finite-spectra"),
    pytest.param(
        lambda: linresp.feedback_added_noise(_detector(), 1.0, omega=0.0),
        "feedback transform undefined at omega = 0.0", 0.0,
        id="linresp-zero-frequency-feedback"),
    pytest.param(
        lambda: linresp.sprime_f(_detector(g=0.0)),
        "added noise is undefined at g = 0", None, id="linresp-sprime-zero-coupling"),
    pytest.param(
        lambda: linresp.feedback_added_noise(_detector(g=0.0), 1.0),
        "added noise is undefined at g = 0", None, id="linresp-feedback-zero-coupling"),
    pytest.param(
        lambda: linresp.feedback_added_noise(_detector(chi_qx=0.0), 1.0),
        "output carries no force signal", None, id="linresp-no-force-signal"),
]


class TestNumericalFailureInProcess:
    # the first failure in grid order is reported, with a plain float
    @pytest.mark.parametrize(
        "g, message",
        [
            ("0", "force invisible at readout, omega = 0.5"),
            ("0.5", "system matrix singular at omega = 1.0"),
        ],
    )
    def test_first_failing_frequency(self, capsys, g, message):
        code = cli.main([
            "spectrum", "--Omega", "1", "--Gamma", "0", "--g", g,
            "--omega-min", "0.5", "--omega-max", "2", "--points", "4",
            "--spacing", "linear",
        ])
        assert code == 4
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    def test_force_blind_readout(self, capsys):
        # the amplitude quadrature at Delta = 0 carries no force signal
        code = cli.main([
            "spectrum", "--phi", "1.5707963267948966", "--omega-max", "0.02",
            "--points", "5",
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: force invisible at readout, omega = 0.001\n"
        )

    @pytest.mark.parametrize("call, message, omega", FAILURE_SITES)
    def test_message_is_stated_at_its_site(self, call, message, omega):
        with np.errstate(all="ignore"), pytest.raises(errors.NumericalFailure) as info:
            call()
        assert str(info.value) == message
        if omega is None:
            assert type(info.value) is errors.NumericalFailure
        else:
            assert type(info.value) is errors.FailureAtFrequency
            assert info.value.omega == omega

    def test_locator_raises_at_the_first_flagged_frequency(self):
        locate = errors.FailureAtFrequency.at_first
        locate(0.5, False, "custom at")
        locate(np.array([0.5, 1.0]), np.zeros(2, dtype=bool), "custom at")
        with pytest.raises(errors.FailureAtFrequency) as info:
            locate(np.array([0.5, 1.0, 2.0]), np.array([False, True, True]), "custom at")
        assert info.value.omega == 1.0
        # a scalar frequency broadcasts against an array mask
        with pytest.raises(errors.FailureAtFrequency, match=r"^custom at omega = 0\.25$"):
            locate(0.25, np.array([False, True]), "custom at")

    @pytest.mark.parametrize("flags, message", [
        (["--omega-max", "1e60"], "non-finite S_f or bound value at omega = 1e+60"),
        (["--gamma", "1e308"], "system matrix singular at omega = 0.001"),
    ])
    def test_overflow_is_one_line(self, flags, message):
        # an overflowing S_f is a failure at its frequency, and no overflow
        # warning reaches stderr
        assert run_main(["spectrum", "--points", "3", *flags]) == (
            4, f"numerical failure: {message}\n"
        )

    def test_bound_column_failure(self, capsys):
        # S_f is finite at omega = 1, but the undamped chi_mech of the bound
        # columns is singular there
        code = cli.main([
            "spectrum", "--Omega", "1", "--Gamma", "0", "--gamma", "3", "--g", "0.5",
            "--Delta", "1", "--omega-min", "0.5", "--omega-max", "1.5",
            "--points", "3", "--spacing", "linear",
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: undamped oscillator driven on resonance at omega = 1.0\n"
        )

    def test_vanishing_cross_susceptibility(self, capsys, monkeypatch):
        # the S_f path fails first wherever chi_qx vanishes on a positive grid,
        # so the bound column's own error is raised by hand
        error = errors.FailureAtFrequency(0.25, "chi_qx vanished at")

        def fail(config, grid):
            raise error

        monkeypatch.setattr(cli.noise, "sensitivity_spectrum", fail)
        assert cli.main(["spectrum", "--points", "3"]) == 4
        assert capsys.readouterr().err == f"numerical failure: {error}\n"

    @pytest.mark.parametrize("error", [
        errors.NumericalFailure("output carries no force signal"),
        errors.FailureAtFrequency(0.25, "output does not respond to the input operator at"),
        errors.FailureAtFrequency(0.0, "feedback transform undefined at"),
    ], ids=["no-force-signal", "unresponsive-output", "zero-frequency-feedback"])
    def test_linresp_failures_exit_4(self, capsys, monkeypatch, error):
        # each is a NumericalFailure, which main maps to exit 4
        def fail(config, grid):
            raise error

        monkeypatch.setattr(cli.noise, "sensitivity_spectrum", fail)
        assert cli.main(["spectrum", "--points", "3"]) == 4
        assert capsys.readouterr().err == f"numerical failure: {error}\n"


@pytest.mark.parametrize("flags, message", [
    (["--omega-max", "inf"], "omega_max must be finite"),
    (["--g", "nan"], "g must be finite"),
    (["--g", "inf"], "g must be finite"),
    (["--Gamma", "inf"], "Gamma must be finite"),
    (["--eta", "nan", "--scheme", "toy"], "readout angle and eta must be finite"),
    (["--phi", "nan"], "readout angle and eta must be finite"),
    (["--squeeze", "nan"], "squeeze = nan gives no valid input state"),
    (["--squeeze", "400"], "squeeze = 400.0 gives no valid input state"),
    (["--squeeze", "1", "--squeeze-angle", "inf"], "squeeze_angle must be finite"),
    (["--n-th", "nan"], "n_th must be finite"),
    # the grid generated from valid bounds is checked where every grid is
    (["--omega-min", "1", "--omega-max", "1.0000000000000002", "--points", "10"],
     "grid must be finite, strictly increasing and positive, got 1.0 then 1.0"),
    (["--omega-min", "1", "--omega-max", "1.0000000000000002", "--points", "10",
      "--spacing", "linear"],
     "grid must be finite, strictly increasing and positive, got 1.0 then 1.0"),
    (["--scheme", "toy", "--eta", "1e308"], "g * eta overflows (g = -10.0, eta = 1e+308)"),
    (["--squeeze", "1", "--squeeze-angle", "1e308"],
     "2 * squeeze_angle overflows (squeeze_angle = 1e+308)"),
    # u*v and w^2 both overflow: their NaN difference fails the Heisenberg check
    (["--squeeze", "200", "--squeeze-angle", "0.3"],
     "squeeze = 200.0 gives no valid input state: spectrum violates u*v - w^2 >= 1/4"),
    # each grid key is checked before its grid is built: np.geomspace raises on a zero
    # end point, and 10**7 + 1 points are refused before the (unstable) model is reached
    (["--omega-min", "0"], "omega_min must be positive"),
    (["--omega-max", "0.0005"], "omega_max must exceed omega_min"),
    (["--points", "10000001", "--Delta", "2.3"], "points must lie in [2, 10000000]"),
])
def test_invalid_number_is_a_configuration_error(capsys, flags, message):
    code = cli.main(["spectrum", "--points", "3", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("flag, value", [("--Om", "0.5"), ("--out", "out.csv")])
def test_abbreviated_flag_is_a_usage_error(tmp_path, monkeypatch, flag, value):
    # a flag is named in full: --Om is not --Omega, nor --out --output
    monkeypatch.chdir(tmp_path)
    code, err = run_main(["spectrum", "--points", "3", flag, value])
    assert (code, err) == (2, f"forcelimits: error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("argv, path", [
    (["spectrum", "--points", "3", "--output", "/nonexistent/x.csv"], "/nonexistent/x.csv"),
    (["spectrum", "--points", "3", "--dump-config", "/nonexistent/x.ini"],
     "/nonexistent/x.ini"),
    (["fig2b", "--outdir", "/dev/null/x"], "/dev/null/x/fig2b_toy.csv"),
    # opens, then fails to write
    pytest.param(["spectrum", "--points", "3", "--output", "/dev/full"], "/dev/full",
                 marks=pytest.mark.skipif(not Path("/dev/full").exists(),
                                          reason="no /dev/full")),
], ids=["output", "dump-config", "outdir", "full-device"])
def test_unwritable_output_is_a_configuration_error(capsys, argv, path):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write {path!r}: ")
    assert captured.err.count("\n") == 1


class _ClosedPipe:
    """A stdout whose reader has gone; its descriptor is a real one, `fd`."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path):
    # the rest of stdout goes to devnull, so the flush at exit cannot fail
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert cli.main(["spectrum", "--points", "3"]) == 0
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_quietly():
    # `forcelimits spectrum --points 2000 | head -1`: the rows overflow the
    # pipe's buffer, so the process is still writing when the reader closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "forcelimits", "spectrum", "--points", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"# variant = standard\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def run_main(argv):
    """cli.main in process: its exit code and its stderr, each warning one more line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught
    )


RUN_KEYS = [key for section in cli._DEFAULTS.values() for key in section]

NUMERIC_FLAGS = tuple(
    key for section in cli._DEFAULTS.values() for key, value in section.items()
    if type(value) is float
)

EDGE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, -1.0, -1e-3, 0.0]


def any_float(rng: random.Random) -> float:
    """A double of any bit pattern."""
    return float(np.frombuffer(rng.randbytes(8))[0])


def junk_flags(rng: random.Random) -> list[str]:
    """spectrum argv: a scheme, a spacing, 1 to 5 points and up to four numeric flags,
    each an edge value or, as often, any float; all joined to their flag by "=" or all
    given as the next token."""
    argv = ["spectrum", f"--scheme={rng.choice(['standard', 'cqnc', 'toy'])}",
            f"--spacing={rng.choice(['linear', 'log'])}", f"--points={rng.randint(1, 5)}"]
    joined = rng.random() < 0.5
    for key in rng.sample(NUMERIC_FLAGS, rng.randint(0, 4)):
        value = rng.choice(EDGE_VALUES) if rng.random() < 0.5 else any_float(rng)
        flag = f"--{key.replace('_', '-')}"
        argv += [f"{flag}={value!r}"] if joined else [flag, repr(value)]
    return argv


@given(argv=st.randoms(use_true_random=False).map(junk_flags))
@example(argv=["spectrum", "--scheme=toy", "--spacing=log", "--points=5", "--eta=1e+308"])
@example(argv=["spectrum", "--scheme=standard", "--spacing=log", "--points=3",
               "--omega-max=1e+60"])
@example(argv=["spectrum", "--scheme=standard", "--spacing=log", "--points=3",
               "--gamma=1e+308"])
# a negative value in exponent notation, as --dump-config writes it, after its flag
@example(argv=["spectrum", "--scheme=standard", "--spacing=log", "--points=3", "--g", "-1e-05"])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_spectrum_ends_in_csv_or_one_line(argv):
    # any numbers, each joined to its flag by "=" or the next token, end in a
    # finite CSV or one stderr line with exit 2, 3 or 4, and the dumped
    # configuration reproduces the run
    points = int(argv[3].removeprefix("--points="))
    with tempfile.TemporaryDirectory() as tmp:
        dump, first, second = (Path(tmp) / name for name in ("run.cfg", "a.csv", "b.csv"))
        code, err = run_main([*argv, "--dump-config", str(dump), "--output", str(first)])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert "Traceback" not in err
        else:
            assert err == ""
            _, data = parse_csv(first.read_text(encoding="utf-8"))
            assert data.shape == (points, 6) and np.isfinite(data).all()
        rerun = run_main(["spectrum", "--config", str(dump), "--output", str(second)])
        assert rerun == (code, err)
        assert code or second.read_bytes() == first.read_bytes()


def test_junk_flags_reach_the_model_and_the_csv():
    # most junk_flags argvs end in a check of their values, but enough run the
    # model and write a CSV: 200 argvs from seed 0 ended check 140, model 17 and
    # csv 43
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as tmp:
        output = ["--output", str(Path(tmp) / "out.csv")]
        stages = Counter(end_stage(*run_main([*junk_flags(rng), *output])) for _ in range(200))
    assert stages["csv"] >= 30 and stages["model"] >= 10, stages


#: what junk_config draws from; an entry listed n times is drawn n times as often
CONFIG_WORDS = ["standard", "cqnc", "toy", "Toy", "linear", "log", "", "%"]
#: `=` is the one delimiter: a `:` pair is a parse error, and one pair in twenty has it
CONFIG_DELIMITERS = ["=", " = "] * 19 + [":", " : "]
#: `; comment` is a parse error too, like a header without its `]` and a pair without a key
CONFIG_ODD_LINES = ["", "# comment"] * 3 + ["[scheme", "= 3", "; comment"]
CONFIG_SECTION_NAMES = ["scheme", "grid"] * 3 + ["Grid"]
#: free text: the dialect's characters, line breaks that str.splitlines knows, and others
CONFIG_CHARS = "ag09.-+e =:;#%[]\t\r\x0b\x0c\x1c\x85\u2028\x00\xe9"


def plain_scheme(rng: random.Random) -> bytes:
    """A [scheme] section of in-range values: positive rates, a signed coupling and, for
    the standard model only, a detuning; cqnc and toy reject one.  Half the sections are
    standard, and its blue detunings are unstable."""
    variant = rng.choice(["standard", "standard", "cqnc", "toy"])
    pairs = {k: 10 ** rng.uniform(-2, 2) for k in ("Omega", "Gamma", "gamma")}
    pairs["g"] = rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 2)
    if variant == "standard":
        pairs["Delta"] = pairs["Omega"] * rng.uniform(-2, 2)
    lines = ["[scheme]", f"variant = {variant}", *(f"{k} = {v!r}" for k, v in pairs.items())]
    return "\n".join(lines).encode("utf-8")


def junk_config(rng: random.Random) -> bytes:
    """One file in four a plain_scheme, which reaches the model.  Otherwise a config file
    of up to three sections of up to six lines each, and one time in eight a few random
    bytes set anywhere in it.  Most lines are pairs of the section's own keys, each once,
    with values of every kind; the rest are comments, odd lines and continuation lines of
    free text."""
    if rng.randrange(4) == 0:
        return plain_scheme(rng)

    def text(most, least=0):
        return "".join(rng.choices(CONFIG_CHARS, k=rng.randint(least, most)))

    def value():
        return [
            lambda: str(rng.randint(-3, 40)),
            lambda: rng.choice(CONFIG_WORDS),
            lambda: repr(rng.choice(EDGE_VALUES)),
            lambda: repr(any_float(rng)),
            lambda: text(8),
        ][rng.randrange(5)]()

    def line(own):
        kind = rng.randrange(20)
        if kind < 17:  # a key twice is a parse error, and one of another section unknown
            mine = own and rng.randrange(10) < 9
            key = own.pop() if mine else rng.choice(RUN_KEYS + [text(6, 1)])
            return f"{key}{rng.choice(CONFIG_DELIMITERS)}{value()}"
        return " " + text(8) if kind == 17 else rng.choice(CONFIG_ODD_LINES)

    sections: dict[str, list[str]] = {}
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(CONFIG_SECTION_NAMES) if rng.randrange(5) < 4 else text(6, 1)
        own = list(cli._DEFAULTS.get(name, RUN_KEYS))
        rng.shuffle(own)
        sections.setdefault(name, [line(own) for _ in range(rng.randint(0, 6))])
    lines = [line for name, body in sections.items() for line in (f"[{name}]", *body)]
    content = "\n".join(lines).encode("utf-8")
    at = rng.randint(0, 200)
    junk = b"" if rng.randrange(8) < 7 else rng.randbytes(rng.randint(1, 3))
    return content[:at] + junk + content[at:]


def run_config(content: bytes) -> tuple[int, str, str]:
    """cli.main on a --config file of `content`: its exit code, stderr and CSV text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out.csv"
        cfg.write_bytes(content)
        code, err = run_main(["spectrum", "--config", str(cfg), "--output", str(out)])
        return code, err, out.read_text(encoding="utf-8") if out.exists() else ""


@given(content=st.randoms(use_true_random=False).map(junk_config))
@example(content=b"[scheme]\nvariant = cqnc\n[grid]\npoints = 3")
@example(content=b"[grid]\npo\xffints = 3")
@example(content=b"[scheme]\ng = 1\n 2")
@settings(max_examples=100, deadline=None, derandomize=True)
def test_config_file_ends_in_csv_or_one_line(content):
    # a --config file of junk ends like any flags do: a finite CSV with exit 0,
    # or one stderr line with exit 2, 3 or 4
    code, err, csv = run_config(content)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
    else:
        assert err == ""
        _, data = parse_csv(csv)
        assert data.ndim == 2 and data.shape[1] == 6 and np.isfinite(data).all()


def end_stage(code: int, err: str) -> str:
    """Where a spectrum run ended: in the config reader's parse, name or value stage, in a
    check of the run (any other exit 2), in the model (exit 3 or 4) or in a CSV (exit 0)."""
    stages = {"cannot read config file": "parse", "unknown config section": "name",
              "unknown scheme key": "name", "unknown grid key": "name",
              "bad value in config file": "value"}
    for message, stage in stages.items():
        if err.startswith(f"configuration error: {message}"):
            return stage
    return {0: "csv", 2: "check"}.get(code, "model")


def test_junk_config_reaches_past_the_parser():
    # junk_config's files reach the value stage, the model and the CSV, not only the
    # parse error that a `:` or `;` line gives: 200 files from seed 0 ended parse 74,
    # name 18, value 20, check 3, model 12 and csv 73
    rng = random.Random(0)
    stages = Counter(end_stage(*run_config(junk_config(rng))[:2]) for _ in range(200))
    assert stages["csv"] >= 40 and stages["value"] >= 15 and stages["parse"] >= 50, stages
    assert stages["model"] >= 8, stages


def test_large_squeezing_runs():
    # u and v of a squeezed input are sums of positive terms: s = 7 does not
    # cancel below the Heisenberg bound
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        code, err = run_main(["spectrum", "--squeeze", "7", "--points", "3",
                              "--output", str(out)])
        assert (code, err) == (0, "")
        _, data = parse_csv(out.read_text(encoding="utf-8"))
        assert data.shape == (3, 6) and np.isfinite(data).all()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: the CLI imports and certifies without it
    script = (
        "import sys, forcelimits.cli\n"
        "print('scipy' in sys.modules)\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "print(forcelimits.cli.main(['verify', 'all']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "1"  # the known strict check
    assert sum(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines) == 24
    assert "ImportError" not in result.stderr


class TestPresetCommands:
    def test_fig2a_emits_one_csv_per_curve(self, capsys, tmp_path):
        result = main_in_process(capsys, "fig2a", "--outdir", str(tmp_path))
        assert result.returncode == 0, result.stderr
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "fig2a_cd.csv", "fig2a_cqnc.csv", "fig2a_standard.csv", "fig2a_vm.csv",
        ]
        for path in tmp_path.glob("*.csv"):
            header, data = parse_csv(path.read_text())
            assert data.shape == (400, 6)
            # every benchmark curve sits above the dissipation bound
            assert np.all(data[:, 1] >= data[:, 3] * (1 - 1e-9))

    def test_fig2b_columns(self, capsys, tmp_path):
        result = main_in_process(capsys, "fig2b", "--outdir", str(tmp_path))
        assert result.returncode == 0, result.stderr
        header, data = parse_csv((tmp_path / "fig2b_toy.csv").read_text())
        s_f, sql, uql, guql = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
        assert np.all(guql < uql)
        assert np.all(s_f >= guql * (1 - 1e-9))


class TestVerifyCommand:
    def test_feedback_suite_passes(self, capsys):
        result = main_in_process(capsys, "verify", "feedback", "--seed", "3")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "[PASS]" in result.stdout

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "bogus"])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "feedback", "--seed", seed])
        assert exit_.value.code == 2
        assert capsys.readouterr().err == (
            "forcelimits verify: error: argument --seed: "
            f"seed must be a non-negative integer, got {seed!r}\n"
        )


@pytest.mark.parametrize("command", ["spectrum", "fig2a", "fig2b"])
def test_csv_bytes_match_recorded_digests(command, tmp_path):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli"][command]
    if command == "spectrum":
        argv = ["spectrum", "--output", str(tmp_path / "spectrum.csv")]
    else:
        argv = [command, "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == expected

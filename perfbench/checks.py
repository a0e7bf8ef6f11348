"""Correctness checks of the program's outputs against recorded references.

Each check returns a list of problems; an empty list means the operation's
output is correct.  The references in ``ref/`` were recorded from the package
by ``record.py``; the tolerances are fixed here.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

#: relative agreement of S_f and the optimal bound with the recorded arrays
RTOL = 1e-9

#: the fig2a curves must satisfy S_f >= UQL, the toy curve S_f >= gUQL
SWEEP_FLOOR_COLUMN = {"toy": "guql"}

CSV_COLUMNS = ("omega", "s_f", "sql", "uql", "guql", "opt_uql")

_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+?): ")
_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cli_output(
    command: str, code: int, stderr: str, outdir: Path, expected: dict[str, str]
) -> list[str]:
    """Exit code 0 and every written file byte-identical to its recorded digest."""
    problems = []
    if code != 0:
        problems.append(f"{command}: exit code {code}: {stderr.strip()[-200:]}")
    written = sorted(p.name for p in outdir.iterdir())
    if written != sorted(expected):
        problems.append(f"{command}: wrote {written}, expected {sorted(expected)}")
    for name, digest in expected.items():
        path = outdir / name
        if path.is_file() and sha256(path) != digest:
            problems.append(f"{command}: {name} differs from the recorded digest")
    return problems


def check_array(label: str, values, reference: np.ndarray) -> list[str]:
    """Finite, positive and within RTOL of the reference, elementwise."""
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return [f"{label}: shape {values.shape}, expected {reference.shape}"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    if not np.all(values > 0.0):
        return [f"{label}: non-positive values"]
    rel = np.abs(values - reference) / np.abs(reference)
    worst = int(np.argmax(rel))
    if rel[worst] > RTOL:
        return [
            f"{label}: relative deviation {rel[worst]:.3e} > {RTOL:g} at index {worst}"
        ]
    return []


def _csv_tolerance(values: np.ndarray) -> np.ndarray:
    """Half a unit in the 12th significant digit, plus float parsing slack."""
    mag = np.abs(values)
    exponent = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    return 0.5 * 10.0 ** (exponent - 11) + 4.0 * np.spacing(mag)


def check_csv(
    label: str, text: str, columns: dict[str, np.ndarray], metadata_lines: int
) -> list[str]:
    """The CSV holds the spectrum's columns, each value to 12 significant digits."""
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{label}: CSV does not end with a newline"]
    lines.pop()
    meta, header, body = lines[:metadata_lines], lines[metadata_lines], lines[metadata_lines + 1:]
    if not all(line.startswith("# ") and " = " in line for line in meta):
        return [f"{label}: malformed metadata lines"]
    if header != ",".join(CSV_COLUMNS):
        return [f"{label}: header {header!r}"]
    n = len(columns["omega"])
    if len(body) != n:
        return [f"{label}: {len(body)} rows, expected {n}"]
    try:
        parsed = np.array([row.split(",") for row in body], dtype=float)
    except ValueError as exc:
        return [f"{label}: unparsable CSV row: {exc}"]
    if parsed.shape != (n, len(CSV_COLUMNS)):
        return [f"{label}: CSV has shape {parsed.shape}"]
    problems = []
    for k, name in enumerate(CSV_COLUMNS):
        expected = np.asarray(columns[name], dtype=float)
        bad = np.nonzero(np.abs(parsed[:, k] - expected) > _csv_tolerance(expected))[0]
        if bad.size:
            i = int(bad[0])
            problems.append(
                f"{label}: CSV {name} row {i} reads {body[i].split(',')[k]}, "
                f"value is {expected[i]!r}"
            )
    return problems


def check_sweep_output(
    label: str, spectrum, csv_text: str, grid: np.ndarray, metadata_lines: int,
    reference: np.ndarray,
) -> list[str]:
    """S_f against the reference, the paper's inequality, and the CSV text."""
    if not np.array_equal(spectrum.omegas, grid):
        return [f"{label}: frequency column differs from the input grid"]
    problems = check_array(f"{label} s_f", spectrum.s_f, reference)
    floor_name = SWEEP_FLOOR_COLUMN.get(label, "uql")
    floor = getattr(spectrum, floor_name)
    below = np.nonzero(~(spectrum.s_f >= floor))[0]
    if below.size:
        i = int(below[0])
        problems.append(
            f"{label}: S_f < {floor_name} at omega = {float(grid[i])!r}"
        )
    columns = {name: getattr(spectrum, "omegas" if name == "omega" else name)
               for name in CSV_COLUMNS}
    problems += check_csv(label, csv_text, columns, metadata_lines)
    return problems


def check_scan_output(index: int, outcome, reference: dict) -> list[str]:
    """Stability verdict, S_f and the optimal bound of one pool draw."""
    stable = bool(reference["stable"][index])
    if outcome is None:
        return [] if not stable else [f"draw {index}: rejected as unstable, recorded stable"]
    if not stable:
        return [f"draw {index}: accepted, recorded unstable"]
    s_f, optimal = outcome
    return (
        check_array(f"draw {index} s_f", s_f, reference["s_f"][index])
        + check_array(
            f"draw {index} optimal_uql", [optimal], reference["optimal"][index:index + 1]
        )
    )


def parse_verify(stdout: str) -> tuple[dict[str, bool], tuple[int, int] | None]:
    results: dict[str, bool] = {}
    summary = None
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            results[m.group(2)] = m.group(1) == "PASS"
            continue
        m = _VERIFY_SUMMARY.match(line)
        if m:
            summary = (int(m.group(1)), int(m.group(2)))
    return results, summary


def check_verify_output(
    code: int, stdout: str, stderr: str, expected: dict[str, bool]
) -> list[str]:
    """Every check's pass/fail equals the recorded one, and so does the exit code.

    A check recorded as failing (cqnc/ancilla-floor at the recording commit)
    is expected to fail; only a change of any check's result is a problem.
    """
    results, summary = parse_verify(stdout)
    problems = []
    if results.keys() != expected.keys():
        missing = sorted(set(expected) - set(results))
        extra = sorted(set(results) - set(expected))
        problems.append(f"verify: checks missing {missing}, unexpected {extra}")
    changed = sorted(k for k in expected.keys() & results.keys() if results[k] != expected[k])
    for name in changed:
        was = "PASS" if expected[name] else "FAIL"
        now = "PASS" if results[name] else "FAIL"
        problems.append(f"verify: {name} is {now}, recorded {was}")
    passed = sum(expected.values())
    if summary != (passed, len(expected)):
        problems.append(f"verify: summary {summary}, expected {(passed, len(expected))}")
    expected_code = 0 if all(expected.values()) else 1
    if code != expected_code:
        problems.append(
            f"verify: exit code {code}, expected {expected_code}: {stderr.strip()[-200:]}"
        )
    return problems

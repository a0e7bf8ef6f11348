#!/usr/bin/env python3
"""Self-check of the benchmark's output checks.

Feeds real program outputs, and copies of them with one deliberate
corruption each, through the same checks and round code the benchmark uses.
Every clean output must pass and every corrupted one must count as a failed
operation.  Run from the repository root:

    python3 perfbench/selfcheck.py

Exit status 0 means every case behaved; 1 lists the cases that did not.
"""

from __future__ import annotations

import io
import shutil
import sys

import numpy as np

import checks
import workloads as wl
from spans import NullTracer


def _flip_digit(text: str, line_index: int) -> str:
    """Change the last digit of the second field of one CSV line."""
    lines = text.split("\n")
    fields = lines[line_index].split(",")
    digit = fields[1][-1]
    fields[1] = fields[1][:-1] + ("1" if digit != "1" else "2")
    lines[line_index] = ",".join(fields)
    return "\n".join(lines)


def cli_cases(workdir) -> list[tuple[str, bool]]:
    expected = wl.load_reference()["cli"]["fig2b"]
    outdir = workdir / "fig2b"
    outdir.mkdir(parents=True)
    child = wl.run_child(
        [sys.executable, "-m", "forcelimits", "fig2b", "--outdir", str(outdir)], workdir
    )
    cases = [("cli clean output", not checks.check_cli_output(
        "fig2b", child.code, child.stderr, outdir, expected))]
    cases.append(("cli nonzero exit", bool(checks.check_cli_output(
        "fig2b", 1, "", outdir, expected))))
    path = outdir / "fig2b_toy.csv"
    path.write_text(_flip_digit(path.read_text(), -2), newline="")
    cases.append(("cli one CSV digit changed", bool(checks.check_cli_output(
        "fig2b", child.code, child.stderr, outdir, expected))))
    path.unlink()
    cases.append(("cli file missing", bool(checks.check_cli_output(
        "fig2b", child.code, child.stderr, outdir, expected))))
    return cases


def sweep_cases() -> list[tuple[str, bool]]:
    workload = wl.SweepDense(seed=0)
    workload.setup()
    cli = workload.fl.cli
    original = cli.write_spectrum_csv
    cases = [("sweep clean round", workload.round(NullTracer()).failed == 0)]

    def corrupt_csv(spectrum, fh, metadata):
        buffer = io.StringIO()
        original(spectrum, buffer, metadata)
        fh.write(_flip_digit(buffer.getvalue(), 40))

    cli.write_spectrum_csv = corrupt_csv
    try:
        result = workload.round(NullTracer())
    finally:
        cli.write_spectrum_csv = original
    cases.append(("sweep one CSV digit changed", result.failed == len(workload.curves)))

    config, grid = workload.curves["toy"]
    spectrum = workload.fl.noise.sensitivity_spectrum(config, grid)
    buffer = io.StringIO()
    original(spectrum, buffer, {"curve": "toy"})
    reference = workload.reference["toy"]

    def corrupted(field: str, index: int, value: float):
        column = getattr(spectrum, field).copy()
        column[index] = value
        fields = {f: getattr(spectrum, f)
                  for f in ("omegas", "s_f", "sql", "uql", "guql", "opt_uql")}
        fields[field] = column
        return type(spectrum)(**fields)

    def fails(candidate) -> bool:
        return bool(checks.check_sweep_output(
            "toy", candidate, buffer.getvalue(), grid, 1, reference
        ))

    cases.append(("sweep clean output", not fails(spectrum)))
    s = spectrum.s_f
    cases.append(("sweep S_f off by 1e-8", fails(corrupted("s_f", 7, s[7] * (1 + 1e-8)))))
    cases.append(("sweep S_f NaN", fails(corrupted("s_f", 7, np.nan))))
    i = int(np.argmin(s / spectrum.guql))
    cases.append(("sweep S_f below gUQL", fails(corrupted("guql", i, s[i] * 1.01))))
    workload.close()
    return cases


def scan_cases() -> list[tuple[str, bool]]:
    workload = wl.ParamScan(seed=0)
    workload.setup()
    reference = workload.reference
    stable = int(np.nonzero(reference["stable"])[0][0])
    unstable = int(np.nonzero(~reference["stable"])[0][0])
    outcome = wl.evaluate_draw(
        workload.fl, workload.draws[stable], wl.SCAN_GRID, NullTracer()
    )
    s_f, optimal = outcome
    bumped = s_f.copy()
    bumped[3] *= 1 + 1e-8
    cases = [
        ("scan clean round", workload.round(NullTracer()).failed == 0),
        ("scan clean output", not checks.check_scan_output(stable, outcome, reference)),
        ("scan S_f off by 1e-8",
         bool(checks.check_scan_output(stable, (bumped, optimal), reference))),
        ("scan optimal bound off",
         bool(checks.check_scan_output(stable, (s_f, optimal * 1.001), reference))),
        ("scan stable draw rejected",
         bool(checks.check_scan_output(stable, None, reference))),
        ("scan unstable draw accepted",
         bool(checks.check_scan_output(unstable, outcome, reference))),
    ]
    workload.close()
    return cases


def verify_cases(workdir) -> list[tuple[str, bool]]:
    recorded = wl.load_reference()["verify"]
    failing = set(recorded["failing"]["0"])
    expected = {name: name not in failing for name in recorded["checks"]}
    child = wl.run_child(
        [sys.executable, "-m", "forcelimits", "verify", "all", "--seed", "0"], workdir
    )
    stdout = child.stdout

    def fails(out: str, code: int) -> bool:
        return bool(checks.check_verify_output(code, out, "", expected))

    flipped = stdout.replace(
        "[PASS] bounds/high-frequency-tail", "[FAIL] bounds/high-frequency-tail"
    )
    masked = stdout.replace("[FAIL] cqnc/ancilla-floor", "[PASS] cqnc/ancilla-floor")
    dropped = "\n".join(line for line in stdout.splitlines() if "feedback/" not in line)
    return [
        ("verify clean output", not fails(stdout, child.code)),
        ("verify one check flipped to FAIL", fails(flipped, child.code)),
        ("verify expected failure masked as PASS", fails(masked, child.code)),
        ("verify check missing", fails(dropped, child.code)),
        ("verify exit code 0", fails(stdout, 0)),
    ]


def main() -> int:
    wl.import_package()
    workdir = wl.OUT / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cases = cli_cases(workdir) + sweep_cases() + scan_cases() + verify_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [name for name, ok in cases if not ok]
    for name, ok in cases:
        print(f"{'ok ' if ok else 'BAD'} {name}")
    print(f"{len(cases) - len(bad)}/{len(cases)} self-check cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

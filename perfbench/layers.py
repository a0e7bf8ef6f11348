"""Per-layer metrics of a traced run.

A traced run records spans around the public calls its workload makes.  Then
a fixed probe calls every layer the package has, on the paper's presets and
on seeded draws, so that every per-layer metric has a value on every workload.
A metric is taken from the workload's own spans when the workload exercised
that layer, and from the probe's spans otherwise; ``sources`` says which.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import statistics
import sys

import numpy as np

import workloads as wl
from spans import Tracer

SUITES = ("uql-dominance", "identities", "cqnc", "linresp", "feedback", "bounds")
IMPORT_MODULES = {"cli": "forcelimits.cli", "verify": "forcelimits.verify",
                  "noise": "forcelimits.noise"}
PROBE_REPEATS = 3
PROBE_POOL_DRAWS = 64
PROBE_EXTRACTIONS = 50
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def import_times(workdir) -> dict[str, float]:
    """Median cumulative import time of each module, from fresh processes."""
    samples: dict[str, list[float]] = {key: [] for key in IMPORT_MODULES}
    for _ in range(PROBE_REPEATS):
        child = wl.run_child(
            [sys.executable, "-X", "importtime", "-c", "import forcelimits.cli"],
            workdir,
        )
        if child.code != 0:
            raise RuntimeError(f"import probe failed: {child.stderr[-300:]}")
        cumulative = {}
        for line in child.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m.group(4)] = int(m.group(2)) * 1e-6
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative[module])
    return {key: statistics.median(v) for key, v in samples.items()}


def probe(tracer: Tracer, seed: int, workdir) -> dict[str, float]:
    """Call every layer once over fixed inputs; return the non-span values."""
    values = {f"import.forcelimits_{k}_s": v for k, v in import_times(workdir).items()}
    fl = wl.import_package()
    import forcelimits.cli as cli
    import forcelimits.verify as verify

    outdir = workdir / "probe"
    for _ in range(PROBE_REPEATS):
        for command in wl.CLI_COMMANDS:
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            argv = wl.cli_args(command, outdir)
            with contextlib.redirect_stdout(io.StringIO()):
                with tracer.span("cli.main", command):
                    code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) returned {code}")
    shutil.rmtree(outdir, ignore_errors=True)

    for name, (config, grid) in wl.sweep_inputs(fl.presets).items():
        grid = grid[::5]
        wl.decompose_spectrum(tracer, fl, name, config, grid)
        spectrum = fl.noise.sensitivity_spectrum(config, grid)
        with tracer.span("cli.write_spectrum_csv", name):
            cli.write_spectrum_csv(spectrum, io.StringIO(), {"curve": name})
        tracer.count("csv.rows", len(grid))

    draws, _ = wl.load_pool()
    order = np.random.default_rng(seed).permutation(len(draws))
    for index in order[:PROBE_POOL_DRAWS]:
        wl.evaluate_draw(fl, draws[index], wl.SCAN_GRID, tracer)
        wl.decompose_draw(tracer, fl, draws[index], wl.SCAN_GRID)

    verify_seed = seed % wl.VERIFY_SEEDS
    results = []
    for suite in SUITES:
        with tracer.span("verify.run_suite", suite):
            results += verify.run_suite(suite, seed=verify_seed)
    values["verify.checks_passed"] = float(sum(r.passed for r in results))
    values["verify.checks_total"] = float(len(results))

    rng = np.random.default_rng(seed)
    for _ in range(PROBE_EXTRACTIONS):
        params, omega = verify.random_stable_standard(rng)
        config = fl.schemes.SchemeConfig(
            "standard", params, readout_angle=float(rng.uniform(-1.3, 1.3))
        )
        with tracer.span("linresp.extract_detector"):
            fl.linresp.extract_detector(config, omega, input_spectrum=fl.spectra.vacuum())
    return values


def _median_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6


def layer_metrics(
    workload: Tracer, probed: Tracer, values: dict[str, float]
) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric, and for each whether it came from the workload."""
    metrics: dict[str, float] = dict(values)
    sources: dict[str, str] = {k: "probe" for k in values}

    def spans(metric: str, name: str, tag: str | None = None) -> list[float]:
        found = workload.durations(name, tag)
        sources[metric] = "workload" if found else "probe"
        return found or probed.durations(name, tag)

    for command in wl.CLI_COMMANDS:
        metric = f"cli.main_s.{command}"
        metrics[metric] = statistics.median(spans(metric, "cli.main", command))

    metric = "cli.write_spectrum_csv_us_per_row"
    csv = spans(metric, "cli.write_spectrum_csv")
    rows = (workload if sources[metric] == "workload" else probed).counts["csv.rows"]
    metrics[metric] = sum(csv) / rows * 1e6

    metric = "schemes.build_us"
    metrics[metric] = _median_us(spans(metric, "schemes.build"))
    counts = (workload if sources[metric] == "workload" else probed).counts
    for name, value in (
        ("schemes.build_calls", float(counts["schemes.build.calls"])),
        ("schemes.stable_ratio",
         counts["schemes.build.stable"] / counts["schemes.build.calls"]),
    ):
        metrics[name] = value
        sources[name] = sources[metric]

    for variant in wl.VARIANT_CODES:
        metric = f"linsys.transfer_us_per_point.{variant}"
        metrics[metric] = _median_us(spans(metric, "linsys.transfer", variant))
    for metric, name, tag in (
        ("linsys.stability_check_us", "linsys.stability_check", None),
        ("noise.added_noise_us_per_point", "noise.added_noise", None),
        ("noise.power_density_us_per_point", "noise.power_density", None),
        ("noise.sensitivity_spectrum_call_us", "noise.sensitivity_spectrum", "2pt"),
        ("bounds.columns_us_per_point", "bounds.columns", None),
        ("linresp.extract_detector_us", "linresp.extract_detector", None),
    ):
        metrics[metric] = _median_us(spans(metric, name, tag))

    metric = "noise.decomposition_gap_frac"
    source = workload if workload.find("decomposition") else probed
    sources[metric] = "workload" if source is workload else "probe"
    own = source.self_times()
    pieces = sum((s[6] - s[5]) - own[s[0]] for s in source.find("decomposition"))
    whole = sum(
        s[6] - s[5] for s in source.find("noise.sensitivity_spectrum")
        if s[2].startswith("whole:")
    )
    metrics[metric] = pieces / whole - 1.0

    for suite in SUITES:
        metric = f"verify.suite_s.{suite}"
        metrics[metric] = statistics.median(spans(metric, "verify.run_suite", suite))
    return metrics, sources

"""The package API that the benchmark's traced decomposition calls.

`perfbench/run.py --trace 1` times the public per-point calls behind a
spectrum (transfer, added_noise, power_density, the bound columns) and a
draw's build and stability check, and its probe runs every verify suite
and draws extraction inputs from `verify.random_stable_standard`.  Running
those calls here, the decompositions on 3-point grids and the import probe,
makes an API change that would break a traced run fail the test suite
instead.  One round each of sweep-dense and param-scan holds the outputs to
their recorded references.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import forcelimits
import forcelimits.presets  # noqa: F401  (the decomposition reads fl.presets)
from forcelimits import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, spans.NullTracer(), layers


def test_decompose_spectrum(perfbench):
    workloads, tracer, _ = perfbench
    for name, (config, grid) in workloads.sweep_inputs(forcelimits.presets).items():
        small = np.geomspace(grid[0], grid[-1], 3)
        workloads.decompose_spectrum(tracer, forcelimits, name, config, small)


def test_decompose_draw(perfbench):
    workloads, tracer, _ = perfbench
    rng = np.random.default_rng(0)
    variants = set()
    while len(variants) < 3:
        draw = workloads.random_draw(rng)
        variants.add(draw["variant"])
        workloads.decompose_draw(tracer, forcelimits, draw, workloads.SCAN_GRID[::8])


def test_probe_verify_calls(perfbench):
    *_, layers = perfbench
    for suite in layers.SUITES:
        results = verify.run_suite(suite, seed=1)
        assert results and all(type(r.passed) is bool for r in results)
    params, omega = verify.random_stable_standard(np.random.default_rng(0))
    assert isinstance(params, forcelimits.schemes.DetectorParams) and omega > 0.0


def test_import_probe_times_each_module(perfbench, tmp_path):
    # the traced run reads each module's cumulative time out of
    # `python -X importtime -c "import forcelimits.cli"`, so importing
    # forcelimits.cli must import each of them
    *_, layers = perfbench
    times = layers.import_times(tmp_path)
    assert set(times) == {"cli", "verify", "noise"}
    assert all(t > 0.0 for t in times.values())


def test_sweep_dense_round(perfbench):
    # the five 2000-point curves, checked against the recorded S_f and read
    # back from their CSV text to 12 digits
    workloads, tracer, _ = perfbench
    workload = workloads.SweepDense(seed=0)
    try:
        workload.setup()
        result = workload.round(tracer)
    finally:
        workload.close()
    assert result.attempted == len(workload.curves) == 5
    assert result.failed == 0, result.problems[:3]


def test_param_scan_round(perfbench):
    # the recorded pool of draws of all three variants: each draw's verdict,
    # S_f on the scan grid and optimal bound against the recorded values
    workloads, tracer, _ = perfbench
    workload = workloads.ParamScan(seed=0)
    try:
        workload.setup()
        result = workload.round(tracer)
    finally:
        workload.close()
    assert result.attempted == len(workload.draws) == workloads.SCAN_POOL_DRAWS
    assert result.failed == 0, result.problems[:3]

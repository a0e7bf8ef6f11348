#!/usr/bin/env python3
"""forcelimits benchmark: one workload per run, outputs checked, metrics printed.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing.  ``--trace 1`` measures half the time untraced and half traced, then
probes every layer, and reports the per-layer metrics of BENCHMARK.json.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
run for a reader.  Exit status is 0 when a result was printed, 2 when the run
could not start (for example, no package source in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli-cold", "sweep-dense", "param-scan", "verify-all")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh set-ups timed per untraced run; setup_s is their median
SETUP_REPEATS = 5


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS threads at the number of usable cores, before numpy loads."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment(nproc: int, blas: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": nproc,
        "blas_threads": blas,
    }


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    import numpy as np

    n = len(samples)
    out = {"median": statistics.median(samples)}
    if n > 10:
        pct = math.floor(100.0 * (n - 10) / n)
        if pct > 50:
            out[f"p{pct}"] = float(np.percentile(samples, pct))
    out["n"] = n
    return out


def time_fresh_setups(args) -> tuple[list[float], list[float]]:
    """Raw and normalized wall times of fresh processes doing only the set-up."""
    import workloads

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    workdir = workloads.OUT / f"setup-{os.getpid()}"
    try:
        children = [workloads.run_child(argv, workdir, calibrate=True)
                    for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for child in children:
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()[-400:]}")
    return [c.wall_s for c in children], [c.normalized_s for c in children]


class Phase:
    """Rounds run back to back for a fixed time."""

    def __init__(self, workload, tracer, seconds: float):
        self.workload = workload
        self.rounds = []
        deadline = time.perf_counter() + seconds
        while True:
            tracer.op = len(self.rounds)
            self.rounds.append(workload.round(tracer))
            if tracer.enabled:
                workload.traced_extras(tracer, first=len(self.rounds) == 1)
            if time.perf_counter() >= deadline:
                break

    def times(self) -> list[float]:
        return [r.time_s for r in self.rounds]

    def normalized(self) -> list[float]:
        return self.workload.normalized(self.rounds)


def peak_rss_mb(workload) -> float:
    if workload.in_children:
        return max(child.maxrss_mb for child in workload.children)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_phases(args, workload) -> tuple[list[Phase], dict, dict]:
    """Untraced half, traced half, then the layer probe."""
    import layers
    import workloads
    from spans import NullTracer, Tracer

    untraced = Phase(workload, NullTracer(), args.seconds / 2.0)
    tracer = Tracer()
    traced = Phase(workload, tracer, args.seconds / 2.0)
    phases = [untraced, traced]
    probed = Tracer()
    values = layers.probe(probed, args.seed, workload.workdir)
    per_layer, sources = layers.layer_metrics(tracer, probed, values)
    rounds = untraced.rounds + traced.rounds
    cpu_s = sum(r.cpu_s for r in rounds)
    measured = {
        "proc.cpu_s": cpu_s,
        "proc.busy_frac": cpu_s / sum(r.time_s for r in rounds),
        "trace.overhead_frac": statistics.median(traced.normalized())
        / statistics.median(untraced.normalized()) - 1.0,
    }
    per_layer.update(measured)
    sources.update(dict.fromkeys(measured, "workload"))
    workloads.OUT.mkdir(exist_ok=True)
    tracer.dump(workloads.OUT / f"trace-{args.workload}-{args.seed}.json")
    probed.dump(workloads.OUT / f"probe-{args.workload}-{args.seed}.json")
    return phases, per_layer, sources


def run_workload(args, nproc: int, blas: dict[str, str]) -> tuple[dict, dict]:
    import workloads
    from spans import NullTracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    env = environment(nproc, blas)
    env["loadavg_start"] = read_loadavg()
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        setup_raw, setup_normalized = time_fresh_setups(args)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        if args.trace:
            phases, values, report["sources"] = trace_phases(args, workload)
        else:
            phases = [Phase(workload, NullTracer(), args.seconds)]
            values = {
                "setup_s": statistics.median(setup_normalized),
                "round_ref_s": statistics.median(phases[0].normalized()),
                "peak_rss_mb": peak_rss_mb(workload),
            }
    finally:
        workload.close()
    env["loadavg_end"] = read_loadavg()
    if values.keys() != units.keys():
        raise RuntimeError(
            f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}"
        )

    rounds = [r for phase in phases for r in phase.rounds]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    samples = {
        ("round_s (raw)", "s"): phases[0].times(),
        ("round_ref_s", "s"): phases[0].normalized(),
        ("calibration_slowdown", "1"): [k for r in rounds for k in r.slowdowns],
    }
    if not args.trace:
        samples[("setup_s (raw)", "s")] = setup_raw
        samples[("setup_s", "s")] = setup_normalized
    for r in rounds:
        for name, figure in r.samples.items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            samples.setdefault((name, unit), []).extend(figure)
    figures = {f"{name} [{unit}]": summary(v) for (name, unit), v in samples.items()}
    report.update(
        seed_used=workload.uses_seed,
        env=env,
        figures=figures,
        failed_frac=failed / attempted,
        problems=[p for r in rounds for p in r.problems][:20],
    )
    if args.workload == "verify-all":
        report["verify_seed"] = workload.verify_seed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return report, result


def print_report(report: dict, result: dict) -> None:
    seed_note = "" if report["seed_used"] else " (seed unused: fixed paper presets)"
    print(f"# workload {report['workload']} seed {report['seed']}{seed_note} "
          f"trace {report['trace']}")
    if "verify_seed" in report:
        print(f"# verify all --seed {report['verify_seed']}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    for name, stats in report["figures"].items():
        text = "  ".join(f"{k} {v:.6g}" for k, v in stats.items())
        print(f"{name:28s} {text}")
    print(f"{'failed_frac':28s} {report['failed_frac']:.6g}  "
          f"({result['failed']} of {result['attempted']} operations failed)")
    sources = report.get("sources", {})
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}  {sources.get(name, '')}")
    for problem in report["problems"]:
        print(f"! {problem}")


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and print them all."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for required in (ROOT / "src" / "forcelimits" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not required.is_file():
            print(f"error: {required} is missing", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    blas = cap_blas_threads(nproc)
    import workloads

    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
        finally:
            workload.close()
        return 0

    report, result = run_workload(args, nproc, blas)
    print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

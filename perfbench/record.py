"""Record the correctness references the benchmark checks outputs against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes ``perfbench/ref/reference.json`` (CLI file digests, per-check verify
results), ``perfbench/ref/sweep.npz`` (S_f of the five dense preset curves)
and ``perfbench/ref/scan_pool.npz`` (the param-scan draw pool with each
draw's stability verdict, S_f and optimal bound).
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import checks
import workloads as wl
from spans import NullTracer


def record_cli(workdir) -> dict[str, dict[str, str]]:
    digests = {}
    for command in wl.CLI_COMMANDS:
        outdir = workdir / command
        outdir.mkdir()
        argv = [sys.executable, "-m", "forcelimits", *wl.cli_args(command, outdir)]
        child = wl.run_child(argv, workdir)
        if child.code != 0:
            raise SystemExit(f"{command} failed: {child.stderr}")
        digests[command] = {p.name: checks.sha256(p) for p in sorted(outdir.iterdir())}
    return digests


def record_verify(workdir) -> dict:
    """The checks of ``verify all`` and, per seed the workload uses, those failing.

    Results depend on the seed (at the recording commit seed 13 also fails
    identities/gram-identity), so each seed keeps its own record.
    """
    names = None
    failing = {}
    for seed in range(wl.VERIFY_SEEDS):
        argv = [sys.executable, "-m", "forcelimits", "verify", "all", "--seed", str(seed)]
        results, _ = checks.parse_verify(wl.run_child(argv, workdir).stdout)
        if names is not None and sorted(results) != names:
            raise SystemExit(f"seed {seed} ran different checks")
        names = sorted(results)
        failing[str(seed)] = sorted(k for k, passed in results.items() if not passed)
    return {"checks": names, "failing": failing}


def record_sweep(fl) -> dict[str, np.ndarray]:
    return {
        name: fl.noise.sensitivity_spectrum(config, grid).s_f
        for name, (config, grid) in wl.sweep_inputs(fl.presets).items()
    }


def record_pool(fl) -> dict[str, np.ndarray]:
    """Draws that build as stable and evaluate, or that build rejects.

    A draw whose evaluation raises anything else (for example a vanishing
    force response at the drawn readout angle) is left out of the pool, so
    that no operation of the workload fails on a valid input.
    """
    rng = np.random.default_rng(wl.SCAN_POOL_SEED)
    kept, stable, s_f, optimal = [], [], [], []
    while len(kept) < wl.SCAN_POOL_DRAWS:
        draw = wl.random_draw(rng)
        try:
            outcome = wl.evaluate_draw(fl, draw, wl.SCAN_GRID, NullTracer())
        except fl.errors.ForceLimitsError:
            continue
        kept.append(draw)
        stable.append(outcome is not None)
        s_f.append(outcome[0] if outcome else np.full(len(wl.SCAN_GRID), np.nan))
        optimal.append(outcome[1] if outcome else np.nan)
    arrays = {k: np.array([d[k] for d in kept]) for k in kept[0]}
    arrays.update(
        stable=np.array(stable), s_f=np.array(s_f), optimal=np.array(optimal),
        grid=wl.SCAN_GRID,
    )
    return arrays


def main() -> int:
    fl = wl.import_package()
    workdir = wl.OUT / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        reference = {"cli": record_cli(workdir), "verify": record_verify(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REF.mkdir(exist_ok=True)
    (wl.REF / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    np.savez_compressed(wl.REF / "sweep.npz", **record_sweep(fl))
    pool = record_pool(fl)
    np.savez_compressed(wl.REF / "scan_pool.npz", **pool)
    print(
        f"recorded verify results for {len(reference['verify']['failing'])} seeds, "
        f"{int(pool['stable'].sum())}/{len(pool['stable'])} stable pool draws"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

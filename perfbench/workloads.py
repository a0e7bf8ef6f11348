"""The four benchmark workloads and their inputs.

Every workload is a closed loop with one client: the next program call starts
only when the previous one has returned.  A *round* is one pass over the
workload's mix; its time is the summed wall time of the program calls in it,
excluding the benchmark's own output checks.

* ``cli-cold``   fresh ``python -m forcelimits`` processes: spectrum, fig2a,
                 fig2b (interpreter start and import dominate).
* ``sweep-dense`` in-process ``noise.sensitivity_spectrum`` plus
                 ``cli.write_spectrum_csv`` on the five preset curves over
                 dense log grids (the per-frequency solve dominates).
* ``param-scan`` in-process evaluation of seeded draws of all three variants
                 on a short grid (per-call fixed cost dominates).
* ``verify-all`` fresh ``python -m forcelimits verify all --seed <seed>``
                 processes (the only path through verify, linresp, scalar
                 bounds and scipy.optimize).
"""

from __future__ import annotations

import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import checks
from spans import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF = Path(__file__).resolve().parent / "ref"
OUT = ROOT / ".perfbench_out"

#: no child process may outlive this (the whole run must end within 180 s)
CHILD_TIMEOUT_S = 120.0

SWEEP_POINTS = 2000
SCAN_GRID = np.geomspace(1e-2, 1e1, 24)
#: draws in the recorded param-scan pool; a round is one pass over it, in an
#: order the seed picks, so every round does the same work
SCAN_POOL_DRAWS = 512
SCAN_POOL_SEED = 20160226
VARIANT_CODES = ("standard", "cqnc", "toy")
CLI_COMMANDS = ("spectrum", "fig2a", "fig2b")
#: verify-all runs ``verify all --seed <seed mod VERIFY_SEEDS>``; each of these
#: seeds has its own recorded per-check results
VERIFY_SEEDS = 32


def import_package():
    """Import forcelimits from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import forcelimits

    for module in ("bounds", "errors", "linresp", "linsys", "noise", "presets",
                   "schemes"):
        importlib.import_module(f"forcelimits.{module}")
    origin = Path(forcelimits.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"forcelimits imported from {origin}, not from {SRC}")
    return forcelimits


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    #: slowdowns of the calibration kernel run while the child ran
    slowdowns: list[float]

    @property
    def normalized_s(self) -> float:
        return self.wall_s * calibration.speed_factor(self.slowdowns)


def run_child(argv: list[str], workdir: Path, calibrate: bool = False) -> Child:
    """Run one process to completion; time it and read its own rusage.

    With ``calibrate`` this process runs the calibration kernel while it
    waits (see calibration.py), so the child's time can be normalized by the
    host's speed during exactly that time.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / "child.stdout"
    err_path = workdir / "child.stderr"
    slowdowns: list[float] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                if calibrate:
                    slowdowns.append(calibration.short_sample())
                else:
                    time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        slowdowns=slowdowns,
    )


def cli_args(command: str, outdir: Path) -> list[str]:
    """Arguments of one CLI command writing its CSV output into outdir."""
    if command == "spectrum":
        return ["spectrum", "--output", str(outdir / "spectrum.csv")]
    return [command, "--outdir", str(outdir)]


def load_reference() -> dict:
    return json.loads((REF / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Round:
    """Outcome of one round: program time, operations and their failures."""

    time_s: float = 0.0
    #: CPU time of the program calls (this process's, or the children's)
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: named per-operation figures, e.g. {"cli_spectrum_s": [...]}
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: calibration slowdowns measured between or during the round's calls
    slowdowns: list[float] = field(default_factory=list)
    #: round time scaled to the reference speed, where known per call
    normalized_s: float = 0.0

    @contextmanager
    def timed(self):
        """Time one in-process program call: wall time and CPU time."""
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.time_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Workload:
    """A workload whose program calls run in this process."""

    name = ""
    #: whether --seed changes the inputs (False: the paper's fixed presets)
    uses_seed = False
    in_children = False

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir = OUT / f"{self.name}-{os.getpid()}"

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer) -> Round:
        raise NotImplementedError

    def traced_extras(self, tracer, first: bool) -> None:
        """Extra per-layer calls made after a traced round, outside its span."""

    def calibrate(self, result: Round) -> None:
        """Time the calibration kernel between program calls."""
        result.slowdowns.extend(calibration.sample())

    def normalized(self, rounds: list[Round]) -> list[float]:
        """Round times scaled by the host's speed over all the rounds.

        In-process calls run while the kernel does not, so the kernel's
        slowdown is taken between calls and averaged over the whole phase.
        """
        factor = calibration.speed_factor([k for r in rounds for k in r.slowdowns])
        return [r.time_s * factor for r in rounds]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class ChildWorkload(Workload):
    """A workload whose program calls are fresh processes."""

    in_children = True

    def setup(self) -> None:
        """Compile the package's bytecode and warm the file cache."""
        self.children: list[Child] = []
        child = run_child([sys.executable, "-c", "import forcelimits.cli"], self.workdir)
        if child.code != 0:
            raise RuntimeError(f"warm-up import failed: {child.stderr.strip()}")

    def run(self, argv: list[str], result: Round) -> Child:
        """Run one program process, calibrating while it runs."""
        child = run_child(argv, self.workdir, calibrate=True)
        self.children.append(child)
        result.time_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.normalized_s += child.normalized_s
        result.slowdowns.extend(child.slowdowns)
        return child

    def normalized(self, rounds: list[Round]) -> list[float]:
        """Each process's time scaled by the host's speed while it ran."""
        return [r.normalized_s for r in rounds]


# ---------------------------------------------------------------------------


class CliCold(ChildWorkload):
    name = "cli-cold"

    def setup(self) -> None:
        self.expected = load_reference()["cli"]
        super().setup()

    def round(self, tracer) -> Round:
        result = Round()
        with tracer.span("round"):
            for command in CLI_COMMANDS:
                outdir = self.workdir / command
                shutil.rmtree(outdir, ignore_errors=True)
                outdir.mkdir()
                with tracer.span("proc.forcelimits", command):
                    child = self.run(
                        [sys.executable, "-m", "forcelimits", *cli_args(command, outdir)],
                        result,
                    )
                result.sample(f"cli_{command}_s", child.wall_s)
                result.op(checks.check_cli_output(
                    command, child.code, child.stderr, outdir, self.expected[command]
                ))
        return result


class VerifyAll(ChildWorkload):
    name = "verify-all"
    uses_seed = True

    def setup(self) -> None:
        self.verify_seed = self.seed % VERIFY_SEEDS
        recorded = load_reference()["verify"]
        failing = set(recorded["failing"][str(self.verify_seed)])
        self.expected = {name: name not in failing for name in recorded["checks"]}
        super().setup()

    def round(self, tracer) -> Round:
        result = Round()
        argv = [sys.executable, "-m", "forcelimits", "verify", "all",
                "--seed", str(self.verify_seed)]
        with tracer.span("round"), tracer.span("proc.forcelimits", "verify"):
            child = self.run(argv, result)
        result.sample("verify_all_s", child.wall_s)
        result.op(checks.check_verify_output(
            child.code, child.stdout, child.stderr, self.expected
        ))
        return result


# ---------------------------------------------------------------------------


def sweep_inputs(presets) -> dict[str, tuple[object, np.ndarray]]:
    """The five preset curves, each over a dense log grid of its preset range."""
    curves: dict[str, tuple[object, np.ndarray]] = {}
    a_grid = presets.fig2a_grid()
    for name, config in presets.fig2a_configs().items():
        curves[name] = (config, np.geomspace(a_grid[0], a_grid[-1], SWEEP_POINTS))
    b_grid = presets.fig2b_grid()
    curves["toy"] = (
        presets.fig2b_config(), np.geomspace(b_grid[0], b_grid[-1], SWEEP_POINTS)
    )
    return curves


def decompose_spectrum(tracer, fl, name: str, config, grid: np.ndarray) -> None:
    """Time the public calls behind one sensitivity_spectrum call, per point.

    The whole call and its pieces run on the same inputs, so the trace shows
    how far the summed pieces are from the whole.
    """
    bounds, linsys, noise, schemes = fl.bounds, fl.linsys, fl.noise, fl.schemes
    params = config.params
    eta = config.eta if config.variant == "toy" else 0.0
    with tracer.span("noise.sensitivity_spectrum", f"whole:{name}"):
        noise.sensitivity_spectrum(config, grid)
    with tracer.span("decomposition", name):
        with tracer.span("schemes.build", config.variant):
            model = schemes.build(config)
        tracer.count("schemes.build.calls")
        tracer.count("schemes.build.stable")
        with tracer.span("noise.noise_budget"):
            budget = noise.noise_budget(config, model)
        for omega in grid:
            omega = float(omega)
            with tracer.span("linsys.transfer", config.variant):
                resp = linsys.transfer(model, omega)
            with tracer.span("noise.added_noise"):
                coeffs = noise.added_noise(resp, config.readout_angle)
            with tracer.span("noise.power_density"):
                noise.power_density(coeffs, budget)
            with tracer.span("bounds.columns"):
                bounds.sql(params, omega)
                bounds.uql(params, omega)
                bounds.generalized_uql(
                    bounds.coupling_susceptibilities(params, eta, omega)
                )
                bounds.optimal_uql(params, omega)


class SweepDense(Workload):
    name = "sweep-dense"

    def setup(self) -> None:
        fl = import_package()
        import forcelimits.cli  # noqa: F401  (write_spectrum_csv)

        self.fl = fl
        self.curves = sweep_inputs(fl.presets)
        reference = np.load(REF / "sweep.npz")
        self.reference = {name: reference[name] for name in self.curves}
        for name, (config, grid) in self.curves.items():
            spectrum = fl.noise.sensitivity_spectrum(config, grid[::100])
            fl.cli.write_spectrum_csv(spectrum, io.StringIO(), {"curve": name})

    def round(self, tracer) -> Round:
        noise, cli = self.fl.noise, self.fl.cli
        result = Round()
        with tracer.span("round"):
            for name, (config, grid) in self.curves.items():
                self.calibrate(result)
                buffer = io.StringIO()
                metadata = {"curve": name, "points": len(grid)}
                with result.timed():
                    with tracer.span("noise.sensitivity_spectrum", name):
                        spectrum = noise.sensitivity_spectrum(config, grid)
                    with tracer.span("cli.write_spectrum_csv", name):
                        cli.write_spectrum_csv(spectrum, buffer, metadata)
                tracer.count("csv.rows", len(grid))
                result.op(checks.check_sweep_output(
                    name, spectrum, buffer.getvalue(), grid, len(metadata),
                    self.reference[name],
                ))
            self.calibrate(result)
        result.sample("sweep_points_per_s", len(self.curves) * SWEEP_POINTS / result.time_s)
        return result

    def traced_extras(self, tracer, first: bool) -> None:
        if first:
            for name, (config, grid) in self.curves.items():
                decompose_spectrum(tracer, self.fl, name, config, grid)


# ---------------------------------------------------------------------------


def random_draw(rng: np.random.Generator) -> dict:
    """Raw parameters of one draw of any of the three variants.

    Ranges follow verify.random_stable_standard; cqnc and toy sit at
    Delta = 0 (their models require it); every draw has a random readout
    angle, and toy a random coupling mix eta.
    """
    variant = int(rng.integers(0, 3))
    return dict(
        variant=variant,
        Omega=float(rng.uniform(0.05, 3.0)),
        Gamma=float(rng.uniform(0.01, 1.0)),
        gamma=float(rng.uniform(0.3, 6.0)),
        Delta=float(rng.uniform(-4.0, 4.0)) if variant == 0 else 0.0,
        g=float(rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0])),
        phi=float(rng.uniform(-1.3, 1.3)),
        eta=float(rng.uniform(-2.0, 2.0)),
        omega=float(rng.uniform(0.01, 12.0)),
    )


def draw_config(fl, draw: dict):
    """The package's parameter and scheme objects for one raw draw."""
    params = fl.schemes.DetectorParams(
        Omega=draw["Omega"], Gamma=draw["Gamma"], gamma=draw["gamma"],
        Delta=draw["Delta"], g=draw["g"],
    )
    config = fl.schemes.SchemeConfig(
        VARIANT_CODES[draw["variant"]], params,
        readout_angle=draw["phi"], eta=draw["eta"],
    )
    return params, config


def evaluate_draw(fl, draw: dict, grid: np.ndarray, tracer):
    """One param-scan operation, from raw numbers to S_f and the optimal bound.

    Returns (s_f, optimal bound) or None when build rejects the draw as
    unstable.
    """
    params, config = draw_config(fl, draw)
    try:
        with tracer.span("noise.sensitivity_spectrum", "scan"):
            spectrum = fl.noise.sensitivity_spectrum(config, grid)
    except fl.errors.UnstableModel:
        return None
    with tracer.span("bounds.optimal_uql"):
        optimal = fl.bounds.optimal_uql(params, draw["omega"])
    return spectrum.s_f, optimal


def decompose_draw(tracer, fl, draw: dict, grid: np.ndarray) -> None:
    """Time build, the stability check and a 2-point spectrum call of a draw."""
    _, config = draw_config(fl, draw)
    tracer.count("schemes.build.calls")
    try:
        with tracer.span("schemes.build", config.variant):
            model = fl.schemes.build(config)
    except fl.errors.UnstableModel:
        return
    tracer.count("schemes.build.stable")
    with tracer.span("linsys.stability_check"):
        fl.linsys.stability_check(model.drift)
    with tracer.span("noise.sensitivity_spectrum", "2pt"):
        fl.noise.sensitivity_spectrum(config, grid[:2])


def load_pool() -> tuple[list[dict], dict[str, np.ndarray]]:
    data = np.load(REF / "scan_pool.npz")
    keys = ("variant", "Omega", "Gamma", "gamma", "Delta", "g", "phi", "eta", "omega")
    draws = [
        {k: (int(data[k][i]) if k == "variant" else float(data[k][i])) for k in keys}
        for i in range(len(data["variant"]))
    ]
    reference = {k: data[k] for k in ("stable", "s_f", "optimal", "grid")}
    return draws, reference


class ParamScan(Workload):
    name = "param-scan"
    uses_seed = True

    def setup(self) -> None:
        self.fl = import_package()
        self.draws, self.reference = load_pool()
        if not np.array_equal(self.reference["grid"], SCAN_GRID):
            raise RuntimeError("recorded param-scan grid differs from SCAN_GRID")
        self.order = [int(i) for i in
                      np.random.default_rng(self.seed).permutation(len(self.draws))]
        for index in self.order[:8]:
            evaluate_draw(self.fl, self.draws[index], SCAN_GRID, NullTracer())

    def round(self, tracer) -> Round:
        result = Round()
        stable = 0
        with tracer.span("round"):
            for n, index in enumerate(self.order):
                if n % 25 == 0:
                    self.calibrate(result)
                with result.timed():
                    outcome = evaluate_draw(self.fl, self.draws[index], SCAN_GRID, tracer)
                stable += outcome is not None
                result.op(checks.check_scan_output(
                    index, outcome, self.reference
                ))
            self.calibrate(result)
        result.sample("scan_configs_per_s", stable / result.time_s)
        return result

    def traced_extras(self, tracer, first: bool) -> None:
        for index in self.order:
            decompose_draw(tracer, self.fl, self.draws[index], SCAN_GRID)


WORKLOADS = {cls.name: cls for cls in (CliCold, SweepDense, ParamScan, VerifyAll)}

"""Per-layer probes: direct calls to each layer's public functions.

The probes use the inputs the workloads use (same seed, same size).  Step
costs pin the step with ``DtControl(dt=...)``, so ``resolve_substeps`` gives
the exact number of steps taken.  Every probe call is recorded as a span.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from wavemodels import (
    AiryState,
    BoussinesqState,
    DtControl,
    Grid,
    SpectralField,
    ScalarWaveState,
    SVState,
    abcd_evolve,
    acoustic_evolve,
    airy_evolve,
    boussinesq_solitary_solve,
    breaking_time,
    classify_abcd,
    hopf_characteristic_solve,
    petviashvili_continuation,
    petviashvili_solve,
    scalar_evolve,
    simple_wave_velocity,
    sv_evolve,
)
from wavemodels.scenarios import load_scenario
from wavemodels.stepping import resolve_substeps

from workloads import GOOD_PARAMS, P, SIZES, perturbations, solitary_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_child(args: list[str], until_line: str | None = None) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``args``, and its first output line.

    With ``until_line`` the clock stops when the child prints that line;
    otherwise it stops when the child exits.  The child is always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if until_line is None:
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or (until_line is not None and line != until_line):
        raise RuntimeError(f"child {args[:2]} failed (exit {proc.returncode}): {err.strip()}")
    return elapsed, line


def _median_time(tracer, name, span, fn, reps):
    """Median seconds of ``reps`` calls of fn, each recorded as a span; last result."""
    times, result = [], None
    for _ in range(reps):
        with tracer.operation(f"probe.{name}"), tracer.span(span):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _per_step_us(tracer, name, span, fn, dt, n_steps):
    t_end = n_steps * dt
    steps, _ = resolve_substeps(t_end, dt)
    seconds, _ = _median_time(tracer, name, span, lambda: fn(t_end), 3)
    return 1e6 * seconds / steps


def _gaussian(grid, amp, center):
    if grid.dim == 1:
        return SpectralField.from_function(grid, lambda x: amp * np.exp(-((x - center) ** 2)))
    return SpectralField.from_function(
        grid, lambda x, y: amp * np.exp(-((x - center) ** 2 + (y - center) ** 2)))


def probe_layers(tracer, seed: int, size: str, config_paths: list[Path]) -> dict:
    """Every per-layer probe metric: {name: (value, unit)}."""
    z = perturbations(seed)
    sizes = SIZES[size]
    toy = size == "toy"
    m = {}

    # dispersive / hyperbolic steppers on the evolve inputs
    grid = Grid(200.0, sizes["evolve"]["nodes"])
    zeta0 = _gaussian(grid, 0.01 * z["evolve_amp"], 200.0 * z["evolve_center"])
    zeros = SpectralField.zeros(grid)
    dx = grid.spacing[0]
    dt = 0.5 * 0.4 * dx / float(np.sqrt(P.g * (P.H + np.max(zeta0.values))))
    n_steps = 10 if toy else 100

    m["hyperbolic.sv_step_us"] = (_per_step_us(
        tracer, "sv_step", "hyperbolic.sv_evolve",
        lambda t: sv_evolve(SVState(zeta0, zeros), P, t, DtControl(dt=dt), n_out=1),
        dt, n_steps), "us")
    m["dispersive.abcd_step_us"] = (_per_step_us(
        tracer, "abcd_step", "dispersive.abcd_evolve",
        lambda t: abcd_evolve(BoussinesqState(zeta0, zeros), GOOD_PARAMS, P, t,
                              DtControl(dt=dt), n_out=1),
        dt, n_steps), "us")
    for model in ("kdv", "whitham", "whitham2"):
        m[f"dispersive.{model}_step_us"] = (_per_step_us(
            tracer, f"{model}_step", "dispersive.scalar_evolve",
            lambda t, model=model: scalar_evolve(ScalarWaveState(zeta0, 0.0, model), P, t,
                                                 DtControl(dt=dt), n_out=1),
            dt, n_steps), "us")
    evolve = sizes["evolve"]
    seconds, _ = _median_time(
        tracer, "scalar_evolve", "dispersive.scalar_evolve",
        lambda: scalar_evolve(ScalarWaveState(zeta0, 0.0, "kdv"), P, evolve["t_end"],
                              n_out=evolve["stride"]), 1)
    m["dispersive.scalar_evolve_s"] = (seconds, "s")

    # spectral substrate
    values = zeta0.values
    reps = 200
    seconds, _ = _median_time(
        tracer, "transform_1d", "spectral.transform",
        lambda: [SpectralField.from_hat(grid, SpectralField(grid, values).hat)
                 for _ in range(reps)], 5)
    m["spectral.transform_1d_us"] = (1e6 * seconds / reps, "us")
    n2 = sizes["snapshots"]["nodes"]
    grid2 = Grid(100.0, n2, dim=2)
    field2 = _gaussian(grid2, 0.01 * z["snap_amp"], 100.0 * z["snap_center"])
    reps2 = 10
    seconds, _ = _median_time(
        tracer, "transform_2d", "spectral.transform",
        lambda: [SpectralField.from_hat(grid2, SpectralField(grid2, field2.values).hat)
                 for _ in range(reps2)], 5)
    m["spectral.transform_2d_us"] = (1e6 * seconds / reps2, "us")

    # characteristics: the Hopf inputs
    hgrid = Grid(200.0, sizes["characteristics"]["nodes"])
    u0 = simple_wave_velocity(_gaussian(hgrid, z["hopf_amp"], 200.0 * z["hopf_center"]), P)
    points = np.linspace(-100.0, 100.0, 4096, endpoint=False)
    seconds, _ = _median_time(tracer, "evaluate", "spectral.evaluate",
                              lambda: SpectralField(hgrid, u0.values).evaluate(points), 3)
    m["spectral.evaluate_us_per_point"] = (1e6 * seconds / points.size, "us/point")
    seconds, _ = _median_time(tracer, "breaking_time", "hyperbolic.breaking_time",
                              lambda: breaking_time(u0), 5)
    m["hyperbolic.breaking_time_ms"] = (1e3 * seconds, "ms")
    calls = [0]
    evaluate = SpectralField.evaluate

    def counted(self, pts):
        calls[0] += 1
        return evaluate(self, pts)

    t_hopf = 0.3 * sizes["characteristics"]["t_end"]  # last snapshot before breaking
    SpectralField.evaluate = counted
    try:
        seconds, _ = _median_time(
            tracer, "hopf_solve", "hyperbolic.hopf_characteristic_solve",
            lambda: hopf_characteristic_solve(u0, P, t_hopf, hgrid.axis_coordinates(0)), 1)
    finally:
        SpectralField.evaluate = evaluate
    m["hyperbolic.hopf_solve_s"] = (seconds, "s")
    m["hyperbolic.hopf_calls"] = (calls[0], "count")

    # linear propagators on the snapshot inputs
    zeros2 = SpectralField.zeros(grid2)
    t_snap = sizes["snapshots"]["t_end"]
    seconds, _ = _median_time(tracer, "airy", "linear.airy_evolve",
                              lambda: airy_evolve(AiryState(field2, zeros2, 0.0), P, t_snap), 5)
    m["linear.airy_evolve_ms"] = (1e3 * seconds, "ms")
    seconds, _ = _median_time(tracer, "acoustic", "linear.acoustic_evolve",
                              lambda: acoustic_evolve(field2, zeros2, P, t_snap), 5)
    m["linear.acoustic_evolve_ms"] = (1e3 * seconds, "ms")

    # scenario parsing of the traced workload's configs
    seconds, _ = _median_time(tracer, "load", "scenarios.load_scenario",
                              lambda: [load_scenario(p) for p in config_paths], 5)
    m["scenarios.load_ms"] = (1e3 * seconds, "ms")

    # traveling-wave solvers on the solitary inputs
    n_lo, n_hi = sizes["solitary"]["nodes"]
    cb = z["boussinesq_speed"]
    for n, label in ((n_lo, "n1024"), (n_hi, "n2048")):
        seconds, sol = _median_time(
            tracer, f"boussinesq_{label}", "traveling.boussinesq_solitary_solve",
            lambda n=n: boussinesq_solitary_solve(GOOD_PARAMS, cb, P,
                                                  Grid(solitary_length(cb), n)), 1)
        m[f"traveling.boussinesq_solve_s.{label}"] = (seconds, "s")
    m["traveling.boussinesq_iterations"] = (sol.iterations, "count")
    _, line = time_child([str(HERE / "child.py"), "boussinesq-rss", str(n_hi), repr(cb)])
    m["traveling.boussinesq_rss_mb.n2048"] = (float(line), "MB")

    cw = z["whitham_speed"]
    wgrid = Grid(solitary_length(cw), n_hi)
    seconds, sol = _median_time(tracer, "petviashvili", "traveling.petviashvili_solve",
                                lambda: petviashvili_solve("whitham", cw, P, wgrid), 5)
    m["traveling.petviashvili_ms.n2048"] = (1e3 * seconds, "ms")
    m["traveling.petviashvili_iterations"] = (sol.iterations, "count")
    cgrid = Grid(solitary_length(1.05 * P.c0), n_lo)
    seconds, _ = _median_time(
        tracer, "continuation", "traveling.petviashvili_continuation",
        lambda: petviashvili_continuation("whitham", z["continuation_speed"], P, cgrid), 1)
    m["traveling.continuation_s"] = (seconds, "s")
    seconds, _ = _median_time(tracer, "classify", "dispersive.classify_abcd",
                              lambda: classify_abcd(GOOD_PARAMS, P), 5)
    m["dispersive.classify_abcd_ms"] = (1e3 * seconds, "ms")

    # CLI cold start in a fresh interpreter
    a, b, c, d = (repr(v) for v in (GOOD_PARAMS.a, GOOD_PARAMS.b, GOOD_PARAMS.c, GOOD_PARAMS.d))
    cold = [time_child(["-m", "wavemodels", "classify", "--a", a, "--b", b, "--c", c, "--d", d])[0]
            for _ in range(1 if toy else 3)]
    m["cli.cold_start_s"] = (statistics.median(cold), "s")
    return m

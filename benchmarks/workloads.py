"""The four benchmark workloads: inputs made from a seed, timed operations, checks.

Each workload is a list of operations run one after another by a single
caller.  An operation is one call into wavemodels (the part that is timed)
and a check of what it produced (not timed).  The seed only perturbs
amplitudes, centres and solitary speeds by a few percent; grids, horizons and
strides are fixed by the size ("full" for measurements, "toy" for the smoke
run).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wavemodels import (
    AbcdParams,
    AiryState,
    Grid,
    PhysicalParams,
    SpectralField,
    acoustic_evolve,
    airy_evolve,
    boussinesq_solitary_solve,
    boussinesq_steady_residual,
    kdv_steady_residual,
    petviashvili_continuation,
    petviashvili_solve,
    suggested_domain_length,
    whitham_steady_residual,
)
from wavemodels.scenarios import load_scenario, run

P = PhysicalParams()
GOOD = {"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0}
GOOD_PARAMS = AbcdParams(**GOOD)

# Bounds of the acceptance suite (tests/test_acceptance.py).
MASS_DRIFT = 1e-12  # criterion 9, absolute drift of the integral of zeta
L2_DRIFT = 1e-8  # criterion 9, relative drift of the integral of zeta^2
RESIDUAL = 1e-10  # criteria 8 and 11, solitary-wave residuals
PROPAGATOR = 1e-12  # criterion 2, exact linear propagators

SIZES = {
    "full": {
        "evolve": {"nodes": 2048, "t_end": 15.0, "stride": 10},
        "snapshots": {"nodes": 256, "t_end": 15.0, "stride": 10},
        "solitary": {"nodes": (1024, 2048), "run_nodes": 1024, "t_end": 2.0, "stride": 4},
        "characteristics": {"nodes": 1024, "t_end": 15.0, "stride": 10},
    },
    "toy": {
        "evolve": {"nodes": 1024, "t_end": 1.0, "stride": 2},
        "snapshots": {"nodes": 32, "t_end": 1.0, "stride": 2},
        "solitary": {"nodes": (256, 512), "run_nodes": 512, "t_end": 0.5, "stride": 2},
        "characteristics": {"nodes": 256, "t_end": 15.0, "stride": 10},
    },
}


class CheckError(Exception):
    """An operation's output is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    name: str
    span: str  # the layer call the operation makes, e.g. "scenarios.run"
    call: Callable[[Path], object]  # timed; gets a fresh output directory
    check: Callable[[object], None]  # raises CheckError


def perturbations(seed: int) -> dict:
    """Seed-derived factors: amplitudes +-3%, centres +-2% of L, speeds +-1%."""
    rng = random.Random(seed)

    def factor(scale):
        return 1.0 + scale * (2.0 * rng.random() - 1.0)

    return {
        "evolve_amp": factor(0.03),
        "evolve_center": 0.02 * (2.0 * rng.random() - 1.0),
        "snap_amp": factor(0.03),
        "snap_center": 0.02 * (2.0 * rng.random() - 1.0),
        "boussinesq_speed": 3.3 * factor(0.01),
        "whitham_speed": 3.3 * factor(0.01),
        "continuation_speed": 3.4 * factor(0.01),
        "traveling_speed": 3.3 * factor(0.01),
        "hopf_amp": 0.05 * factor(0.03),
        "hopf_center": 0.02 * (2.0 * rng.random() - 1.0),
    }


def solitary_length(speed: float) -> float:
    """Domain length for a solitary wave, as the CLI's solitary command picks it."""
    return max(suggested_domain_length(speed, P), 100.0)


def scenario_configs(workload: str, seed: int, size: str = "full") -> dict:
    """Scenario configs (schema version 1) of the workload's scenario runs."""
    z = perturbations(seed)
    s = SIZES[size][workload]
    out = {"stride": s["stride"]}
    if workload == "evolve":
        cfgs = {}
        for model in ("saint_venant", "boussinesq", "kdv", "whitham", "whitham2"):
            cfgs[model] = {
                "version": 1, "model": model,
                "abcd": GOOD if model == "boussinesq" else None,
                "grid": {"length": 200.0, "nodes": s["nodes"]},
                "initial": {"kind": "gaussian", "amplitude": 0.01 * z["evolve_amp"],
                            "width_parameter": 1.0, "center": 200.0 * z["evolve_center"]},
                "t_end": s["t_end"], "output": out,
            }
        return cfgs
    if workload == "snapshots":
        return {
            model: {
                "version": 1, "model": model, "dim": 2,
                "grid": {"length": 100.0, "nodes": s["nodes"]},
                "initial": {"kind": "gaussian", "amplitude": 0.01 * z["snap_amp"],
                            "width_parameter": 1.0, "center": 100.0 * z["snap_center"]},
                "t_end": s["t_end"], "output": out,
            }
            for model in ("airy", "acoustic")
        }
    if workload == "solitary":
        return {
            model: {
                "version": 1, "model": model,
                "abcd": GOOD if model == "boussinesq" else None,
                "grid": {"length": 200.0, "nodes": s["run_nodes"]},
                "initial": {"kind": "traveling_wave", "speed": z["traveling_speed"]},
                "t_end": s["t_end"], "output": out,
            }
            for model in ("kdv", "whitham", "boussinesq")
        }
    if workload == "characteristics":
        return {
            "hopf": {
                "version": 1, "model": "hopf",
                "grid": {"length": 200.0, "nodes": s["nodes"]},
                "initial": {"kind": "simple_wave", "amplitude": z["hopf_amp"],
                            "width_parameter": 1.0, "center": 200.0 * z["hopf_center"]},
                "t_end": s["t_end"], "output": out,
            }
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(configs: dict, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in configs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------- checks


def read_snapshot(path: Path, rows: int, header: list[str]) -> np.ndarray:
    """Parse a snapshot CSV back; require its header, shape and finiteness."""
    with open(path) as fh:
        got = fh.readline().strip().split(",")
    require(got == header, f"{path.name}: header {got}, expected {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape == (rows, len(header)),
            f"{path.name}: shape {data.shape}, expected {(rows, len(header))}")
    require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return data


_COLUMNS = {
    "acoustic": ["zeta_m"],
    "airy": ["zeta_m", "psi_m2_per_s"],
    "saint_venant": ["zeta_m", "u_m_per_s"],
    "hopf": ["zeta_m", "u_m_per_s"],
    "boussinesq": ["zeta_m", "u_m_per_s"],
    "kdv": ["zeta_m"],
    "whitham": ["zeta_m"],
    "whitham2": ["zeta_m"],
}


def read_run(result, scenario, expected_exit: int = 0, n_snapshots: int | None = None):
    """Snapshots of a scenario run, after checking exit code, count and shape."""
    require(result.exit_code == expected_exit,
            f"exit code {result.exit_code}, expected {expected_exit}")
    if n_snapshots is None:
        n_snapshots = scenario.output_stride + 1
    require(len(result.snapshot_paths) == n_snapshots,
            f"{len(result.snapshot_paths)} snapshots, expected {n_snapshots}")
    axes = ["x_m"] if scenario.dim == 1 else ["x_m", "y_m"]
    rows = int(np.prod(scenario.grid.shape))
    return [read_snapshot(p, rows, axes + _COLUMNS[scenario.model])
            for p in result.snapshot_paths]


def check_drift(snaps, column: int, cell: float, model: str, l2: bool):
    mass0 = float(np.sum(snaps[0][:, column])) * cell
    drift = max(abs(float(np.sum(s[:, column])) * cell - mass0) for s in snaps)
    require(drift < MASS_DRIFT, f"{model}: mass drift {drift:.3e} >= {MASS_DRIFT}")
    if l2:
        e0 = float(np.sum(snaps[0][:, column] ** 2)) * cell
        rel = max(abs(float(np.sum(s[:, column] ** 2)) * cell - e0) / e0 for s in snaps)
        require(rel < L2_DRIFT, f"{model}: L2 drift {rel:.3e} >= {L2_DRIFT}")


def check_residual(model: str, zeta, u, speed: float):
    if model == "boussinesq":
        r1, r2 = boussinesq_steady_residual(zeta, u, GOOD_PARAMS, speed, P)
        res = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    elif model == "kdv":
        res = float(np.max(np.abs(kdv_steady_residual(zeta, speed, P))))
    else:
        res = float(np.max(np.abs(whitham_steady_residual(zeta, speed, P))))
    require(res < RESIDUAL, f"{model} solitary residual {res:.3e} >= {RESIDUAL}")


# ----------------------------------------------------------- operations


def _run_op(name: str, scenario, check) -> Op:
    return Op(
        name=name,
        span="scenarios.run",
        call=lambda outdir: run(scenario, output_dir=outdir),
        check=check,
    )


def _evolve_ops(scenarios: dict) -> list[Op]:
    def checker(model, sc):
        def check(result):
            snaps = read_run(result, sc)
            if model in ("saint_venant", "boussinesq", "kdv", "whitham"):
                check_drift(snaps, 1, sc.grid.spacing[0], model, l2=model in ("kdv", "whitham"))
        return check

    return [_run_op(f"run.{m}", sc, checker(m, sc)) for m, sc in scenarios.items()]


def _snapshot_ops(scenarios: dict) -> list[Op]:
    def checker(model, sc):
        def check(result):
            snaps = read_run(result, sc)
            x, y = sc.grid.meshgrid()
            ini = sc.initial
            r2 = (x - ini.center) ** 2 + (y - ini.center) ** 2
            zeta0 = SpectralField(sc.grid, ini.amplitude * np.exp(-(ini.width_parameter**2) * r2))
            zeros = SpectralField.zeros(sc.grid)
            times = json.loads(result.manifest_path.read_text())["snapshot_times"]
            for snap, t in zip(snaps, times):
                if model == "airy":
                    st = airy_evolve(AiryState(zeta0, zeros, 0.0), sc.physical, t)
                    want = [st.zeta.values, st.psi.values]
                else:
                    want = [acoustic_evolve(zeta0, zeros, sc.physical, t).values]
                want = [x, y] + want
                err = max(float(np.max(np.abs(snap[:, j] - w.ravel())))
                          for j, w in enumerate(want))
                require(err <= PROPAGATOR,
                        f"{model} t={t}: differs from the direct call by {err:.3e}")
            if model == "airy":
                dx, dy = sc.grid.spacing
                check_drift(snaps, 2, dx * dy, model, l2=False)
        return check

    return [_run_op(f"run.{m}", sc, checker(m, sc)) for m, sc in scenarios.items()]


def _solitary_ops(scenarios: dict, seed: int, size: str) -> list[Op]:
    z = perturbations(seed)
    s = SIZES[size]["solitary"]
    ops = []

    cb = z["boussinesq_speed"]
    for n in s["nodes"]:
        grid = Grid(solitary_length(cb), n)

        def check(sol, cb=cb):
            check_residual("boussinesq", sol.profile_zeta, sol.profile_u, cb)

        ops.append(Op(f"boussinesq.n{n}", "traveling.boussinesq_solitary_solve",
                      lambda outdir, grid=grid, cb=cb:
                          boussinesq_solitary_solve(GOOD_PARAMS, cb, P, grid),
                      check))

    cw = z["whitham_speed"]
    for n in s["nodes"]:
        grid = Grid(solitary_length(cw), n)

        def check(sol, cw=cw):
            check_residual("whitham", sol.profile_zeta, None, cw)

        ops.append(Op(f"petviashvili.n{n}", "traveling.petviashvili_solve",
                      lambda outdir, grid=grid, cw=cw: petviashvili_solve("whitham", cw, P, grid),
                      check))

    target = z["continuation_speed"]
    cgrid = Grid(solitary_length(1.05 * P.c0), s["nodes"][0])

    def check_continuation(res):
        require(res.diverged_at is None, f"continuation diverged at {res.diverged_at}")
        require(res.reached_speed == target, f"continuation stopped at {res.reached_speed}")
        for sp, sol in zip(res.speeds, res.solutions):
            check_residual("whitham", sol.profile_zeta, None, sp)

    ops.append(Op("continuation", "traveling.petviashvili_continuation",
                  lambda outdir: petviashvili_continuation("whitham", target, P, cgrid),
                  check_continuation))

    def checker(model, sc):
        def check(result):
            snaps = read_run(result, sc)
            zeta = SpectralField(sc.grid, snaps[0][:, 1])
            u = SpectralField(sc.grid, snaps[0][:, 2]) if model == "boussinesq" else None
            check_residual(model, zeta, u, sc.initial.speed)
            if model in ("kdv", "whitham"):
                check_drift(snaps, 1, sc.grid.spacing[0], model, l2=True)
        return check

    ops += [_run_op(f"run.{m}", sc, checker(m, sc)) for m, sc in scenarios.items()]
    return ops


def _characteristics_ops(scenarios: dict) -> list[Op]:
    sc = scenarios["hopf"]

    def check(result):
        require(result.halt is not None and result.halt.reason == "breaking",
                f"halt {result.halt}, expected breaking")
        times = [sc.t_end * j / sc.output_stride for j in range(sc.output_stride + 1)]
        before = sum(1 for t in times if t < result.halt.time)
        read_run(result, sc, expected_exit=2, n_snapshots=before)

    return [_run_op("run.hopf", sc, check)]


def build_ops(workload: str, seed: int, config_paths: list[Path], size: str = "full") -> list[Op]:
    """Parse the workload's scenario configs and return its operations."""
    scenarios = {p.stem: load_scenario(p) for p in config_paths}
    if workload == "evolve":
        return _evolve_ops(scenarios)
    if workload == "snapshots":
        return _snapshot_ops(scenarios)
    if workload == "solitary":
        return _solitary_ops(scenarios, seed, size)
    if workload == "characteristics":
        return _characteristics_ops(scenarios)
    raise ValueError(f"unknown workload {workload!r}")

"""Scenario configuration, experiment drivers, and data export.

A scenario is a JSON document with a versioned schema (unknown keys are
rejected) selecting a model, physical parameters, grid, initial data, and
output policy.  ``run`` dispatches to the model's evolution operator and
writes snapshot CSV files plus a JSON manifest capturing the fully
resolved configuration; re-running from a manifest reproduces the
snapshot files byte for byte.  ``compare`` runs two scenarios on a common
grid with identical initial data and reports relative L2 differences of
the surface deformation over time.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from .dispersive import (
    AbcdParams,
    BoussinesqState,
    ScalarWaveState,
    abcd_evolve,
    classify_abcd,
    scalar_evolve,
)
from .errors import BreakingError, CavitationError, WavemodelsError
from .hyperbolic import (
    SVState,
    breaking_time,
    hopf_characteristic_solve,
    simple_wave_elevation,
    simple_wave_velocity,
    sv_evolve,
)
from .linear import AiryState, acoustic_evolve, airy_evolve
from .physics import PhysicalParams
from .spectral import Grid, SpectralField, derivative
from .stepping import DtControl, HaltEvent, snapshot_times
from .traveling import boussinesq_solitary_solve, kdv_soliton, petviashvili_solve

__all__ = [
    "MODELS",
    "InitialData",
    "Scenario",
    "ComparisonReport",
    "RunResult",
    "ScenarioError",
    "load_scenario",
    "run",
    "compare",
    "OUTPUT_DIR_ENV",
]

MODELS = (
    "acoustic",
    "airy",
    "saint_venant",
    "hopf",
    "boussinesq",
    "kdv",
    "whitham",
    "whitham2",
)
_KINDS = ("gaussian", "file", "traveling_wave", "simple_wave")
_COMPANIONS = ("zero_velocity", "from_simple_wave_relation", "explicit")
SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "WAVEMODELS_OUTDIR"

_FMT = "{:.17g}"  # all emitted floats carry 17 significant digits


class ScenarioError(WavemodelsError, ValueError):
    """Configuration is structurally or physically invalid."""


def _require_finite(value, where: str):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")


def _reject_unknown(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")


@dataclass(frozen=True)
class InitialData:
    """Initial-data family; the gaussian kind is amplitude*exp(-(w*(x-center))^2)."""

    kind: str = "gaussian"
    amplitude: float = 0.01
    width_parameter: float = 1.0
    center: float = 0.0
    companion: str = "zero_velocity"
    speed: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScenarioError(f"initial.kind must be one of {_KINDS}, got {self.kind!r}")
        if self.companion not in _COMPANIONS:
            raise ScenarioError(
                f"initial.companion must be one of {_COMPANIONS}, got {self.companion!r}"
            )
        for name in ("amplitude", "width_parameter", "center"):
            _require_finite(getattr(self, name), f"initial.{name}")
        if self.speed is not None:
            _require_finite(self.speed, "initial.speed")
        if self.width_parameter <= 0.0:
            raise ScenarioError("initial.width_parameter must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "InitialData":
        _reject_unknown(
            raw,
            {"kind", "amplitude", "width_parameter", "center", "companion", "speed", "path"},
            "initial",
        )
        return cls(**raw)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "width_parameter": self.width_parameter,
            "center": self.center,
            "companion": self.companion,
            "speed": self.speed,
            "path": self.path,
        }


@dataclass(frozen=True)
class Scenario:
    model: str
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    dim: int = 1
    abcd: AbcdParams | None = None
    grid: Grid | None = None
    initial: InitialData = field(default_factory=InitialData)
    t_end: float = 10.0
    output_stride: int = 10
    output_directory: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.dim == 2 and self.model not in ("acoustic", "airy"):
            raise ScenarioError("dim = 2 is only supported for acoustic and airy")
        if self.model == "boussinesq":
            if self.abcd is None:
                raise ScenarioError("model 'boussinesq' requires abcd parameters")
            verdict = classify_abcd(self.abcd, self.physical)
            if verdict.verdict != "well_posed":
                raise ScenarioError(
                    f"abcd parameters are ill-posed (witness k = {verdict.witness_wavenumber})"
                )
        _require_finite(self.t_end, "t_end")
        if self.t_end < 0.0:
            raise ScenarioError("t_end must be nonnegative")
        if isinstance(self.output_stride, bool) or not isinstance(
            self.output_stride, numbers.Integral
        ):
            raise ScenarioError(f"output.stride must be an integer, got {self.output_stride!r}")
        if self.output_stride < 1:
            raise ScenarioError("output.stride must be at least 1")
        if self.grid is None:
            default = Grid(200.0, 1024) if self.dim == 1 else Grid(100.0, 256, dim=2)
            object.__setattr__(self, "grid", default)
        if self.grid.dim != self.dim:
            raise ScenarioError(f"grid dim {self.grid.dim} does not match scenario dim {self.dim}")

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        _reject_unknown(
            raw,
            {"version", "model", "dim", "physical", "abcd", "grid", "initial", "t_end", "output"},
            "scenario",
        )
        version = raw.get("version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema version {version!r}")
        if "model" not in raw:
            raise ScenarioError("scenario requires a 'model' key")

        phys_raw = raw.get("physical", {})
        _reject_unknown(phys_raw, {"g", "H"}, "physical")
        physical = PhysicalParams(**phys_raw)

        abcd = None
        if raw.get("abcd") is not None:
            abcd_raw = raw["abcd"]
            _reject_unknown(abcd_raw, {"a", "b", "c", "d"}, "abcd")
            abcd = AbcdParams(**abcd_raw)

        dim = raw.get("dim", 1)
        grid = None
        if raw.get("grid") is not None:
            grid_raw = raw["grid"]
            _reject_unknown(grid_raw, {"length", "nodes"}, "grid")
            grid = Grid(grid_raw["length"], grid_raw["nodes"], dim=dim)

        initial = InitialData.from_dict(raw.get("initial", {}))

        out_raw = raw.get("output", {})
        _reject_unknown(out_raw, {"stride", "directory"}, "output")

        return cls(
            model=raw["model"],
            physical=physical,
            dim=dim,
            abcd=abcd,
            grid=grid,
            initial=initial,
            t_end=raw.get("t_end", 10.0),
            output_stride=out_raw.get("stride", 10),
            output_directory=out_raw.get("directory"),
        )

    def to_dict(self) -> dict:
        out = {
            "version": SCHEMA_VERSION,
            "model": self.model,
            "dim": self.dim,
            "physical": {"g": self.physical.g, "H": self.physical.H},
            "abcd": None
            if self.abcd is None
            else {"a": self.abcd.a, "b": self.abcd.b, "c": self.abcd.c, "d": self.abcd.d},
            "grid": {
                "length": list(self.grid.length) if self.dim > 1 else self.grid.length[0],
                "nodes": list(self.grid.nodes) if self.dim > 1 else self.grid.nodes[0],
            },
            "initial": self.initial.to_dict(),
            "t_end": self.t_end,
            "output": {"stride": self.output_stride, "directory": self.output_directory},
        }
        return out


def load_scenario(path) -> Scenario:
    """Load a scenario from a config file or from a run manifest."""
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "scenario" in raw:  # manifest round-trip
        raw = raw["scenario"]
    return Scenario.from_dict(raw)


def _gaussian_field(grid: Grid, amplitude: float, width: float, center: float) -> SpectralField:
    if grid.dim == 1:
        x = grid.meshgrid()[0]
        r2 = (x - center) ** 2
    else:
        x, y = grid.meshgrid()
        r2 = (x - center) ** 2 + (y - center) ** 2
    return SpectralField(grid, amplitude * np.exp(-(width**2) * r2))


def _file_column(path: str, grid: Grid, name: str) -> SpectralField:
    """One named column of a file of initial data, checked against the grid."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = list(data.dtype.names)
    if names[0] != "x_m":
        raise ScenarioError(f"file initial data must start with an x_m column, got {names}")
    if name not in names[1:]:
        raise ScenarioError(f"file initial data needs a {name} column, found {names}")
    x = np.asarray(data["x_m"], dtype=float)
    xs = grid.axis_coordinates(0)
    if x.shape != xs.shape or np.max(np.abs(x - xs)) > 1e-8 * grid.spacing[0]:
        raise ScenarioError("file x column does not match the scenario grid")
    return SpectralField(grid, np.asarray(data[name], dtype=float))


def _build_initial(sc: Scenario):
    """Materialize the model state at t = 0 from the InitialData record."""
    ini, grid, p = sc.initial, sc.grid, sc.physical
    zeros = SpectralField.zeros(grid)

    if ini.kind == "traveling_wave":
        if ini.speed is None:
            raise ScenarioError("traveling_wave initial data requires a speed")
        if sc.model == "kdv":
            zeta = kdv_soliton(ini.speed, p, grid).profile_zeta
            return ScalarWaveState(zeta, 0.0, "kdv")
        if sc.model == "whitham":
            zeta = petviashvili_solve("whitham", ini.speed, p, grid).profile_zeta
            return ScalarWaveState(zeta, 0.0, "whitham")
        if sc.model == "boussinesq":
            sol = boussinesq_solitary_solve(sc.abcd, ini.speed, p, grid)
            return BoussinesqState(sol.profile_zeta, sol.profile_u, 0.0)
        raise ScenarioError(f"traveling_wave initial data unsupported for model {sc.model!r}")

    if ini.kind == "file":
        if ini.path is None:
            raise ScenarioError("file initial data requires a path")
        zeta = _file_column(ini.path, grid, "zeta_m")
    else:  # gaussian or simple_wave
        zeta = _gaussian_field(grid, ini.amplitude, ini.width_parameter, ini.center)

    wants_simple_wave = ini.kind == "simple_wave" or ini.companion == "from_simple_wave_relation"
    if wants_simple_wave and sc.model not in ("saint_venant", "hopf"):
        raise ScenarioError(
            "the simple-wave velocity relation applies to saint_venant and hopf only"
        )

    if sc.model == "acoustic":
        if ini.companion == "explicit" and ini.kind == "file":
            zeta_t = _file_column(ini.path, grid, "zeta_t_m_per_s")
        else:
            zeta_t = zeros
        return (zeta, zeta_t)
    if sc.model == "airy":
        if ini.companion == "explicit" and ini.kind == "file":
            psi = _file_column(ini.path, grid, "psi_m2_per_s")
        else:
            psi = zeros
        return AiryState(zeta, psi, 0.0)
    if sc.model in ("saint_venant", "hopf"):
        if wants_simple_wave:
            u = simple_wave_velocity(zeta, p)
        elif ini.companion == "explicit" and ini.kind == "file":
            u = _file_column(ini.path, grid, "u_m_per_s")
        else:
            u = zeros
        return SVState(zeta, u, 0.0)
    if sc.model == "boussinesq":
        if ini.companion == "explicit" and ini.kind == "file":
            u = _file_column(ini.path, grid, "u_m_per_s")
        else:
            u = zeros
        return BoussinesqState(zeta, u, 0.0)
    return ScalarWaveState(zeta, 0.0, sc.model)


def _columns_for(sc: Scenario, snap) -> dict[str, np.ndarray]:
    if sc.model == "airy":
        return {"zeta_m": snap.zeta.values, "psi_m2_per_s": snap.psi.values}
    if sc.model in ("saint_venant", "hopf", "boussinesq"):
        return {"zeta_m": snap.zeta.values, "u_m_per_s": snap.u.values}
    return {"zeta_m": snap.zeta.values}


def _evolve_series(sc: Scenario):
    """All snapshots of a scenario: (times, per-time column dicts, halt)."""
    state0 = _build_initial(sc)
    times = snapshot_times(sc.t_end, sc.output_stride)
    p = sc.physical

    if sc.model == "acoustic":
        zeta0, zeta_t0 = state0
        snaps = [
            {"zeta_m": acoustic_evolve(zeta0, zeta_t0, p, t).values} for t in times
        ]
        return times, snaps, None

    if sc.model == "airy":
        snaps = []
        for t in times:
            st = airy_evolve(state0, p, t)
            snaps.append(_columns_for(sc, st))
        return times, snaps, None

    if sc.model == "hopf":
        u0 = state0.u
        t_star = breaking_time(u0)
        xs = sc.grid.axis_coordinates(0)
        snaps, kept = [], []
        halt = None
        for t in times:
            try:
                u_t = hopf_characteristic_solve(u0, p, t, xs) if t > 0 else u0.values
            except BreakingError:  # at or past t_star, or a non-monotone foot map
                du0 = derivative(u0, 0, 1).values
                j = int(np.argmin(du0))
                foot = xs[j]
                halt = HaltEvent(
                    reason="breaking",
                    time=t_star,
                    location=float(foot + (p.c0 + 1.5 * u0.values[j]) * t_star),
                    max_gradient=float("inf"),
                    breaking_time_estimate=t_star,
                )
                break
            z_t = simple_wave_elevation(u_t, p)
            snaps.append({"zeta_m": z_t, "u_m_per_s": u_t})
            kept.append(t)
        return kept, snaps, halt

    dt_control = DtControl()
    try:
        if sc.model == "saint_venant":
            traj = sv_evolve(state0, p, sc.t_end, dt_control, n_out=sc.output_stride)
        elif sc.model == "boussinesq":
            traj = abcd_evolve(state0, sc.abcd, p, sc.t_end, dt_control, n_out=sc.output_stride)
        else:
            traj = scalar_evolve(state0, p, sc.t_end, None, n_out=sc.output_stride)
    except CavitationError as err:
        traj = err.partial_trajectory
        if traj is None:  # the initial data already cavitates
            raise

    snaps = [_columns_for(sc, s) for s in traj.states]
    return [s.time for s in traj.states], snaps, traj.halt


@dataclass
class RunResult:
    exit_code: int
    manifest_path: Path
    snapshot_paths: list
    halt: HaltEvent | None


def _write_snapshot(path: Path, grid: Grid, columns: dict[str, np.ndarray]):
    names = list(columns)
    with open(path, "w", newline="\n") as fh:
        if grid.dim == 1:
            fh.write(",".join(["x_m"] + names) + "\n")
            xs = grid.axis_coordinates(0)
            cols = [xs] + [columns[n] for n in names]
            for row in zip(*cols):
                fh.write(",".join(_FMT.format(v) for v in row) + "\n")
        else:
            fh.write(",".join(["x_m", "y_m"] + names) + "\n")
            x, y = grid.meshgrid()
            flat = [x.ravel(), y.ravel()] + [columns[n].ravel() for n in names]
            for row in zip(*flat):
                fh.write(",".join(_FMT.format(v) for v in row) + "\n")


def _halt_to_dict(halt: HaltEvent | None):
    if halt is None:
        return None
    out = {"reason": halt.reason}
    for name in ("time", "location", "max_gradient", "breaking_time_estimate"):
        value = getattr(halt, name)
        # strict JSON has no Infinity or NaN: a non-finite field is written as null
        out[name] = value if value is not None and math.isfinite(value) else None
    return out


def run(scenario: Scenario, output_dir=None) -> RunResult:
    """Run a scenario; write snapshot CSVs and a manifest.

    Exit code 0 on completion, 2 on a halt (breaking, cavitation, or a
    non-finite state) with partial output.  The output directory resolves as:
    WAVEMODELS_OUTDIR environment variable, then the ``output_dir``
    argument, then the scenario's output.directory, then the cwd.
    """
    t_start = time.perf_counter()
    target = os.environ.get(OUTPUT_DIR_ENV) or output_dir or scenario.output_directory or "."
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)

    times, snaps, halt = _evolve_series(scenario)

    snapshot_paths = []
    for idx, columns in enumerate(snaps):
        path = target / f"snapshot_{idx:04d}.csv"
        _write_snapshot(path, scenario.grid, columns)
        snapshot_paths.append(path)

    manifest = {
        "version": SCHEMA_VERSION,
        "generator": "wavemodels",
        "package_version": _package_version,
        "scenario": scenario.to_dict(),
        "snapshot_files": [p.name for p in snapshot_paths],
        "snapshot_times": times,
        "halt": _halt_to_dict(halt),
        "exit_code": 2 if halt is not None else 0,
        "timing_seconds": time.perf_counter() - t_start,
    }
    manifest_path = target / "manifest.json"
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        exit_code=2 if halt is not None else 0,
        manifest_path=manifest_path,
        snapshot_paths=snapshot_paths,
        halt=halt,
    )


@dataclass
class ComparisonReport:
    """Relative L2 differences of zeta between two models over shared times."""

    model_a: str
    model_b: str
    times: list
    l2_relative_differences: list

    @property
    def summary(self) -> float:
        return max(self.l2_relative_differences)

    def to_dict(self) -> dict:
        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "times": self.times,
            "l2_relative_differences": self.l2_relative_differences,
            "summary": self.summary,
        }


def compare(scenario_a: Scenario, scenario_b: Scenario, shared_initial: InitialData) -> ComparisonReport:
    """Run two scenarios with identical grids and initial data; diff zeta.

    No interpolation is performed: the grids and horizons must match
    exactly, and differences are computed mode-for-mode on the shared grid.
    """
    if scenario_a.grid != scenario_b.grid:
        raise ScenarioError("compare requires identical grids")
    if scenario_a.t_end != scenario_b.t_end:
        raise ScenarioError("compare requires identical t_end")
    if scenario_a.output_stride != scenario_b.output_stride:
        raise ScenarioError("compare requires identical output stride")

    sa = Scenario(**{**_scenario_kwargs(scenario_a), "initial": shared_initial})
    sb = Scenario(**{**_scenario_kwargs(scenario_b), "initial": shared_initial})

    times_a, snaps_a, halt_a = _evolve_series(sa)
    times_b, snaps_b, halt_b = _evolve_series(sb)
    if halt_a is not None or halt_b is not None:
        raise ScenarioError("compare requires both runs to complete without halting")

    diffs = []
    for ca, cb in zip(snaps_a, snaps_b):
        za, zb = ca["zeta_m"], cb["zeta_m"]
        denom = max(float(np.linalg.norm(za)), float(np.linalg.norm(zb)), 1e-300)
        diffs.append(float(np.linalg.norm(za - zb)) / denom)
    return ComparisonReport(
        model_a=sa.model, model_b=sb.model, times=list(times_a), l2_relative_differences=diffs
    )


def _scenario_kwargs(sc: Scenario) -> dict:
    return {
        "model": sc.model,
        "physical": sc.physical,
        "dim": sc.dim,
        "abcd": sc.abcd,
        "grid": sc.grid,
        "initial": sc.initial,
        "t_end": sc.t_end,
        "output_stride": sc.output_stride,
        "output_directory": sc.output_directory,
    }

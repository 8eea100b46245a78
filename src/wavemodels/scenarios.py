"""Scenario configuration, experiment drivers, and data export.

A scenario is a JSON document with a versioned schema (unknown keys are
rejected) selecting a model, physical parameters, grid, initial data, and
output policy.  ``run`` dispatches to the model's evolution operator and
writes snapshot CSV files plus a JSON manifest capturing the fully
resolved configuration; re-running from a manifest reproduces the
snapshot files byte for byte.  ``compare`` runs two scenarios on a common
grid with identical initial data and reports relative L2 differences of
the surface deformation over time.

Every model is one row of the ``_MODELS`` table: its state type, the name
of its second field, the fields it writes, and its run function.  Building
the initial state, evolving it, writing its columns, the ``MODELS`` names
and the CLI's solitary-wave models all read that row, so adding a model is
adding one row.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

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
from .stepping import DtControl, HaltEvent, Trajectory, snapshot_times
from .traveling import solitary_wave

__all__ = [
    "MODELS",
    "SOLITARY_MODELS",
    "InitialData",
    "Scenario",
    "ComparisonReport",
    "RunResult",
    "ScenarioError",
    "load_scenario",
    "run",
    "compare",
    "write_rows",
    "OUTPUT_DIR_ENV",
]

_KINDS = ("gaussian", "file", "traveling_wave", "simple_wave")
_COMPANIONS = ("zero_velocity", "from_simple_wave_relation", "explicit")
SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "WAVEMODELS_OUTDIR"

FLOAT_FORMAT = "%.17g"  # all emitted floats carry 17 significant digits
_BLOCK_ROWS = 4096  # rows formatted per write: bounds the memory of one string


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
        _reject_unknown(raw, {f.name for f in fields(cls)}, "initial")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


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
        if self.dim == 2 and not _MODELS[self.model].two_d:
            raise ScenarioError(f"dim = 2 is only supported for {_model_names(lambda m: m.two_d)}")
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
        for name, value in phys_raw.items():
            _require_finite(value, f"physical.{name}")
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
            missing = sorted({"length", "nodes"} - set(grid_raw))
            if missing:
                raise ScenarioError(f"grid is missing key(s): {', '.join(missing)}")
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
        return {
            "version": SCHEMA_VERSION,
            "model": self.model,
            "dim": self.dim,
            "physical": asdict(self.physical),
            "abcd": None if self.abcd is None else asdict(self.abcd),
            "grid": {
                "length": list(self.grid.length) if self.dim > 1 else self.grid.length[0],
                "nodes": list(self.grid.nodes) if self.dim > 1 else self.grid.nodes[0],
            },
            "initial": self.initial.to_dict(),
            "t_end": self.t_end,
            "output": {"stride": self.output_stride, "directory": self.output_directory},
        }


def load_scenario(path) -> Scenario:
    """Load a scenario from a config file or from a run manifest."""
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "scenario" in raw:  # manifest round-trip
        raw = raw["scenario"]
    return Scenario.from_dict(raw)


def _gaussian_field(grid: Grid, amplitude: float, width: float, center: float) -> SpectralField:
    r2 = sum((x - center) ** 2 for x in grid.meshgrid())
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
    # written so that a NaN in x fails it
    if x.shape != xs.shape or not np.max(np.abs(x - xs)) <= 1e-8 * grid.spacing[0]:
        raise ScenarioError("file x column does not match the scenario grid")
    values = np.asarray(data[name], dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # genfromtxt reads a non-numeric cell as NaN
        raise ScenarioError(f"file initial data column {name} holds a non-finite or "
                            f"non-numeric value in data row {int(bad[0]) + 1}")
    return SpectralField(grid, values)


@dataclass
class _AcousticState:
    zeta: SpectralField
    zeta_t: SpectralField | None  # None in the snapshots, which write zeta only
    time: float = 0.0


@dataclass(frozen=True)
class _Model:
    """One model: built as state(zeta, second, 0.0), or state(zeta, 0.0, name)
    without a second field; run(scenario, state0) returns a Trajectory whose
    states carry the ``writes`` fields.  Runs look solvers up as module
    globals when called, so a solver patched on this module is the one run.
    """

    state: type
    second: str | None  # "zeta_t", "psi", "u", or None for a scalar model
    writes: tuple
    run: Callable
    two_d: bool = False
    solitary: bool = False  # takes traveling_wave initial data


# state field -> column name, in file initial data and in the snapshot CSVs
_COLUMNS = {"zeta": "zeta_m", "psi": "psi_m2_per_s", "u": "u_m_per_s", "zeta_t": "zeta_t_m_per_s"}


def _hopf_run(sc: Scenario, state0: SVState) -> Trajectory:
    """Simple waves along characteristics; halts at breaking, with no state past it."""
    p, u0 = sc.physical, state0.u
    t_star = breaking_time(u0)
    xs = sc.grid.axis_coordinates(0)
    traj = Trajectory()
    for t in snapshot_times(sc.t_end, sc.output_stride):
        try:
            u_t = hopf_characteristic_solve(u0, p, t, xs) if t > 0 else u0.values
        except BreakingError:  # at or past t_star, or a non-monotone foot map
            j = int(np.argmin(derivative(u0, 0, 1).values))
            location = float(xs[j] + (p.c0 + 1.5 * u0.values[j]) * t_star)
            traj.halt = HaltEvent(reason="breaking", time=t_star, location=location,
                                  max_gradient=math.inf, breaking_time_estimate=t_star)
            break
        u = SpectralField(sc.grid, u_t)
        traj.states.append(SVState(simple_wave_elevation(u, p), u, t))
    return traj


def _scalar_run(sc: Scenario, state0: ScalarWaveState) -> Trajectory:
    return scalar_evolve(state0, sc.physical, sc.t_end, None, n_out=sc.output_stride)


_MODELS = {
    "acoustic": _Model(_AcousticState, "zeta_t", ("zeta",), lambda sc, s: Trajectory([
        _AcousticState(acoustic_evolve(s.zeta, s.zeta_t, sc.physical, t), None, t)
        for t in snapshot_times(sc.t_end, sc.output_stride)]), two_d=True),
    "airy": _Model(AiryState, "psi", ("zeta", "psi"), lambda sc, s: Trajectory([
        airy_evolve(s, sc.physical, t) for t in snapshot_times(sc.t_end, sc.output_stride)]),
        two_d=True),
    "saint_venant": _Model(SVState, "u", ("zeta", "u"), lambda sc, s: sv_evolve(
        s, sc.physical, sc.t_end, DtControl(), n_out=sc.output_stride)),
    "hopf": _Model(SVState, "u", ("zeta", "u"), _hopf_run),
    "boussinesq": _Model(BoussinesqState, "u", ("zeta", "u"), lambda sc, s: abcd_evolve(
        s, sc.abcd, sc.physical, sc.t_end, DtControl(), n_out=sc.output_stride), solitary=True),
    "kdv": _Model(ScalarWaveState, None, ("zeta",), _scalar_run, solitary=True),
    "whitham": _Model(ScalarWaveState, None, ("zeta",), _scalar_run, solitary=True),
    "whitham2": _Model(ScalarWaveState, None, ("zeta",), _scalar_run),
}
MODELS = tuple(_MODELS)
SOLITARY_MODELS = tuple(name for name, m in _MODELS.items() if m.solitary)


def _model_names(test) -> str:
    return " and ".join(name for name, m in _MODELS.items() if test(m))


def _build_initial(sc: Scenario):
    """Materialize the model state at t = 0 from the InitialData record."""
    ini, grid, p = sc.initial, sc.grid, sc.physical
    model = _MODELS[sc.model]

    if ini.kind == "traveling_wave":
        if ini.speed is None:
            raise ScenarioError("traveling_wave initial data requires a speed")
        if not model.solitary:
            raise ScenarioError(f"traveling_wave initial data unsupported for model {sc.model!r}")
        sol = solitary_wave(sc.model, ini.speed, p, grid, sc.abcd)
        zeta, second = sol.profile_zeta, sol.profile_u
    else:
        if ini.kind == "file":
            if ini.path is None:
                raise ScenarioError("file initial data requires a path")
            zeta = _file_column(ini.path, grid, "zeta_m")
        else:  # gaussian or simple_wave
            zeta = _gaussian_field(grid, ini.amplitude, ini.width_parameter, ini.center)

        # the simple-wave relation pairs zeta with the shallow-water velocity u
        if ini.kind == "simple_wave" or ini.companion == "from_simple_wave_relation":
            if model.state is not SVState:
                names = _model_names(lambda m: m.state is SVState)
                raise ScenarioError(f"the simple-wave velocity relation applies to {names} only")
            second = simple_wave_velocity(zeta, p)
        elif ini.companion == "explicit" and ini.kind == "file" and model.second is not None:
            second = _file_column(ini.path, grid, _COLUMNS[model.second])
        else:
            second = SpectralField.zeros(grid)  # unused by a scalar model

    if model.second is None:
        return model.state(zeta, 0.0, sc.model)
    return model.state(zeta, second, 0.0)


def _evolve_series(sc: Scenario):
    """All snapshots of a scenario: (times, per-time column dicts, halt)."""
    model = _MODELS[sc.model]
    state0 = _build_initial(sc)
    try:
        traj = model.run(sc, state0)
    except CavitationError as err:
        traj = err.partial_trajectory
        if traj is None:  # the initial data already cavitates
            raise
    snaps = [{_COLUMNS[f]: getattr(s, f).values for f in model.writes} for s in traj.states]
    return traj.times, snaps, traj.halt


@dataclass
class RunResult:
    exit_code: int
    manifest_path: Path
    snapshot_paths: list
    halt: HaltEvent | None


def write_rows(stream, columns):
    """Write equal-length columns as CSV rows of FLOAT_FORMAT fields.

    Rows are formatted a block at a time by one %-operation per block, so
    a large table never sits in memory as one string.
    """
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_snapshot(path: Path, grid: Grid, columns: dict[str, np.ndarray]):
    names = list(columns)
    axes = ["x_m"] if grid.dim == 1 else ["x_m", "y_m"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(axes + names) + "\n")
        coords = [x.ravel() for x in grid.meshgrid()]
        write_rows(fh, coords + [columns[n].ravel() for n in names])


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
    times, snaps, halt = _evolve_series(scenario)

    # made only now, so that a run failing with exit 1 leaves no directory behind
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)

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
        return {**asdict(self), "summary": self.summary}


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

    sa = replace(scenario_a, initial=shared_initial)
    sb = replace(scenario_b, initial=shared_initial)

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


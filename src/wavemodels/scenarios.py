"""Scenario configuration, experiment drivers, and data export.

A scenario is a JSON document with a versioned schema selecting a model,
physical parameters, grid, initial data, and output policy.  ``run``
dispatches to the model's evolution operator and writes snapshot CSV files
plus a JSON manifest capturing the fully resolved configuration;
re-running from a manifest reproduces the snapshot files byte for byte.
``compare`` runs two scenarios on a common grid with identical initial
data and reports the relative L2 differences of zeta over time.

Every key of the schema is one entry of the ``_SCHEMA`` table, with its
JSON type; ``_read`` checks a JSON document and a directly built dataclass
against it.  Every model is one row of the ``_MODELS`` table: its state
type, the name of its second field, the fields it writes, and its run
function.  Building the initial state, evolving it, writing its columns and
the ``MODELS`` names all read that row, so adding a model is adding one
row.  The models with solitary waves, and how each is solved, come from
``traveling.SOLITARY_METHODS``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__ as _package_version
from ._fork import fan_out, worker_count
from ._format import csv_rows, lead_text
from .dispersive import AbcdParams, ScalarWaveState, abcd_evolve, require_well_posed, scalar_evolve
from .errors import IllPosedError, WavemodelsError
from .hyperbolic import SVState, hopf_evolve, simple_wave_velocity, sv_evolve
from .linear import AiryState, acoustic_evolve, airy_evolve
from .physics import PhysicalParams
from .spectral import Grid, SpectralField, spectral_tail
from .stepping import DtControl, HaltEvent, Trajectory, snapshot_times
from .traveling import MAX_SPECTRAL_TAIL, SOLITARY_METHODS, solitary_wave

__all__ = [
    "MODELS",
    "SOLITARY_MODELS",
    "InitialData",
    "Scenario",
    "ComparisonReport",
    "RunResult",
    "ScenarioError",
    "load_scenario",
    "read_csv_column",
    "run",
    "compare",
    "write_rows",
    "OUTPUT_DIR_ENV",
]

_KINDS = ("gaussian", "file", "traveling_wave", "simple_wave")
_COMPANIONS = ("zero_velocity", "from_simple_wave_relation", "explicit")
SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "WAVEMODELS_OUTDIR"

_BLOCK_ROWS = 4096  # rows formatted per write: bounds the memory of one string
# Field values in the snapshots of a run (files x nodes x columns) from which
# _write_snapshots forks writers.  Measured on a 2-core Linux machine, median
# of 11-21 alternating passes: forked writers cost 6-9 ms more than writing
# inline on runs of 5,120-10,240 values (fork, copy-on-write faults, join),
# and writing inline costs 0.26-0.38 us per value above ~4.5e4 values.  Two
# writers save at most half of that, so forking pays from 2 x 6-9 ms /
# 0.26-0.38 us = 3e4-7e4 values when the second core is free; with it
# shared, forking lost 5-10 ms at 1.8e5 values in some rounds and won 16-42
# ms in others.  2^17 = 1.3e5 sits above that: the 1-D benchmark runs
# (<= 4.5e4 values) write inline, and the 256^2 2-D runs (7.2e5 and 1.4e6)
# fork, saving ~40% of the write when the second core is free.
_FORK_WRITE_VALUES = 2**17


class ScenarioError(WavemodelsError, ValueError):
    """Configuration is structurally or physically invalid."""


# section -> key -> its JSON type, then "required" (must be given), "null" (may
# be null) or "per-axis" (may be a list of one value per axis, as 2-D manifests
# write the grid).  An absent key takes its dataclass default.
_SCHEMA = {
    "scenario": {"version": "integer", "model": "string required", "dim": "integer",
                 "physical": "object", "abcd": "object null", "grid": "object null",
                 "initial": "object", "t_end": "number", "output": "object"},
    "physical": {"g": "number", "H": "number"},
    "abcd": dict.fromkeys("abcd", "number required"),
    "grid": {"length": "number required per-axis", "nodes": "integer required per-axis"},
    "initial": {"kind": "string", "amplitude": "number", "width_parameter": "number",
                "center": "number", "companion": "string", "speed": "number null",
                "path": "string null"},
    "output": {"stride": "integer", "directory": "string null"},
}
_JSON_TYPES = {  # JSON type -> (its class, its name in messages)
    "number": (numbers.Real, "a finite number"), "integer": (numbers.Integral, "an integer"),
    "string": (str, "a string"), "object": (dict, "a JSON object")}


def _read(section: str, raw) -> dict:
    """``raw``, checked to be a JSON object that holds ``section``'s _SCHEMA."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{section} must be a JSON object, got {type(raw).__name__}")
    keys = _SCHEMA[section]
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown key(s) in {section}: {', '.join(unknown)}")
    missing = [key for key, spec in keys.items() if "required" in spec and key not in raw]
    if missing:
        raise ScenarioError(f"{section} is missing key(s): {', '.join(missing)}")
    for key, value in raw.items():
        json_type, *flags = keys[key].split()
        cls, name = _JSON_TYPES[json_type]
        items = value if "per-axis" in flags and isinstance(value, list) else [value]
        # a bool is no number or integer; the bound fails NaN, +-inf, ints beyond floats
        if not (value is None and "null" in flags or all(
                isinstance(v, cls) and not isinstance(v, bool)
                and (cls is not numbers.Real or abs(v) <= sys.float_info.max) for v in items)):
            where = key if section == "scenario" else f"{section}.{key}"
            raise ScenarioError(f"{where} must be {name}, got {value!r}")
    return raw


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
        _read("initial", self.to_dict())
        for key, allowed in (("kind", _KINDS), ("companion", _COMPANIONS)):
            if getattr(self, key) not in allowed:
                raise ScenarioError(f"initial.{key} must be one of {allowed}, "
                                    f"got {getattr(self, key)!r}")
        if self.width_parameter <= 0.0:
            raise ScenarioError("initial.width_parameter must be positive")
        if self.companion == "explicit" and self.kind != "file":
            raise ScenarioError("initial.companion 'explicit' reads the second field from the "
                                "file's column, so it needs initial.kind 'file', "
                                f"not {self.kind!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "InitialData":
        return cls(**_read("initial", raw))

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
        _read("scenario", {"model": self.model, "dim": self.dim, "t_end": self.t_end})
        _read("output", {"stride": self.output_stride, "directory": self.output_directory})
        if self.model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.dim not in (1, 2):
            raise ScenarioError(f"dim must be 1 or 2, got {self.dim}")
        if self.dim == 2 and not _MODELS[self.model].two_d:
            names = " and ".join(name for name, m in _MODELS.items() if m.two_d)
            raise ScenarioError(f"dim = 2 is only supported for {names}")
        if self.dim == 2 and self.initial.kind == "file":
            # traveling_wave and simple_wave data need a model that is 1-D only
            raise ScenarioError("file initial data is 1-D (one x_m column); "
                                "dim = 2 accepts initial.kind 'gaussian' only")
        if self.model == "boussinesq":
            if self.abcd is None:
                raise ScenarioError("model 'boussinesq' requires abcd parameters")
            try:
                require_well_posed(self.abcd, self.physical)
            except IllPosedError as err:
                raise ScenarioError(str(err)) from err
        if self.t_end < 0.0:
            raise ScenarioError("t_end must be nonnegative")
        if self.output_stride < 1:
            raise ScenarioError("output.stride must be at least 1")
        if self.grid is None:
            default = Grid(200.0, 1024) if self.dim == 1 else Grid(100.0, 256, dim=2)
            object.__setattr__(self, "grid", default)
        if self.grid.dim != self.dim:
            raise ScenarioError(f"grid dim {self.grid.dim} does not match scenario dim {self.dim}")

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        raw = _read("scenario", raw)
        if raw.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema version {raw['version']!r}")
        args = {key: raw[key] for key in ("model", "dim", "t_end") if key in raw}
        args.update({f"output_{key}": value
                     for key, value in _read("output", raw.get("output", {})).items()})
        sections = {"physical": PhysicalParams, "abcd": AbcdParams, "initial": InitialData,
                    "grid": partial(Grid, dim=args.get("dim", cls.dim))}
        for section, make in sections.items():
            if raw.get(section) is not None:
                try:
                    args[section] = make(**_read(section, raw[section]))
                except ScenarioError:
                    raise
                except ValueError as err:  # a range error of PhysicalParams, AbcdParams or Grid
                    raise ScenarioError(f"{section}: {err}") from err
        return cls(**args)

    def to_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "model": self.model,
            "dim": self.dim,
            "physical": asdict(self.physical),
            "abcd": None if self.abcd is None else asdict(self.abcd),
            "grid": {key: list(v) if self.dim > 1 else v[0]
                     for key, v in (("length", self.grid.length), ("nodes", self.grid.nodes))},
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


def read_csv_column(path, name: str):
    """(x, values): the x_m column and the ``name`` column of a CSV file
    whose header line names its columns, x_m first.  Every row must have one
    cell per name, and every value of ``name`` must be finite."""
    with open(path) as fh:
        if not fh.readline().strip():  # genfromtxt would warn, then fail
            raise ScenarioError(f"{path} has no header line")
    try:
        data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except ValueError as err:  # a row of another length than the header
        raise ScenarioError(f"cannot read {path}: {err}") from None
    names = list(data.dtype.names)
    if names[0] != "x_m" or name not in names[1:]:
        raise ScenarioError(f"{path} needs a header naming x_m first and a {name} column, "
                            f"found {names}")
    values = np.asarray(data[name], dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # genfromtxt reads a non-numeric cell as NaN
        raise ScenarioError(f"column {name} holds a non-finite or non-numeric value "
                            f"in data row {int(bad[0]) + 1} of {path}")
    return np.asarray(data["x_m"], dtype=float), values


def _file_column(path: str, grid: Grid, name: str) -> SpectralField:
    """One named column of a file of initial data, checked against the grid."""
    x, values = read_csv_column(path, name)
    xs = grid.axis_coordinates(0)
    # written so that a NaN in x fails it
    if x.shape != xs.shape or not np.max(np.abs(x - xs)) <= 1e-8 * grid.spacing[0]:
        raise ScenarioError("file x column does not match the scenario grid")
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


# state field -> column name, in file initial data and in the snapshot CSVs
_COLUMNS = {"zeta": "zeta_m", "psi": "psi_m2_per_s", "u": "u_m_per_s", "zeta_t": "zeta_t_m_per_s"}


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
    "hopf": _Model(SVState, "u", ("zeta", "u"), lambda sc, s: hopf_evolve(
        s, sc.physical, sc.t_end, n_out=sc.output_stride)),
    "boussinesq": _Model(SVState, "u", ("zeta", "u"), lambda sc, s: abcd_evolve(
        s, sc.abcd, sc.physical, sc.t_end, DtControl(), n_out=sc.output_stride)),
    "kdv": _Model(ScalarWaveState, None, ("zeta",), _scalar_run),
    "whitham": _Model(ScalarWaveState, None, ("zeta",), _scalar_run),
    "whitham2": _Model(ScalarWaveState, None, ("zeta",), _scalar_run),
}
MODELS = tuple(_MODELS)
# models stepped pseudospectrally: initial data they cannot resolve is refused
_STEPPED = ("saint_venant", "boussinesq", "kdv", "whitham", "whitham2")
SOLITARY_MODELS = tuple(SOLITARY_METHODS)


def _build_initial(sc: Scenario):
    """Materialize the model state at t = 0 from the InitialData record;
    returns (state, the manifest's diagnostics.solver record).  A field that
    holds a non-finite value is refused."""
    ini, grid, p = sc.initial, sc.grid, sc.physical
    model = _MODELS[sc.model]
    solver = None

    if ini.kind == "traveling_wave":
        if ini.speed is None:
            raise ScenarioError("traveling_wave initial data requires a speed")
        if sc.model not in SOLITARY_METHODS:
            raise ScenarioError(f"traveling_wave initial data unsupported for model {sc.model!r}")
        sol = solitary_wave(sc.model, ini.speed, p, grid, sc.abcd)
        zeta, second = sol.profile_zeta, sol.profile_u
        solver = {"method": SOLITARY_METHODS[sc.model], "iterations": sol.iterations,
                  "residual": sol.residual, "normalization_history": sol.normalization_history}
    else:
        if ini.kind == "file":
            if ini.path is None:
                raise ScenarioError("file initial data requires a path")
            zeta = _file_column(ini.path, grid, "zeta_m")
        else:  # gaussian or simple_wave
            zeta = _gaussian_field(grid, ini.amplitude, ini.width_parameter, ini.center)

        # the simple-wave relation pairs zeta with the shallow-water velocity u
        relation = ini.kind == "simple_wave" or ini.companion == "from_simple_wave_relation"
        if model.second is None:
            second = None  # a scalar model takes zeta alone and ignores the companion
        elif relation:
            if model.second != "u":
                raise ScenarioError("the simple-wave velocity relation needs a model with a "
                                    f"velocity u or a scalar model, not {sc.model!r}")
            second = simple_wave_velocity(zeta, p)
        elif ini.companion == "explicit":
            second = _file_column(ini.path, grid, _COLUMNS[model.second])
        else:
            second = SpectralField.zeros(grid)

    for name, f in [("zeta", zeta), (model.second, second)]:
        if f is not None and not np.all(np.isfinite(f.values)):
            raise ScenarioError(f"the initial {name} holds a non-finite value")
        tail = spectral_tail(f) if f is not None and sc.model in _STEPPED else 0.0
        if tail > MAX_SPECTRAL_TAIL:  # a NaN tail, from an FFT that overflows, is left to the stepper
            raise ScenarioError(f"the grid does not resolve the initial {name}: spectral tail "
                                f"{tail:.3g} exceeds {MAX_SPECTRAL_TAIL:g}; use more nodes")
    if model.second is None:
        return model.state(zeta, 0.0, sc.model), solver
    return model.state(zeta, second, 0.0), solver


def _evolve_series(sc: Scenario):
    """All snapshots of a scenario: (times, per-time column dicts, halt,
    diagnostics: the solver record, the refinement record of a scalar model
    and the wall seconds of the build and evolve phases).  The first snapshot
    that holds a non-finite value ends the series with a ``non_finite`` halt."""
    model = _MODELS[sc.model]
    t0 = time.perf_counter()
    state0, solver = _build_initial(sc)
    t1 = time.perf_counter()
    traj = model.run(sc, state0)
    for i, s in enumerate(traj.states):  # the exact models have no non-finite guard of their own
        if not all(np.all(np.isfinite(getattr(s, f).values)) for f in model.writes):
            traj.states, traj.halt = traj.states[:i], HaltEvent("non_finite", s.time, math.nan,
                                                                math.nan)
            break
    snaps = [{_COLUMNS[f]: getattr(s, f).values for f in model.writes} for s in traj.states]
    phase_seconds = {"build": t1 - t0, "evolve": time.perf_counter() - t1}
    return traj.times, snaps, traj.halt, {"phase_seconds": phase_seconds, "solver": solver,
                                          "refinement": traj.refinement}


@dataclass
class RunResult:
    exit_code: int
    manifest_path: Path
    snapshot_paths: list
    halt: HaltEvent | None


def _write_blocks(write, lead, columns):
    """Write the CSV rows of equal-length columns through ``write``, in
    blocks of _BLOCK_ROWS rows, so a large table never sits in memory as
    one string.  Each row leads with its row of the text matrix ``lead``,
    built by ``_write_snapshots`` once per run (None for no lead)."""
    table = np.column_stack(columns)
    for start in range(0, len(table), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        write(csv_rows(table[block], None if lead is None else lead[block]))


def write_rows(stream, columns):
    """Write equal-length columns to a text stream as CSV rows of
    ``_format.FLOAT_FORMAT`` fields."""
    _write_blocks(lambda data: stream.write(data.decode("ascii")), None, columns)


def _write_snapshots(target: Path, grid: Grid, names: list, snaps: list):
    """Write one CSV per snapshot; return (paths, number of writer processes).

    The node coordinates lead every row, in meshgrid ("ij") order; their
    text is built once per run.  Below _FORK_WRITE_VALUES field values
    this process writes every file.  From
    there on there are w = min(cores, files, 4) writers, and writer r
    writes files r, r + w, ...: writers 1..w-1 are forked children that
    share ``snaps`` and the lead text copy-on-write, and this process
    writes share 0.  The bytes are the same either way.
    """
    axes = [lead_text(grid.axis_coordinates(a)) for a in range(grid.dim)]
    nodes = np.unravel_index(np.arange(math.prod(grid.shape)), grid.shape)
    lead = np.concatenate([axis[i] for axis, i in zip(axes, nodes)], axis=1)
    header = (",".join(["x_m", "y_m"][: grid.dim] + names) + "\n").encode("ascii")
    paths = [target / f"snapshot_{idx:04d}.csv" for idx in range(len(snaps))]
    values = sum(columns[n].size for columns in snaps for n in names)
    workers = worker_count(len(paths), values, _FORK_WRITE_VALUES)

    def write_share(r):
        for path, columns in zip(paths[r::workers], snaps[r::workers]):
            try:
                with open(path, "wb") as fh:
                    fh.write(header)
                    _write_blocks(fh.write, lead, [columns[n].ravel() for n in names])
            except Exception as err:
                detail = getattr(err, "strerror", None) or repr(err)
                raise WavemodelsError(f"cannot write {path}: {detail}") from err

    fan_out(write_share, workers, lambda r: f"the writer of {paths[r]}")
    return paths, workers


def json_record(record) -> dict | None:
    """The fields of a dataclass ``record`` (None stays None) as a strict-JSON
    object: JSON has no Infinity or NaN, so a non-finite float is written as null."""
    if record is None:
        return None
    return {name: None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in asdict(record).items()}


def run(scenario: Scenario, output_dir=None) -> RunResult:
    """Run a scenario; write snapshot CSVs and a manifest.

    Exit code 0 on completion, 2 on a halt (breaking, cavitation, or a
    non-finite state) with partial output.  The output directory resolves as:
    WAVEMODELS_OUTDIR environment variable, then the ``output_dir``
    argument, then the scenario's output.directory, then the cwd.
    """
    t_start = time.perf_counter()
    target = os.environ.get(OUTPUT_DIR_ENV) or output_dir or scenario.output_directory or "."
    times, snaps, halt, diagnostics = _evolve_series(scenario)

    t_write = time.perf_counter()
    # made only now, so that a run failing with exit 1 leaves no directory behind
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    names = [_COLUMNS[f] for f in _MODELS[scenario.model].writes]
    snapshot_paths, write_workers = _write_snapshots(target, scenario.grid, names, snaps)
    diagnostics["phase_seconds"]["write"] = time.perf_counter() - t_write
    diagnostics["write_workers"] = write_workers

    manifest = {
        "version": SCHEMA_VERSION,
        "generator": "wavemodels",
        "package_version": _package_version,
        "scenario": scenario.to_dict(),
        "snapshot_files": [p.name for p in snapshot_paths],
        "snapshot_times": times,
        "halt": json_record(halt),
        "exit_code": 2 if halt is not None else 0,
        "timing_seconds": time.perf_counter() - t_start,
        "diagnostics": diagnostics,
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

    times_a, snaps_a, halt_a, _ = _evolve_series(sa)
    times_b, snaps_b, halt_b, _ = _evolve_series(sb)
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


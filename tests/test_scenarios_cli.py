"""Tests for scenario configuration, the run/compare drivers, and the CLI."""

import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wavemodels import (
    AbcdParams,
    DtControl,
    Grid,
    PhysicalParams,
    SpectralField,
    SVState,
    WavemodelsError,
    boussinesq_solitary_solve,
    breaking_time,
    group_velocity,
    hopf_evolve,
    kdv_soliton,
    petviashvili_solve,
    phase_velocity,
    simple_wave_velocity,
)
from wavemodels import scenarios
from wavemodels.cli import main
from wavemodels.traveling import solitary_wave
from wavemodels.scenarios import (
    SOLITARY_MODELS,
    ComparisonReport,
    InitialData,
    Scenario,
    ScenarioError,
    compare,
    load_scenario,
    run,
)

P = PhysicalParams()
GOOD_ABCD = {"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0}


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "model": "airy",
        "dim": 1,
        "physical": {"g": 9.81, "H": 1.0},
        "grid": {"length": 200.0, "nodes": 256},
        "initial": {"kind": "gaussian", "amplitude": 0.01, "width_parameter": 1.0},
        "t_end": 5.0,
        "output": {"stride": 3},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


# every key of the scenario schema with its JSON type; a valid entry of each section
SCHEMA_FIELDS = {
    "scenario": {"version": "integer", "model": "string", "dim": "integer", "t_end": "number",
                 "physical": "object", "abcd": "object", "grid": "object",
                 "initial": "object", "output": "object"},
    "physical": {"g": "number", "H": "number"},
    "abcd": dict.fromkeys("abcd", "number"),
    "grid": {"length": "number", "nodes": "integer"},
    "initial": {"kind": "string", "amplitude": "number", "width_parameter": "number",
                "center": "number", "companion": "string", "speed": "number", "path": "string"},
    "output": {"stride": "integer", "directory": "string"},
}
VALID_SECTIONS = {"physical": {"g": 9.81, "H": 1.0}, "abcd": GOOD_ABCD,
                  "grid": {"length": 200.0, "nodes": 256}, "initial": {"kind": "gaussian"},
                  "output": {"stride": 3}}
# values of a wrong JSON type: a string or a bool for a number, a float or a
# bool for an integer, a number for a string, and a non-object for a section
WRONG_TYPES = {"number": ["9.81", True], "integer": [2.0, True], "string": [5],
               "object": [[1.0], "x"]}
TYPE_NAMES = {"number": "a finite number", "integer": "an integer", "string": "a string",
              "object": "a JSON object"}


def wrong_type_cases():
    """(config overrides, message) for each schema key and each wrong JSON type."""
    for section, keys in SCHEMA_FIELDS.items():
        for key, json_type in keys.items():
            where = key if section == "scenario" else f"{section}.{key}"
            for value in WRONG_TYPES[json_type]:
                spoiled = ({key: value} if section == "scenario"
                           else {section: {**VALID_SECTIONS[section], key: value}})
                yield pytest.param({"abcd": GOOD_ABCD, **spoiled},
                                   f"error: {where} must be {TYPE_NAMES[json_type]}, got",
                                   id=f"{where}={value!r}")


def cli(*args):
    """Run ``main`` in-process and return what ``python -m wavemodels`` would.

    Warnings print to the captured stderr once per location, as in a fresh
    interpreter, so a test that counts stderr lines sees them.  An exception
    that escapes ``main`` fails the test, as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = show
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(["wavemodels", *args], code, out.getvalue(),
                                       err.getvalue())


class TestScenarioValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, bogus=1)
        with pytest.raises(ScenarioError, match="bogus"):
            load_scenario(cfg)

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, initial={"kind": "gaussian", "amplitde": 0.01})
        with pytest.raises(ScenarioError, match="amplitde"):
            load_scenario(cfg)

    def test_unsupported_schema_version(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, version=99)
        with pytest.raises(ScenarioError, match="version"):
            load_scenario(cfg)

    def test_dim_two_restricted_to_linear_models(self):
        with pytest.raises(ScenarioError, match="dim = 2"):
            Scenario(model="kdv", dim=2)

    def test_boussinesq_requires_abcd(self):
        with pytest.raises(ScenarioError, match="abcd"):
            Scenario(model="boussinesq")

    def test_boussinesq_rejects_ill_posed_abcd(self):
        from wavemodels import AbcdParams

        with pytest.raises(ScenarioError, match="ill-posed"):
            Scenario(model="boussinesq", abcd=AbcdParams(1 / 3, 0.0, 0.0, 0.0))

    def test_default_grids(self):
        assert Scenario(model="airy").grid == Grid(200.0, 1024)
        assert Scenario(model="airy", dim=2).grid == Grid(100.0, 256, dim=2)

    def test_unknown_model(self):
        with pytest.raises(ScenarioError, match="model"):
            Scenario(model="euler")

    @pytest.mark.parametrize("model", ["airy", "acoustic"])
    def test_file_initial_data_rejected_in_two_dimensions(self, tmp_path, capsys, model):
        # a valid 1-D file on the x axis of the 2-D grid
        xs = Grid(40.0, 16).axis_coordinates(0)
        src = tmp_path / "init.csv"
        src.write_text("x_m,zeta_m\n" + "".join(f"{float(x)!r},0.0\n" for x in xs))
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model=model, dim=2, grid={"length": 40.0, "nodes": 16},
                     initial={"kind": "file", "path": str(src)},
                     output={"stride": 2, "directory": str(out)})
        message = ("file initial data is 1-D (one x_m column); "
                   "dim = 2 accepts initial.kind 'gaussian' only")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(cfg)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRun:
    def test_airy_run_writes_snapshots_and_manifest(self, tmp_path):
        sc = Scenario(
            model="airy",
            grid=Grid(200.0, 256),
            initial=InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0),
            t_end=5.0,
            output_stride=3,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 0
        assert len(result.snapshot_paths) == 4
        header = result.snapshot_paths[0].read_text().splitlines()[0]
        assert header == "x_m,zeta_m,psi_m2_per_s"
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["exit_code"] == 0
        assert manifest["scenario"]["model"] == "airy"

    @pytest.mark.parametrize(
        "model, initial, code",
        [("airy", InitialData(), 0),
         ("hopf", InitialData(kind="simple_wave", amplitude=0.5, width_parameter=0.1), 2)],
        ids=["complete", "breaking_halt"],
    )
    def test_manifest_records_phase_seconds(self, tmp_path, model, initial, code):
        sc = Scenario(model=model, grid=Grid(200.0, 256), initial=initial, t_end=50.0,
                      output_stride=10)
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == code
        manifest = json.loads(result.manifest_path.read_text())
        phases = manifest["diagnostics"]["phase_seconds"]
        assert set(phases) == {"build", "evolve", "write"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= manifest["timing_seconds"]
        workers = manifest["diagnostics"]["write_workers"]
        assert type(workers) is int
        files = len(manifest["snapshot_files"])
        values = files * 256 * len(scenarios._MODELS[model].writes)
        forked = min(len(os.sched_getaffinity(0)), files, 4)
        assert workers == (1 if values < scenarios._FORK_WRITE_VALUES else forked)

    @pytest.mark.parametrize("model", ["kdv", "whitham", "boussinesq"])
    def test_manifest_records_traveling_wave_solver(self, tmp_path, model):
        speed = 1.05 * P.c0
        sc = Scenario(model=model, grid=Grid(200.0, 512),
                      abcd=AbcdParams(**GOOD_ABCD) if model == "boussinesq" else None,
                      initial=InitialData(kind="traveling_wave", speed=speed),
                      t_end=0.0, output_stride=1)
        result = run(sc, output_dir=tmp_path / "a")
        solver = json.loads(result.manifest_path.read_text())["diagnostics"]["solver"]
        assert set(solver) == {"method", "iterations", "residual", "normalization_history"}
        sol = solitary_wave(model, speed, P, sc.grid, sc.abcd)
        assert solver["iterations"] == sol.iterations
        assert solver["residual"] == sol.residual < 1e-10
        assert solver["normalization_history"] == sol.normalization_history
        if model == "kdv":
            assert solver["method"] == "closed_form"
            assert solver["iterations"] == 0 and solver["normalization_history"] == []
        else:
            assert solver["method"] == "petviashvili"
            history = solver["normalization_history"]
            assert solver["iterations"] == len(history) > 5
            assert all(type(m) is float for m in history)
            assert abs(history[-1] - 1.0) < 1e-9  # M -> 1 at the fixed point
        rerun = run(load_scenario(result.manifest_path), output_dir=tmp_path / "b")
        assert (rerun.snapshot_paths[0].read_bytes()
                == result.snapshot_paths[0].read_bytes())

    def test_manifest_solver_is_null_without_traveling_wave(self, tmp_path):
        sc = Scenario(model="kdv", grid=Grid(200.0, 256),
                      initial=InitialData(width_parameter=0.3), t_end=0.0, output_stride=1)
        manifest = json.loads(run(sc, output_dir=tmp_path).manifest_path.read_text())
        assert manifest["diagnostics"]["solver"] is None

    def test_determinism_and_manifest_round_trip(self, tmp_path):
        sc = Scenario(
            model="kdv",
            grid=Grid(200.0, 256),
            initial=InitialData(kind="gaussian", amplitude=0.02, width_parameter=0.3),
            t_end=2.0,
            output_stride=2,
        )
        r1 = run(sc, output_dir=tmp_path / "a")
        sc2 = load_scenario(r1.manifest_path)
        r2 = run(sc2, output_dir=tmp_path / "b")
        for p1, p2 in zip(r1.snapshot_paths, r2.snapshot_paths):
            assert p1.read_bytes() == p2.read_bytes()

    def test_zero_initial_data_gives_zero_snapshots(self, tmp_path):
        for model in ("airy", "kdv"):
            sc = Scenario(
                model=model,
                grid=Grid(100.0, 128),
                initial=InitialData(kind="gaussian", amplitude=0.0, width_parameter=1.0),
                t_end=1.0,
                output_stride=2,
            )
            result = run(sc, output_dir=tmp_path / model)
            for path in result.snapshot_paths:
                data = np.genfromtxt(path, delimiter=",", names=True)
                assert np.max(np.abs(np.asarray(data["zeta_m"]))) == 0.0

    def test_hopf_simple_wave_halts_near_breaking_time(self, tmp_path):
        sc = Scenario(
            model="hopf",
            grid=Grid(200.0, 512),
            initial=InitialData(
                kind="gaussian",
                amplitude=0.5,
                width_parameter=0.1,
                companion="from_simple_wave_relation",
            ),
            t_end=50.0,
            output_stride=25,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 2
        assert result.halt is not None and result.halt.reason == "breaking"
        # independent oracle for the halt time
        grid = Grid(200.0, 512)
        zeta = SpectralField.from_function(grid, lambda x: 0.5 * np.exp(-((0.1 * x) ** 2)))
        t_star = breaking_time(simple_wave_velocity(zeta, P))
        assert result.halt.time == pytest.approx(t_star, rel=1e-9)
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["halt"]["reason"] == "breaking"
        assert manifest["exit_code"] == 2

    def test_hopf_evolve_is_the_hopf_run(self, tmp_path):
        grid = Grid(200.0, 256)
        sc = Scenario(model="hopf", grid=grid,
                      initial=InitialData(kind="simple_wave", amplitude=0.5, width_parameter=0.1),
                      t_end=50.0, output_stride=10)
        result = run(sc, output_dir=tmp_path)
        zeta = SpectralField(grid, 0.5 * np.exp(-(0.1**2) * grid.axis_coordinates(0) ** 2))
        initial = SVState(zeta, simple_wave_velocity(zeta, P))
        traj = hopf_evolve(initial, P, 50.0, n_out=10)
        assert traj.states[0] is initial  # the t = 0 snapshot is the state it was given
        assert traj.halt == result.halt and result.halt.reason == "breaking"
        assert len(traj.states) == len(result.snapshot_paths) >= 2
        for state, path in zip(traj.states, result.snapshot_paths):
            data = np.genfromtxt(path, delimiter=",", names=True)  # %.17g reads back exactly
            assert np.array_equal(data["zeta_m"], state.zeta.values)
            assert np.array_equal(data["u_m_per_s"], state.u.values)

    def test_boussinesq_takes_simple_wave_data(self, tmp_path):
        grid = Grid(100.0, 256)
        sc = Scenario(model="boussinesq", abcd=AbcdParams(**GOOD_ABCD), grid=grid,
                      initial=InitialData(kind="simple_wave", amplitude=0.05, width_parameter=0.3),
                      t_end=2.0, output_stride=2)
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 0 and len(result.snapshot_paths) == 3
        data = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
        zeta = 0.05 * np.exp(-(0.3**2) * grid.axis_coordinates(0) ** 2)
        # the t = 0 snapshot is the built state itself, not its trip through the stepper
        assert np.array_equal(data["zeta_m"], zeta)
        assert np.array_equal(data["u_m_per_s"], simple_wave_velocity(SpectralField(grid, zeta),
                                                                      P).values)

    @pytest.mark.parametrize("model", ["saint_venant", "boussinesq", "kdv", "whitham", "whitham2"])
    def test_first_snapshot_is_the_file_data(self, tmp_path, model):
        # every stepper's t = 0 snapshot writes the file's values back bit for bit
        grid = Grid(100.0, 256)
        xs = grid.axis_coordinates(0)
        zeta, u = 0.05 * np.exp(-0.09 * xs**2), 0.02 * np.exp(-0.04 * (xs - 3.0) ** 2)
        src = tmp_path / "init.csv"
        src.write_text("x_m,zeta_m,u_m_per_s\n" + "".join(
            f"{float(x)!r},{float(z)!r},{float(v)!r}\n" for x, z, v in zip(xs, zeta, u)))
        sc = Scenario(model=model, abcd=AbcdParams(**GOOD_ABCD) if model == "boussinesq" else None,
                      grid=grid, initial=InitialData(kind="file", path=str(src),
                                                     companion="explicit"),
                      t_end=1.0, output_stride=2)
        result = run(sc, output_dir=tmp_path / "out")
        assert result.exit_code == 0 and len(result.snapshot_paths) == 3
        data = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
        assert np.array_equal(data["zeta_m"], zeta)
        if model in ("saint_venant", "boussinesq"):
            assert np.array_equal(data["u_m_per_s"], u)

    def test_solitary_models_are_the_traveling_table(self):
        assert SOLITARY_MODELS == ("boussinesq", "kdv", "whitham")

    def test_breaking_manifest_is_strict_json(self, tmp_path):
        sc = Scenario(
            model="hopf",
            grid=Grid(200.0, 256),
            initial=InitialData(kind="simple_wave", amplitude=0.5, width_parameter=0.1),
            t_end=50.0,
            output_stride=10,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.halt.reason == "breaking"

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        manifest = json.loads(result.manifest_path.read_text(), parse_constant=reject)
        halt = manifest["halt"]
        assert halt["max_gradient"] is None  # infinite at breaking
        assert math.isfinite(halt["time"]) and math.isfinite(halt["location"])

    def test_file_initial_data_without_zeta_column(self, tmp_path):
        grid = Grid(100.0, 128)
        src = tmp_path / "init.csv"
        rows = [f"{float(x)!r},0.0" for x in grid.axis_coordinates(0)]
        src.write_text("\n".join(["x_m,eta_m"] + rows) + "\n")
        sc = Scenario(model="kdv", grid=grid, initial=InitialData(kind="file", path=str(src)),
                      t_end=0.0, output_stride=1)
        with pytest.raises(ScenarioError, match=r"zeta_m column, found \['x_m', 'eta_m'\]"):
            run(sc, output_dir=tmp_path / "out")

    def test_hopf_breaking_below_t_star_halts(self, tmp_path):
        # 128 nodes on L = 200 do not resolve the Gaussian: the interpolant's
        # characteristics cross at 5.39074 (a 2^18-node scan reads 5.3907354),
        # where a scan of u0' at the 128 nodes alone would read 7.045
        sc = Scenario(
            model="hopf",
            grid=Grid(200.0, 128),
            initial=InitialData(kind="simple_wave", amplitude=0.05, width_parameter=1.0),
            t_end=6.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 2
        assert result.halt.reason == "breaking"
        assert len(result.snapshot_paths) == 1  # only t = 0 precedes the halt
        u0 = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)["u_m_per_s"]
        t_star = breaking_time(SpectralField(sc.grid, u0))
        assert result.halt.time == pytest.approx(5.39074, abs=1e-5)
        assert result.halt.time == result.halt.breaking_time_estimate == t_star < 6.0

    def test_saint_venant_cavitation_exit_code(self, tmp_path):
        # strong expansion over a shallow trough collapses the depth mid-run
        grid = Grid(2 * math.pi, 256)
        xs = grid.axis_coordinates(0)
        zeta = -0.97 * np.exp(-2 * xs**2)
        u = 4.0 * np.sin(xs)
        src = tmp_path / "cavitating.csv"
        lines = ["x_m,zeta_m,u_m_per_s"] + [
            f"{float(x)!r},{float(z)!r},{float(v)!r}" for x, z, v in zip(xs, zeta, u)
        ]
        src.write_text("\n".join(lines) + "\n")
        sc = Scenario(
            model="saint_venant",
            grid=grid,
            initial=InitialData(kind="file", path=str(src), companion="explicit"),
            t_end=3.0,
            output_stride=6,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 2
        assert result.halt.reason == "cavitation"

    def test_non_finite_state_exit_code(self, tmp_path, monkeypatch):
        # pin a step far too large for the data, so the run overflows
        evolve = scenarios.scalar_evolve
        monkeypatch.setattr(
            scenarios, "scalar_evolve",
            lambda state, p, t_end, ctrl, n_out: evolve(state, p, t_end, DtControl(dt=0.5), n_out),
        )
        sc = Scenario(
            model="whitham",
            grid=Grid(200.0, 1024),
            initial=InitialData(amplitude=0.5),
            t_end=10.0,
            output_stride=10,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 2
        assert result.halt.reason == "non_finite"
        assert 1 <= len(result.snapshot_paths) < 11
        for path in result.snapshot_paths:
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.all(np.isfinite(data))
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["halt"]["reason"] == "non_finite"
        assert manifest["exit_code"] == 2

    def test_file_initial_data_round_trip(self, tmp_path):
        grid = Grid(100.0, 128)
        xs = grid.axis_coordinates(0)
        zeta = 0.01 * np.exp(-((0.3 * xs) ** 2))  # resolved on the grid
        src = tmp_path / "init.csv"
        lines = ["x_m,zeta_m"] + [f"{float(x)!r},{float(z)!r}" for x, z in zip(xs, zeta)]
        src.write_text("\n".join(lines) + "\n")
        sc = Scenario(
            model="kdv",
            grid=grid,
            initial=InitialData(kind="file", path=str(src)),
            t_end=0.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path / "out")
        data = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
        assert np.max(np.abs(np.asarray(data["zeta_m"]) - zeta)) < 1e-15

    def test_traveling_wave_initial_data(self, tmp_path):
        sc = Scenario(
            model="kdv",
            grid=Grid(200.0, 512),
            initial=InitialData(kind="traveling_wave", speed=1.05 * P.c0),
            t_end=0.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path)
        data = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
        assert np.max(np.asarray(data["zeta_m"])) == pytest.approx(0.1, abs=1e-12)

    def test_airy_narrow_gaussian_develops_dispersive_tail(self, tmp_path):
        # the narrow heap disperses into an oscillatory tail: many sign
        # changes at t = 15 where the initial data had none
        sc = Scenario(
            model="airy",
            grid=Grid(200.0, 1024),
            initial=InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0),
            t_end=15.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path)
        first = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
        last = np.genfromtxt(result.snapshot_paths[-1], delimiter=",", names=True)

        def sign_changes(z):
            z = z[np.abs(z) > 1e-8]
            return int(np.sum(np.diff(np.sign(z)) != 0))

        assert sign_changes(np.asarray(first["zeta_m"])) == 0
        assert sign_changes(np.asarray(last["zeta_m"])) > 10

    def test_airy_2d_run_writes_xy_columns(self, tmp_path):
        sc = Scenario(
            model="airy",
            dim=2,
            grid=Grid(50.0, 64, dim=2),
            initial=InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0),
            t_end=2.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 0
        lines = result.snapshot_paths[1].read_text().splitlines()
        assert lines[0] == "x_m,y_m,zeta_m,psi_m2_per_s"
        assert len(lines) == 1 + 64 * 64

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        import wavemodels.scenarios as scen

        monkeypatch.setenv(scen.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        sc = Scenario(model="airy", grid=Grid(100.0, 128), t_end=1.0, output_stride=1)
        result = run(sc, output_dir=tmp_path / "arg")
        assert result.manifest_path.parent == tmp_path / "env"


# five snapshot files of 32 x 32 rows
AIRY_2D = Scenario(model="airy", dim=2, grid=Grid(50.0, 32, dim=2), t_end=2.0, output_stride=4)
WRITE_GATE = scenarios._FORK_WRITE_VALUES


class TestParallelWrite:
    """Snapshot files are split over min(cores, files, 4) writer processes
    from _FORK_WRITE_VALUES field values on; the gate is lowered to 0 here so
    that the small AIRY_2D run forks too."""

    @pytest.fixture(autouse=True)
    def open_gate(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_FORK_WRITE_VALUES", 0)

    @staticmethod
    def cores(monkeypatch, n):
        monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def written(result):
        manifest = json.loads(result.manifest_path.read_text())
        files = {p.name: p.read_bytes() for p in result.snapshot_paths}
        return manifest["diagnostics"]["write_workers"], files

    def test_inline_and_forked_writes_are_byte_identical(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 1)
        inline_workers, inline = self.written(run(AIRY_2D, output_dir=tmp_path / "inline"))
        self.cores(monkeypatch, 8)
        forked_workers, forked = self.written(run(AIRY_2D, output_dir=tmp_path / "forked"))
        assert (inline_workers, forked_workers) == (1, 4)
        assert len(inline) == 5
        assert forked == inline

    def test_a_run_below_the_gate_writes_inline(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 2)
        forked_workers, forked = self.written(run(AIRY_2D, output_dir=tmp_path / "forked"))
        monkeypatch.setattr(scenarios, "_FORK_WRITE_VALUES", WRITE_GATE)
        assert 5 * 32**2 < WRITE_GATE  # AIRY_2D: 5 files of 32^2 zeta values
        inline_workers, inline = self.written(run(AIRY_2D, output_dir=tmp_path / "inline"))
        assert (forked_workers, inline_workers) == (2, 1)
        assert len(inline) == 5
        assert inline == forked

    def test_a_second_python_thread_writes_inline(self, tmp_path, monkeypatch):
        import threading

        self.cores(monkeypatch, 4)
        _, reference = self.written(run(AIRY_2D, output_dir=tmp_path / "reference"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            workers, files = self.written(run(AIRY_2D, output_dir=tmp_path / "threaded"))
        finally:
            release.set()
            thread.join()
        assert workers == 1
        assert files == reference

    def test_the_fork_deprecation_warning_is_silenced(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns on fork in a process with threads; numpy's BLAS
        # pool is one.  Model that warning so it is checked on every Python.
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        self.cores(monkeypatch, 2)
        monkeypatch.setattr(scenarios.os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            workers, files = self.written(run(AIRY_2D, output_dir=tmp_path))
        assert workers == 2 and len(files) == 5

    @pytest.mark.parametrize("n_cores, bad",[(1, 3), (2, 3), (4, 3), (2, 0)],
                             ids=["inline", "child_of_2", "child_of_4", "parent_share"])
    def test_a_failed_writer_raises_naming_the_file(self, tmp_path, monkeypatch, n_cores, bad):
        self.cores(monkeypatch, n_cores)
        (tmp_path / f"snapshot_{bad:04d}.csv").mkdir(parents=True)
        with pytest.raises(WavemodelsError, match=f"snapshot_{bad:04d}.csv"):
            run(AIRY_2D, output_dir=tmp_path)
        assert not (tmp_path / "manifest.json").exists()
        with pytest.raises(ChildProcessError):  # every writer was waited for
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_writer_is_cli_exit_one(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(AIRY_2D.to_dict()))
        out = tmp_path / "out"
        (out / "snapshot_0003.csv").mkdir(parents=True)
        r = cli("run", "--config", str(cfg), "--outdir", str(out))
        assert r.returncode == 1
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("error: cannot write ") and "snapshot_0003.csv" in r.stderr
        assert r.stdout == ""
        assert not (out / "manifest.json").exists()

    def test_a_killed_writer_raises_naming_its_first_file(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 2)
        parent = os.getpid()
        write_blocks = scenarios._write_blocks

        def killed_in_a_child(stream, formats, columns):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            write_blocks(stream, formats, columns)

        monkeypatch.setattr(scenarios, "_write_blocks", killed_in_a_child)
        with pytest.raises(WavemodelsError,
                           match=r"writer of \S*snapshot_0001\.csv was killed by signal 9"):
            run(AIRY_2D, output_dir=tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_a_share_that_failed_in_a_child_is_written_again(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 2)
        _, reference = self.written(run(AIRY_2D, output_dir=tmp_path / "reference"))
        parent = os.getpid()
        write_blocks = scenarios._write_blocks

        def full_disk_in_a_child(stream, formats, columns):
            if os.getpid() != parent:
                raise OSError(28, "No space left on device")
            write_blocks(stream, formats, columns)

        monkeypatch.setattr(scenarios, "_write_blocks", full_disk_in_a_child)
        result = run(AIRY_2D, output_dir=tmp_path / "rewritten")
        workers, files = self.written(result)
        assert result.exit_code == 0 and workers == 2
        assert files == reference

    def test_a_killed_writer_is_cli_exit_one(self, tmp_path, monkeypatch):
        self.cores(monkeypatch, 2)
        parent = os.getpid()
        write_blocks = scenarios._write_blocks

        def killed_in_a_child(stream, formats, columns):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            write_blocks(stream, formats, columns)

        monkeypatch.setattr(scenarios, "_write_blocks", killed_in_a_child)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(AIRY_2D.to_dict()))
        out = tmp_path / "out"
        r = cli("run", "--config", str(cfg), "--outdir", str(out))
        assert r.returncode == 1
        assert re.fullmatch(r"error: the writer of \S*snapshot_0001\.csv was killed by signal 9\n",
                            r.stderr)
        assert r.stdout == ""
        assert not (out / "manifest.json").exists()
        with pytest.raises(ChildProcessError):  # every writer was reaped
            os.waitpid(-1, os.WNOHANG)


class TestRefinementRun:
    """The manifest's diagnostics.refinement through ``run``."""

    @pytest.mark.parametrize("model, passes", [("kdv", 7), ("whitham", 4)])
    def test_manifest_records_the_refinement(self, tmp_path, model, passes):
        # the grid, horizon and Gaussian of the benchmark's evolve runs
        sc = Scenario(model=model, grid=Grid(200.0, 2048), initial=InitialData(amplitude=0.01),
                      t_end=15.0, output_stride=10)
        result = run(sc, output_dir=tmp_path)
        refinement = json.loads(result.manifest_path.read_text())["diagnostics"]["refinement"]
        assert set(refinement) == {"levels", "error_estimate"}
        levels = refinement["levels"]
        assert [set(level) for level in levels] == [{"dt", "substeps", "diff", "dropped_at"}] * passes
        assert [level["dt"] for level in levels] == [
            levels[0]["dt"] * 0.5**j for j in range(passes)]
        # the ladder starts at 64 dt0 = 0.79, the coarsest within the output interval 1.5
        assert levels[0]["substeps"] == 2
        assert [level["substeps"] for level in levels] == [
            math.ceil(1.5 / level["dt"]) for level in levels]
        assert levels[0]["diff"] is None
        assert all(level["diff"] >= 1e-8 for level in levels[1:-1])
        assert levels[-1]["diff"] < 1e-8
        # every failing pair parts at the first snapshot
        assert [level["dropped_at"] for level in levels] == [1] * (passes - 2) + [None] * 2
        assert refinement["error_estimate"] == levels[-1]["diff"] / 15.0
        if model == "whitham":  # the relative drift of the integral of zeta^2 over the snapshots
            zetas = [np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
                     for path in result.snapshot_paths]
            l2 = [np.sum(z**2) for z in zetas]
            assert len(l2) == 11 and max(abs(q - l2[0]) for q in l2) / l2[0] < 1e-8

    @pytest.mark.parametrize("model", ["airy", "boussinesq"])
    def test_manifest_refinement_is_null_for_other_models(self, tmp_path, model):
        sc = Scenario(model=model, grid=Grid(200.0, 256), initial=InitialData(width_parameter=0.3),
                      t_end=1.0, output_stride=1,
                      abcd=AbcdParams(**GOOD_ABCD) if model == "boussinesq" else None)
        manifest = json.loads(run(sc, output_dir=tmp_path).manifest_path.read_text())
        assert manifest["diagnostics"]["refinement"] is None

    def test_a_cavitating_whitham2_run_records_its_levels(self, tmp_path):
        # the coarsest level's stage overshoots into a cavitation at 2.0833; the
        # levels part at t = 0.5 down to dt0 / 64, and the two levels below agree
        # there and on a cavitation at 0.7122, which ends the ladder
        sc = Scenario(model="whitham2", grid=Grid(50.0, 128),
                      initial=InitialData(amplitude=-0.9, width_parameter=1.0),
                      t_end=3.0, output_stride=6)
        result = run(sc, output_dir=tmp_path)
        manifest = json.loads(result.manifest_path.read_text())
        assert result.exit_code == manifest["exit_code"] == 2
        assert manifest["halt"]["reason"] == "cavitation"
        assert manifest["halt"]["time"] == pytest.approx(0.7122, abs=1e-4)
        assert len(result.snapshot_paths) == 2
        refinement = manifest["diagnostics"]["refinement"]
        assert refinement["error_estimate"] is None
        substeps = [6, 12, 24, 48, 95, 189, 377, 754]
        assert refinement["levels"] == [
            {"dt": pytest.approx(0.08491 / 2**j, rel=1e-4), "substeps": substeps[j],
             "diff": refinement["levels"][j]["diff"], "dropped_at": 1 if j < 6 else None}
            for j in range(8)]
        diffs = [level["diff"] for level in refinement["levels"]]
        assert diffs[0] is None and all(d >= 1e-8 for d in diffs[1:-2]) and diffs[-1] < 1e-8


MATRIX_GRID = Grid(100.0, 256)
MATRIX_KINDS = {
    "gaussian": {"kind": "gaussian", "amplitude": 0.05, "width_parameter": 0.3},
    "file": {"kind": "file"},
    "file_explicit": {"kind": "file", "companion": "explicit"},
    "gaussian_explicit": {"kind": "gaussian", "amplitude": 0.05, "width_parameter": 0.3,
                          "companion": "explicit"},
    "simple_wave": {"kind": "simple_wave", "amplitude": 0.05, "width_parameter": 0.3},
    "from_simple_wave_relation": {"kind": "gaussian", "amplitude": 0.05, "width_parameter": 0.3,
                                  "companion": "from_simple_wave_relation"},
    "traveling_wave": {"kind": "traveling_wave", "speed": 3.3},
}
# the column each model's second field is read from, and the columns it writes
SECOND_COLUMN = {"acoustic": "zeta_t_m_per_s", "airy": "psi_m2_per_s",
                 "saint_venant": "u_m_per_s", "hopf": "u_m_per_s", "boussinesq": "u_m_per_s",
                 "kdv": None, "whitham": None, "whitham2": None}
WRITTEN = {"acoustic": ["zeta_m"], "airy": ["zeta_m", "psi_m2_per_s"],
           "saint_venant": ["zeta_m", "u_m_per_s"], "hopf": ["zeta_m", "u_m_per_s"],
           "boussinesq": ["zeta_m", "u_m_per_s"],
           "kdv": ["zeta_m"], "whitham": ["zeta_m"], "whitham2": ["zeta_m"]}


def write_initial_file(path, columns):
    xs = MATRIX_GRID.axis_coordinates(0)
    rows = zip(xs, *columns.values())
    lines = [",".join(["x_m", *columns])] + [",".join(repr(float(v)) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def expected_matrix_columns(model, kind, file_columns):
    """The t = 0 columns a model writes for an initial kind, or the ScenarioError message."""
    xs = MATRIX_GRID.axis_coordinates(0)
    zero = np.zeros_like(xs)
    if kind == "gaussian_explicit":  # there is no file column to read
        return ("initial.companion 'explicit' reads the second field from the file's column, "
                "so it needs initial.kind 'file'")
    if kind in ("simple_wave", "from_simple_wave_relation"):
        if model in ("acoustic", "airy"):  # scalar models take zeta and ignore the relation
            return ("the simple-wave velocity relation needs a model with a velocity u or a "
                    f"scalar model, not {model!r}")
        zeta = 0.05 * np.exp(-(0.3**2) * xs**2)
        columns = {"zeta_m": zeta, "u_m_per_s": simple_wave_velocity(zeta, P)}
    elif kind == "traveling_wave":
        if model == "kdv":
            return {"zeta_m": kdv_soliton(3.3, P, MATRIX_GRID).profile_zeta.values}
        if model == "whitham":
            sol = petviashvili_solve("whitham", 3.3, P, MATRIX_GRID)
            return {"zeta_m": sol.profile_zeta.values}
        if model == "boussinesq":
            sol = boussinesq_solitary_solve(AbcdParams(**GOOD_ABCD), 3.3, P, MATRIX_GRID)
            return {"zeta_m": sol.profile_zeta.values, "u_m_per_s": sol.profile_u.values}
        return f"traveling_wave initial data unsupported for model {model!r}"
    else:
        zeta = 0.05 * np.exp(-(0.3**2) * xs**2) if kind == "gaussian" else file_columns["zeta_m"]
        columns = {"zeta_m": zeta}
        second = SECOND_COLUMN[model]
        if second is not None:
            columns[second] = file_columns[second] if kind == "file_explicit" else zero
    return {name: columns[name] for name in WRITTEN[model]}


@pytest.mark.parametrize("kind", list(MATRIX_KINDS))
@pytest.mark.parametrize("model", list(SECOND_COLUMN))
def test_model_initial_kind_matrix(tmp_path, model, kind):
    xs = MATRIX_GRID.axis_coordinates(0)
    file_columns = {
        "zeta_m": 0.04 * np.exp(-0.1 * xs**2),
        "zeta_t_m_per_s": 0.02 * np.exp(-0.2 * xs**2),
        "psi_m2_per_s": 0.03 * np.sin(2.0 * np.pi * xs / 100.0),
        "u_m_per_s": 0.01 * np.exp(-0.3 * (xs - 1.0) ** 2),
    }
    src = tmp_path / "init.csv"
    write_initial_file(src, file_columns)

    def scenario(path):
        initial = dict(MATRIX_KINDS[kind])
        if initial["kind"] == "file":
            initial["path"] = str(path)
        return Scenario(model=model, grid=MATRIX_GRID, initial=InitialData(**initial),
                        abcd=AbcdParams(**GOOD_ABCD) if model == "boussinesq" else None,
                        t_end=0.0, output_stride=1)

    expected = expected_matrix_columns(model, kind, file_columns)
    if isinstance(expected, str):
        with pytest.raises(ScenarioError, match=re.escape(expected)):
            run(scenario(src), output_dir=tmp_path / "out")
        return
    result = run(scenario(src), output_dir=tmp_path / "out")
    assert result.exit_code == 0 and len(result.snapshot_paths) == 1
    data = np.genfromtxt(result.snapshot_paths[0], delimiter=",", names=True)
    assert list(data.dtype.names) == ["x_m", *expected]
    for name, values in expected.items():
        np.testing.assert_allclose(data[name], values, rtol=0.0, atol=1e-15, err_msg=name)

    second = SECOND_COLUMN[model]
    if kind == "file_explicit" and second is not None:
        # the second field is read from its own column, which must be present
        partial = tmp_path / "partial.csv"
        write_initial_file(partial, {k: v for k, v in file_columns.items() if k != second})
        with pytest.raises(ScenarioError, match=f"x_m first and a {second} column"):
            run(scenario(partial), output_dir=tmp_path / "partial_out")


def test_write_rows_matches_per_value_format():
    # more rows than one formatting block, and the values a %-format could
    # render differently from str.format
    special = [-0.0, 0.0, 1e-300, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
               1.0 / 3.0, 1e300, 12345678901234567.0]
    rng = np.random.default_rng(0)
    a = np.concatenate([special, rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)])
    b = a[::-1].copy()
    stream = io.StringIO()
    scenarios.write_rows(stream, [a, b])
    assert stream.getvalue() == "".join("{:.17g},{:.17g}\n".format(x, y) for x, y in zip(a, b))


def test_dispersion_table_is_the_per_value_format():
    # 5000 rows: more than one block; xi from 0 through fixed notation at
    # every E in [0, 3], cp and cg from c0 down to ~0.1
    r = cli("dispersion", "--ximax", "1e3", "--samples", "5000")
    xi = np.linspace(0.0, 1e3, 5000)
    rows = zip(xi.tolist(), phase_velocity(xi, P).tolist(), group_velocity(xi, P).tolist())
    assert r.returncode == 0
    assert r.stdout == "xi_per_m,cp_m_per_s,cg_m_per_s\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row for row in rows)


@pytest.mark.parametrize("args", [["--speed", "3.3", "--nodes", "256"],
                                  ["--speeds", "3.2,3.25,3.3", "--nodes", "256"]],
                         ids=["profile", "sweep"])
def test_solitary_table_is_the_per_value_format(args):
    # the text of each value is what % prints for the value it reads back as
    r = cli("solitary", "--model", "kdv", *args)
    assert r.returncode == 0
    lines = r.stdout.splitlines(keepends=True)
    assert len(lines) > 1
    for line in lines[1:]:
        values = tuple(float(v) for v in line.split(","))
        assert line == ",".join(["%.17g"] * len(values)) % values + "\n"


@pytest.mark.parametrize(
    "scenario, code",
    [
        # 9216 rows: two full formatting blocks and a partial one; unequal
        # axis lengths tell x from y
        (Scenario(model="airy", dim=2, grid=Grid((50.0, 30.0), (96, 96), dim=2),
                  initial=InitialData(center=3.0), t_end=1.0, output_stride=2), 0),
        (Scenario(model="airy", grid=Grid(600.0, 6000), t_end=1.0, output_stride=1), 0),
        (Scenario(model="hopf", grid=Grid(200.0, 256), t_end=50.0, output_stride=10,
                  initial=InitialData(kind="simple_wave", amplitude=0.5, width_parameter=0.1)),
         2),
    ],
    ids=["airy_2d_96x96", "airy_6000_nodes", "hopf_breaking_halt"],
)
def test_snapshot_rows_match_per_value_format(tmp_path, scenario, code):
    result = run(scenario, output_dir=tmp_path)
    assert result.exit_code == code and len(result.snapshot_paths) > 1
    coords = [x.ravel() for x in scenario.grid.meshgrid()]
    for path in result.snapshot_paths:
        lines = path.read_text().splitlines(keepends=True)[1:]
        assert len(lines) == coords[0].size
        values = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert lines == [",".join("{:.17g}".format(v) for v in row) + "\n" for row in values]
        for column, x in zip(values.T, coords):
            assert np.array_equal(column, x)


@pytest.mark.parametrize("grid", [
    # node counts are even: one block less two rows, one block, and two more
    Grid(600.0, 4094), Grid(600.0, 4096), Grid(600.0, 4098),
    Grid((50.0, 30.0), (24, 40), dim=2),  # less than one block
    Grid((50.0, 30.0), (96, 90), dim=2),  # 8640 = 2 x 4096 + 448 rows
], ids=["4094", "4096", "4098", "24x40", "96x90"])
def test_block_leads_at_block_boundaries(tmp_path, monkeypatch, grid):
    # the coordinate text of each block is built once per run and shared by
    # every file, and by the forked writers
    rng = np.random.default_rng(grid.nodes[0])
    names = ["zeta_m", "u_m_per_s"]
    snaps = [{n: rng.standard_normal(grid.shape) * rng.integers(0, 2, grid.shape)
              * 10.0 ** rng.integers(-6, 6, grid.shape) for n in names} for _ in range(3)]
    coords = [x.ravel() for x in grid.meshgrid()]
    monkeypatch.setattr(scenarios, "_FORK_WRITE_VALUES", 0)
    written = {}
    for cores in (1, 2):
        monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        (tmp_path / str(cores)).mkdir()
        paths, workers = scenarios._write_snapshots(tmp_path / str(cores), grid, names, snaps)
        assert workers == cores
        written[cores] = [p.read_bytes() for p in paths]
    assert written[2] == written[1]
    header = ",".join(["x_m", "y_m"][: grid.dim] + names) + "\n"
    for text, columns in zip(written[1], snaps):
        rows = zip(*coords, *(columns[n].ravel() for n in names))
        assert text.decode() == header + "".join(",".join("%.17g" % v for v in row) + "\n"
                                                 for row in rows)


class TestCompare:
    def test_same_scenario_twice_gives_zero(self):
        sc = Scenario(model="airy", grid=Grid(200.0, 256), t_end=5.0, output_stride=3)
        ini = InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0)
        report = compare(sc, sc, ini)
        assert report.summary == 0.0

    def test_airy_vs_acoustic_wide_gaussian(self):
        grid = Grid(200.0, 1024)
        a = Scenario(model="airy", grid=grid, t_end=15.0, output_stride=3)
        b = Scenario(model="acoustic", grid=grid, t_end=15.0, output_stride=3)
        ini = InitialData(kind="gaussian", amplitude=0.01, width_parameter=0.1)
        report = compare(a, b, ini)
        assert report.summary < 0.05
        # the narrow control is visibly worse
        narrow = compare(a, b, InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0))
        assert narrow.summary > 10 * report.summary

    def test_grid_mismatch_rejected(self):
        a = Scenario(model="airy", grid=Grid(200.0, 256), t_end=1.0)
        b = Scenario(model="acoustic", grid=Grid(200.0, 512), t_end=1.0)
        with pytest.raises(ScenarioError, match="grid"):
            compare(a, b, InitialData())

    def test_report_serializes(self):
        report = ComparisonReport("a", "b", [0.0, 1.0], [0.0, 0.5])
        d = report.to_dict()
        assert d["summary"] == 0.5


class TestCli:
    def test_classify_reference_parameters(self):
        r = cli(
            "classify",
            "--a", repr(-1.0 / 3.0), "--b", repr(1.0 / 3.0), "--c", "0.0", "--d", repr(1.0 / 3.0),
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["verdict"] == "well_posed"

    def test_classify_ill_posed(self):
        r = cli("classify", "--a", repr(1.0 / 3.0), "--b", "0.0", "--c", "0.0", "--d", "0.0")
        out = json.loads(r.stdout)
        assert out["verdict"] == "ill_posed"
        assert abs(out["witness_wavenumber"] - math.sqrt(3.0)) < 0.1

    @pytest.mark.parametrize("abcd, verdict", [((-1 / 3, 1 / 3, 0.0, 1 / 3), "well_posed"),
                                               ((1 / 3, 0.0, 0.0, 0.0), "ill_posed")])
    def test_classify_non_finite_omega_squared_is_null(self, capsys, abcd, verdict):
        # at H = 1e-300 the scan's omega^2 overflows to +-inf, which strict JSON cannot hold
        argv = [f"--{k}={v!r}" for k, v in zip("abcd", abcd)]
        assert main(["classify", *argv, "--H", "1e-300"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert out["verdict"] == verdict and out["omega_squared_min"] is None

    def test_shocktime_builtin_minus_sine(self):
        r = cli("shocktime", "--builtin", "minus-sine")
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_dispersion_long_wave_row(self):
        r = cli("dispersion", "--ximax", "2.0", "--samples", "3")
        rows = r.stdout.strip().splitlines()
        assert rows[0] == "xi_per_m,cp_m_per_s,cg_m_per_s"
        xi0, cp0, cg0 = (float(v) for v in rows[1].split(","))
        assert xi0 == 0.0
        assert cp0 == pytest.approx(math.sqrt(9.81), abs=1e-12)
        assert cg0 == pytest.approx(math.sqrt(9.81), abs=1e-12)

    def test_solitary_profile_and_metadata(self, tmp_path):
        out = tmp_path / "profile.csv"
        r = cli("solitary", "--model", "kdv", "--speed",
                repr(1.05 * math.sqrt(9.81)), "--nodes", "512", "--out", str(out))
        assert r.returncode == 0
        meta = json.loads(r.stderr.strip().splitlines()[-1])
        assert meta["amplitude"] == pytest.approx(0.1, abs=1e-12)
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.max(np.asarray(data["zeta_m"])) == pytest.approx(0.1, abs=1e-12)

    def test_solitary_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        c0 = math.sqrt(9.81)
        r = cli("solitary", "--model", "kdv",
                "--speeds", f"{1.02*c0!r},{1.05*c0!r}", "--nodes", "512", "--out", str(out))
        assert r.returncode == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        amps = np.asarray(data["amplitude_m"])
        assert amps[1] > amps[0]

    @pytest.mark.parametrize("nodes, code", [(6, 1), (1024, 0)])
    def test_solitary_resolution_check(self, tmp_path, nodes, code):
        # on 6 nodes the solver converges, to an amplitude of 0.074 instead of 0.110
        out = tmp_path / "profile.csv"
        r = cli("solitary", "--model", "boussinesq", "--speed", "3.3",
                "--nodes", str(nodes), "--out", str(out))
        assert r.returncode == code
        if code == 1:
            assert r.stderr.startswith("error: grid does not resolve the wave")
            assert len(r.stderr.splitlines()) == 1
            assert not out.exists()
        else:
            meta = json.loads(r.stderr.strip().splitlines()[-1])
            assert meta["spectral_tail"] < 1e-10
            assert meta["amplitude"] == pytest.approx(0.110, abs=1e-3)

    def test_solitary_sweep_with_unresolved_speed_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = cli("solitary", "--model", "kdv", "--speeds", "3.2,5.5", "--nodes", "128",
                "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.startswith("error: grid does not resolve the wave at speed 5.5")
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, speed",
        [("kdv", "1.0"), ("kdv", repr(P.c0)), ("whitham", repr(P.c0)),
         ("boussinesq", repr(P.c0))],
        ids=["kdv_below_c0", "kdv_at_c0", "whitham_at_c0", "boussinesq_at_c0"],
    )
    def test_solitary_at_or_below_c0_without_length(self, capsys, model, speed):
        # the default domain length is set by the tail decay, which needs c > c0
        assert main(["solitary", "--model", model, "--speed", speed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: a solitary-wave domain length needs a speed above c0 = 3.132091952673165"
        )
        assert len(captured.err.splitlines()) == 1

    def test_solitary_at_c0_with_length_gives_zero_profile(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        argv = ["solitary", "--model", "kdv", "--speed", repr(P.c0), "--length", "100",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().err)["amplitude"] == 0.0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.asarray(data["zeta_m"]) == 0.0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "error: --profile needs at least 4 rows, got 0"),
            (["0.0,1.0"], "error: --profile needs at least 4 rows, got 1"),
            (["0,0", "1,-1", "2,0", "5,1"],
             "error: --profile x_m column must be uniformly spaced and increasing"),
            (["3,0", "2,-1", "1,0", "0,1"],
             "error: --profile x_m column must be uniformly spaced and increasing"),
            (["0,0", "1,nan", "2,0", "3,1"],
             "error: column u_m_per_s holds a non-finite or non-numeric value in data row 2"),
            (None, "error: {path} has no header line"),
            (["0,0", "1,-1", "2,0", "3,1,4"], "error: cannot read {path}: "
             "Some errors were detected ! Line #5 (got 3 columns instead of 2)"),
        ],
        ids=["header_only", "one_row", "non_uniform", "decreasing", "nan_velocity", "empty",
             "ragged"],
    )
    def test_shocktime_profile_checks(self, tmp_path, capsys, rows, message):
        profile = tmp_path / "u.csv"
        profile.write_text("" if rows is None else "\n".join(["x_m,u_m_per_s", *rows]) + "\n")
        assert main(["shocktime", "--profile", str(profile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message.format(path=profile))
        assert len(captured.err.splitlines()) == 1

    def test_shocktime_uniform_profile(self, tmp_path, capsys):
        grid = Grid(80.0, 256)
        xs = grid.axis_coordinates(0)
        u = 0.3 * np.exp(-(xs**2) / 9.0)
        profile = tmp_path / "u.csv"
        profile.write_text("x_m,u_m_per_s\n" + "".join(
            f"{float(x)!r},{float(v)!r}\n" for x, v in zip(xs, u)))
        assert main(["shocktime", "--profile", str(profile)]) == 0
        t_star = float(capsys.readouterr().out)
        assert t_star == pytest.approx(breaking_time(SpectralField(grid, u)), rel=1e-12)

    def test_run_and_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, output={"stride": 2, "directory": str(tmp_path / "o1")})
        r1 = cli("run", "--config", str(cfg))
        assert r1.returncode == 0
        r2 = cli("run", "--config", str(tmp_path / "o1" / "manifest.json"),
                 "--outdir", str(tmp_path / "o2"))
        assert r2.returncode == 0
        for name in ("snapshot_0000.csv", "snapshot_0002.csv"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()

    def test_run_physical_halt_exit_code(self, tmp_path):
        cfg = tmp_path / "hopf.json"
        write_config(
            cfg,
            model="hopf",
            grid={"length": 200.0, "nodes": 256},
            initial={
                "kind": "gaussian",
                "amplitude": 0.5,
                "width_parameter": 0.1,
                "companion": "from_simple_wave_relation",
            },
            t_end=50.0,
            output={"stride": 10, "directory": str(tmp_path / "out")},
        )
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 2
        assert "halted: breaking" in r.stdout

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        write_config(cfg, model="no_such_model")
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert "error:" in r.stderr

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"airy"', "null"])
    def test_non_object_config_exit_code(self, tmp_path, text):
        cfg = tmp_path / "top.json"
        cfg.write_text(text)
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stderr.startswith("error: scenario must be a JSON object")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"initial": {"kind": "gaussian", "amplitude": 0.01, "width_parameter": math.nan}},
            {"t_end": math.inf},
            {"grid": {"length": 200.0, "nodes": 16.7}},
            {"dim": 1.0},
            {"model": "boussinesq", "abcd": {"a": "x", "b": 1.0 / 3.0, "c": 0.0, "d": 0.0}},
            {"model": "boussinesq", "abcd": {"a": None, "b": 1.0 / 3.0, "c": 0.0, "d": 0.0}},
            {"initial": {"kind": "file", "path": 5}},
            {"output": {"stride": 2, "directory": 5}},
        ],
        ids=["nan_width", "infinite_t_end", "fractional_nodes", "float_dim", "string_abcd",
             "null_abcd", "number_path", "number_directory"],
    )
    def test_non_finite_or_fractional_input_exit_code(self, tmp_path, overrides):
        cfg = tmp_path / "bad.json"
        write_config(cfg, **{"output": {"stride": 2, "directory": str(tmp_path / "out")},
                             **overrides})
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert len(r.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_library_error_exit_code(self, tmp_path):
        # a 1e-11 m domain drives the boussinesq CFL step below its floor
        cfg = tmp_path / "tiny.json"
        write_config(
            cfg,
            model="boussinesq",
            abcd={"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0},
            grid={"length": 1e-11, "nodes": 256},
            output={"stride": 2, "directory": str(tmp_path / "out")},
        )
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stderr.startswith("error: time step underflow")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("model", ["kdv", "whitham", "whitham2"])
    def test_amplitude_at_the_float_limit_exit_code(self, tmp_path, capsys, model):
        # 1.5 (c0/H) max|zeta| overflows to inf, so the CFL step dt0 is 0
        cfg = tmp_path / "huge.json"
        write_config(cfg, model=model, initial={"kind": "gaussian", "amplitude": 1e308},
                     output={"stride": 2, "directory": str(tmp_path / "out")})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: time step underflow")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model, amplitude, grid, stride",
        [("airy", 1e308, {"length": 100.0, "nodes": 128}, 2),
         ("acoustic", 5e307, {"length": 100.0, "nodes": 128}, 2),
         ("acoustic", -1e308, {"length": 100.0, "nodes": 64}, 2),
         ("airy", 0.1, {"length": 1e-300, "nodes": 64}, 1),
         ("acoustic", 0.1, {"length": 1e-300, "nodes": 64}, 1)],
        ids=["airy_1e308", "acoustic_5e307", "acoustic_minus_1e308", "airy_tiny_length",
             "acoustic_tiny_length"],
    )
    def test_exact_model_overflow_halts_non_finite(self, tmp_path, capsys, model, amplitude,
                                                   grid, stride):
        # the propagators' spectra overflow (or their wavenumbers, on a 1e-300 m
        # grid): the run keeps the t = 0 snapshot and halts at the first NaN one
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model=model, grid=grid, t_end=1.0,
                     initial={"kind": "gaussian", "amplitude": amplitude, "width_parameter": 0.5},
                     output={"stride": stride, "directory": str(out)})
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halt"]["reason"] == "non_finite"
        assert manifest["halt"]["time"] == 1.0 / stride
        assert manifest["snapshot_files"] == ["snapshot_0000.csv"]
        assert manifest["snapshot_times"] == [0.0]
        assert sorted(p.name for p in out.glob("snapshot_*.csv")) == ["snapshot_0000.csv"]
        assert np.all(np.isfinite(np.loadtxt(out / "snapshot_0000.csv", delimiter=",",
                                             skiprows=1)))

    @pytest.mark.parametrize("amplitude", [-5.0, 1e308], ids=["below_minus_H", "float_limit"])
    def test_non_finite_simple_wave_velocity_exit_code(self, tmp_path, capsys, amplitude):
        # 2 sqrt(g (H + zeta)) is NaN where zeta < -H, and overflows at zeta = 1e308
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model="hopf", grid={"length": 100.0, "nodes": 64}, t_end=1.0,
                     initial={"kind": "simple_wave", "amplitude": amplitude,
                              "width_parameter": 0.5},
                     output={"stride": 2, "directory": str(out)})
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: the initial u holds a non-finite value\n"
        assert not out.exists()

    def test_unresolved_traveling_wave_run_exit_code(self, tmp_path):
        # 8 nodes on L = 100 cannot carry the speed-3.3 wave: the solved
        # profile alternates sign from node to node
        cfg = tmp_path / "tw.json"
        write_config(
            cfg,
            model="boussinesq",
            abcd={"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0},
            grid={"length": 100.0, "nodes": 8},
            initial={"kind": "traveling_wave", "speed": 3.3},
            output={"stride": 2, "directory": str(tmp_path / "out")},
        )
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stderr.startswith("error: grid does not resolve the wave at speed 3.3")
        assert len(r.stderr.splitlines()) == 1
        assert not any((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("model", ["saint_venant", "boussinesq", "kdv", "whitham",
                                       "whitham2"])
    def test_unresolved_initial_data_exit_code(self, tmp_path, capsys, model):
        # exp(-x^2) on 32 nodes of L = 50: its top third of modes reaches 0.75
        # of its peak, so a stepper would carry aliasing, not the Gaussian
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model=model, grid={"length": 50.0, "nodes": 32}, t_end=10.0,
                     initial={"kind": "gaussian", "amplitude": 0.5, "width_parameter": 1.0},
                     output={"stride": 2, "directory": str(out)},
                     **({"abcd": GOOD_ABCD} if model == "boussinesq" else {}))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the grid does not resolve the initial zeta: spectral tail "
                            r"\S+ exceeds 0\.01; use more nodes\n", err)
        assert not out.exists()

    def test_unresolved_explicit_velocity_exit_code(self, tmp_path, capsys):
        # a resolved zeta and a velocity column too narrow for the grid
        grid = Grid(100.0, 128)
        xs = grid.axis_coordinates(0)
        src = tmp_path / "init.csv"
        src.write_text("x_m,zeta_m,u_m_per_s\n" + "".join(
            f"{float(x)!r},{0.01 * math.exp(-((0.3 * x) ** 2))!r},{0.01 * math.exp(-(x**2))!r}\n"
            for x in xs))
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model="boussinesq", abcd=GOOD_ABCD,
                     grid={"length": 100.0, "nodes": 128}, t_end=1.0,
                     initial={"kind": "file", "path": str(src), "companion": "explicit"},
                     output={"stride": 2, "directory": str(out)})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the grid does not resolve the initial u: spectral tail ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_flat_hopf_profile_runs_to_t_end(self, tmp_path):
        # T* is inf, and at t ~ 1e20 c0 t swamps the spacing of the sampled
        # foot map in float64: no crossing may be read from that map
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model="hopf", t_end=1e300,
                     initial={"kind": "simple_wave", "amplitude": 0.0},
                     output={"stride": 2, "directory": str(out)})
        r = cli("run", "--config", str(cfg))
        assert (r.returncode, r.stderr) == (0, "")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halt"] is None
        assert manifest["snapshot_files"] == [f"snapshot_{i:04d}.csv" for i in range(3)]
        for path in out.glob("snapshot_*.csv"):
            data = np.genfromtxt(path, delimiter=",", names=True)
            assert not np.any(data["zeta_m"]) and not np.any(data["u_m_per_s"])

    def test_hopf_feet_far_outside_a_tiny_period_run_to_t_end(self, tmp_path):
        # u0 ~ 6e50 m/s is constant on a 1e-300 m grid: Newton's feet land near
        # x ~ -1e50, where the phase k (x + L/2) of the mode sum would overflow
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model="hopf", t_end=0.5, grid={"length": 1e-300, "nodes": 64},
                     initial={"kind": "simple_wave", "amplitude": 1e100, "width_parameter": 0.5},
                     output={"stride": 10, "directory": str(out)})
        r = cli("run", "--config", str(cfg))
        assert (r.returncode, r.stderr) == (0, "")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halt"] is None
        assert len(manifest["snapshot_files"]) == 11

    def test_directory_as_config_exit_code(self, tmp_path):
        r = cli("run", "--config", str(tmp_path))
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param({"physical": {"g": "x", "H": 1.0}},
                         "error: physical.g must be a finite number", id="non_numeric_gravity"),
            pytest.param({"grid": {"length": 200.0}}, "error: grid is missing key(s): nodes",
                         id="grid_without_nodes"),
            pytest.param({"grid": {"length": 200.0, "nodes": 1e300}},
                         "error: grid.nodes must be an integer, got 1e+300", id="huge_nodes"),
            pytest.param({"t_end": 10**400}, "error: t_end must be a finite number",
                         id="t_end_beyond_float_range"),
            pytest.param({"version": 1.0}, "error: version must be an integer, got 1.0",
                         id="float_version"),
            pytest.param({"dim": 0, "grid": None}, "error: dim must be 1 or 2, got 0",
                         id="dim_0_without_grid"),
            pytest.param({"dim": 3}, "error: grid: dim must be 1 or 2, got 3", id="dim_3"),
            pytest.param({"dim": 2, "grid": {"length": [200.0], "nodes": [16, 16]}},
                         "error: grid: expected 2 per-axis values, got 1", id="short_axis_list"),
            pytest.param({"physical": {"g": -1.0}}, "error: physical: gravity must be positive",
                         id="negative_gravity"),
            pytest.param({"physical": {"g": 1e300, "H": 1e300}},
                         "error: physical: g H must be positive and finite, got inf",
                         id="g_H_overflow"),
            pytest.param({"model": "boussinesq", "abcd": {"a": 0.1, "b": 0.1, "c": 0.1, "d": 0.1}},
                         "error: abcd: a+b+c+d must equal 1/3", id="abcd_sum"),
            pytest.param({"model": "boussinesq", "abcd": {"a": 1 / 3}},
                         "error: abcd is missing key(s): b, c, d", id="abcd_without_bcd"),
            # 1 - a mu^2 cancels 1 + b mu^2, so omega^2 is nowhere negative
            pytest.param({"model": "boussinesq", "abcd": {"a": 0.1, "b": -0.1, "c": 0.0,
                                                          "d": 0.3333333333333333}},
                         "error: abcd parameters are ill-posed: b = -0.1", id="negative_b"),
            *wrong_type_cases(),
        ],
    )
    def test_schema_error_exit_code(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "bad.json"
        write_config(cfg, **{"output": {"stride": 3, "directory": str(tmp_path / "out")},
                             **overrides})
        with pytest.raises(ScenarioError):
            load_scenario(cfg)
        assert main(["run", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, code",
        [
            # 8 nodes cannot carry the wave, so building the initial state fails
            ({"model": "boussinesq", "abcd": GOOD_ABCD, "grid": {"length": 100.0, "nodes": 8},
              "initial": {"kind": "traveling_wave", "speed": 3.3}}, 1),
            # the CFL step of a 1e-11 m domain is below the floor, so evolving fails
            ({"model": "boussinesq", "abcd": GOOD_ABCD,
              "grid": {"length": 1e-11, "nodes": 256}}, 1),
            # a breaking halt keeps the partial output
            ({"model": "hopf", "initial": {"kind": "simple_wave", "amplitude": 0.5,
                                           "width_parameter": 0.1}, "t_end": 50.0}, 2),
        ],
        ids=["unresolved_initial_state", "step_underflow", "breaking_halt"],
    )
    def test_output_directory_made_only_for_output(self, tmp_path, overrides, code):
        cfg = tmp_path / "run.json"
        out = tmp_path / "out"
        write_config(cfg, output={"stride": 2, "directory": str(out)}, **overrides)
        assert main(["run", "--config", str(cfg)]) == code
        if code == 1:
            assert not out.exists()
        else:
            assert (out / "manifest.json").is_file() and (out / "snapshot_0000.csv").is_file()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dispersion", "--ximax", "nan", "--samples", "3"],
             "error: argument --ximax: expected a finite number, got 'nan'"),
            (["shocktime", "--builtin", "gaussian-bump", "--amplitude", "nan"],
             "error: argument --amplitude: expected a finite number, got 'nan'"),
            (["solitary", "--model", "kdv", "--speeds", "3.2,inf"],
             "error: argument --speeds: expected a finite number, got 'inf'"),
            (["dispersion", "--samples", "3"],
             "error: the following arguments are required: --ximax"),
            (["dispersion", "--ximax", "2.0", "--samples", "3", "--quantity", "speed"],
             "error: argument --quantity: invalid choice"),
            ([], "error: the following arguments are required: command"),
            *((["dispersion", "--ximax", "1", "--samples", n],
               f"error: argument --samples: expected an integer in [2, 1000000], got {n!r}")
              for n in ("0", "1", "1000001", "2.5", "many")),
            # g and H are each positive and finite, but c0 = sqrt(g H) is 0 or inf
            (["solitary", "--model", "kdv", "--speed", "1", "--g", "1e-200", "--H", "1e-200"],
             "error: g H must be positive and finite, got 0.0"),
            (["dispersion", "--ximax", "1", "--samples", "3", "--g", "1e308", "--H", "1e308"],
             "error: g H must be positive and finite, got inf"),
            # on a few decay lengths the solvers reach the flat state 4H(c - c0)/(3 c0),
            # or a sech^2 cut at 0.63 of its crest: no solitary wave
            *((["solitary", "--model", model, "--speed", "3.3", "--length", length],
               f"error: the wave at speed 3.3 does not decay on a domain of length {length}: ")
              for model, length in [("whitham", "5"), ("boussinesq", "5"), ("kdv", "5"),
                                    ("kdv", "1e-300")]),
            # longer, the sech^2 decays but is no periodic solution: its residual reads
            # 4.74, 0.173 and 3.0e-4 of speed x amplitude
            *((["solitary", "--model", "kdv", "--speed", "3.3", "--length", length],
               "error: the kdv wave at speed 3.3 does not solve the periodic steady equation "
               f"on a domain of length {length}: ")
              for length in ("10", "20", "40")),
        ],
        ids=["nan_ximax", "nan_amplitude", "infinite_sweep_speed", "missing_ximax",
             "bad_choice", "no_command", "samples_0", "samples_1", "samples_1000001",
             "samples_2.5", "samples_many", "solitary_g_H_underflow", "dispersion_g_H_overflow",
             "whitham_flat_on_5_m", "boussinesq_flat_on_5_m", "kdv_on_5_m", "kdv_on_1e-300_m",
             "kdv_residual_on_10_m", "kdv_residual_on_20_m", "kdv_residual_on_40_m"],
    )
    def test_argument_error_exit_code(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "model, column, cell, message",
        [
            ("airy", "zeta_m", "nan", "column zeta_m holds a non-finite or non-numeric value"),
            ("kdv", "zeta_m", "nan", "column zeta_m holds a non-finite or non-numeric value"),
            ("airy", "zeta_m", "abc", "column zeta_m holds a non-finite or non-numeric value"),
            ("kdv", "zeta_m", "abc", "column zeta_m holds a non-finite or non-numeric value"),
            ("saint_venant", "u_m_per_s", "inf",
             "column u_m_per_s holds a non-finite or non-numeric value"),
            ("airy", "x_m", "nan", "file x column does not match the scenario grid"),
            ("kdv", "zeta_m", None, "init.csv has no header line"),
            ("saint_venant", "u_m_per_s", "0.0,1.0",
             "init.csv: Some errors were detected ! Line #7 (got 4 columns instead of 3)"),
        ],
        ids=["airy_nan", "kdv_nan", "airy_text", "kdv_text", "explicit_velocity_inf", "nan_x",
             "empty", "ragged"],
    )
    def test_non_finite_file_initial_data_exit_code(self, tmp_path, capsys, model, column,
                                                    cell, message):
        grid = Grid(40.0, 16)
        xs = grid.axis_coordinates(0)
        table = {"x_m": [repr(float(x)) for x in xs],
                 "zeta_m": [repr(float(z)) for z in 0.01 * np.exp(-(xs**2))],
                 "u_m_per_s": ["0.0"] * 16}
        table[column][5] = cell
        src = tmp_path / "init.csv"
        src.write_text("" if cell is None else "x_m,zeta_m,u_m_per_s\n"
                       + "".join(",".join(row) + "\n" for row in zip(*table.values())))
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        write_config(cfg, model=model, grid={"length": 40.0, "nodes": 16}, t_end=1.0,
                     initial={"kind": "file", "path": str(src), "companion": "explicit"},
                     output={"stride": 2, "directory": str(out)})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_classify_negative_scientific_notation(self):
        third = "3.33333333333333315e-01"
        r = cli("classify", "--a", "-" + third, "--b", third, "--c", "-0e0", "--d", third)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["verdict"] == "well_posed"

    def test_dispersion_negative_ximax_mirrors_positive(self):
        def table(ximax):
            r = cli("dispersion", "--ximax", ximax, "--samples", "11")
            return np.loadtxt(io.StringIO(r.stdout), delimiter=",", skiprows=1)

        neg, pos = table("-5e0"), table("5")
        assert np.array_equal(neg[:, 0], -pos[:, 0])
        assert np.array_equal(neg[:, 1:], pos[:, 1:])

    def test_dispersion_two_samples(self):
        r = cli("dispersion", "--ximax", "1", "--samples", "2")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 3

    def test_dispersion_group_velocity_finite_where_h_xi_overflows(self):
        # H xi = 1e310 overflows to inf, where cg -> sqrt(g / (4 xi)) ~ 1.6e-150
        r = cli("dispersion", "--ximax", "1e300", "--samples", "3", "--H", "1e10")
        assert r.returncode == 0
        cg = np.loadtxt(io.StringIO(r.stdout), delimiter=",", skiprows=1)[:, 2]
        assert np.all(np.isfinite(cg)) and np.all(cg >= 0.0)

    def test_shocktime_non_finite_result_exit_code(self):
        r = cli("shocktime", "--builtin", "gaussian-bump", "--amplitude", "1e308")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == ("error: the breaking time is not a number: "
                            "the profile slope is not finite\n")

    def test_shocktime_never_breaking_prints_inf(self):
        r = cli("shocktime", "--builtin", "gaussian-bump", "--amplitude", "0")
        assert (r.returncode, r.stdout, r.stderr) == (0, "inf\n", "")

    def test_solitary_non_finite_profile_exit_code(self, tmp_path):
        # H = 1e-300 makes the sech^2 guess NaN, and so its spectral tail
        out = tmp_path / "profile.csv"
        r = cli("solitary", "--model", "kdv", "--speed", "3.3", "--H", "1e-300", "--nodes", "64",
                "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.startswith("error: grid does not resolve the wave at speed 3.3: "
                                   "spectral tail nan")
        assert len(r.stderr.splitlines()) == 1
        assert not out.exists()

    def test_non_finite_traveling_wave_run_exit_code(self, tmp_path):
        cfg, out = tmp_path / "tw.json", tmp_path / "out"
        write_config(cfg, model="kdv", physical={"g": 9.81, "H": 1e-300},
                     grid={"length": 100.0, "nodes": 64},
                     initial={"kind": "traveling_wave", "speed": 3.3},
                     output={"stride": 2, "directory": str(out)})
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stderr.startswith("error: grid does not resolve the wave at speed 3.3: "
                                   "spectral tail nan")
        assert len(r.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["solitary", "--model", "kdv", "--speed", "1e6"],
         ["solitary", "--model", "boussinesq", "--speed", "3.3", "--length", "1e-300"]],
        ids=["kdv_huge_speed", "boussinesq_tiny_length"],
    )
    def test_no_floating_point_warnings_before_the_error(self, argv):
        r = cli(*argv)
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
          "error: Unable to allocate 745. GiB for an array with shape (100000000000,)\n"),
         (MemoryError(), "error: MemoryError\n")],
        ids=["numpy_message", "bare"],
    )
    def test_memory_error_is_one_line(self, monkeypatch, error, line):
        # a stand-in command: a real 1e11-node grid would exhaust the machine
        def exhaust(args):
            raise error

        monkeypatch.setattr("wavemodels.cli._cmd_solitary", exhaust)
        r = cli("solitary", "--model", "kdv", "--speed", "3.3")
        assert (r.returncode, r.stdout, r.stderr) == (1, "", line)

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_module_entry_point_exit_code(self, tmp_path, code):
        # the one test that runs `python -m wavemodels` in a fresh interpreter
        cfg = tmp_path / "hopf.json"
        write_config(cfg, model="hopf",
                     initial={"kind": "simple_wave", "amplitude": 0.5, "width_parameter": 0.1},
                     t_end=50.0, output={"stride": 10, "directory": str(tmp_path / "out")})
        argv = {0: ["classify", *(f"--{k}={v!r}" for k, v in GOOD_ABCD.items())],
                1: ["dispersion", "--ximax", "1", "--samples", "0"],
                2: ["run", "--config", str(cfg)]}[code]
        r = subprocess.run([sys.executable, "-m", "wavemodels", *argv],
                           capture_output=True, text=True)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        if code == 1:
            assert len(r.stderr.splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["dispersion", "--help"])
        assert info.value.code == 0
        assert "--ximax" in capsys.readouterr().out

    def test_boussinesq_scenario_end_to_end(self, tmp_path):
        cfg = tmp_path / "bq.json"
        write_config(
            cfg,
            model="boussinesq",
            abcd={"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0},
            grid={"length": 200.0, "nodes": 512},
            initial={"kind": "gaussian", "amplitude": 0.25,
                     "width_parameter": 0.31622776601683794},
            t_end=5.0,
            output={"stride": 2, "directory": str(tmp_path / "out")},
        )
        r = cli("run", "--config", str(cfg))
        assert r.returncode == 0
        data = np.genfromtxt(tmp_path / "out" / "snapshot_0002.csv", delimiter=",", names=True)
        assert np.max(np.abs(np.asarray(data["zeta_m"]))) < 0.25

    def test_compare_subcommand(self, tmp_path):
        ca, cb = tmp_path / "a.json", tmp_path / "b.json"
        write_config(ca, model="airy", t_end=5.0)
        write_config(cb, model="acoustic", t_end=5.0)
        ini = tmp_path / "ini.json"
        ini.write_text(json.dumps({"kind": "gaussian", "amplitude": 0.01, "width_parameter": 0.1}))
        r = cli("compare", "--config-a", str(ca), "--config-b", str(cb), "--initial", str(ini))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["summary"] < 0.05

    def test_seventeen_significant_digits(self, tmp_path):
        sc = Scenario(
            model="airy",
            grid=Grid(200.0, 128),
            initial=InitialData(kind="gaussian", amplitude=0.01, width_parameter=1.0),
            t_end=1.0,
            output_stride=1,
        )
        result = run(sc, output_dir=tmp_path)
        row = result.snapshot_paths[1].read_text().splitlines()[60]
        mantissa = row.split(",")[1].lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) >= 15  # 17 significant digits requested

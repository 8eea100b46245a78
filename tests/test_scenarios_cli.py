"""Tests for scenario configuration, the run/compare drivers, and the CLI."""

import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from wavemodels import (
    AbcdParams,
    BreakingError,
    DtControl,
    Grid,
    PhysicalParams,
    SpectralField,
    boussinesq_solitary_solve,
    breaking_time,
    kdv_soliton,
    petviashvili_solve,
    simple_wave_elevation,
    simple_wave_velocity,
)
from wavemodels import scenarios
from wavemodels.cli import main
from wavemodels.scenarios import (
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


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wavemodels", *args], capture_output=True, text=True
    )


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

    def test_hopf_breaking_below_t_star_halts(self, tmp_path, monkeypatch):
        # the foot-point scan may detect breaking just before the computed T*
        def breaks(*args):
            raise BreakingError("foot-point map is not monotone: breaking detected")

        monkeypatch.setattr(scenarios, "hopf_characteristic_solve", breaks)
        sc = Scenario(
            model="hopf",
            grid=Grid(200.0, 256),
            initial=InitialData(kind="simple_wave", amplitude=0.05, width_parameter=1.0),
            t_end=2.0,
            output_stride=2,
        )
        result = run(sc, output_dir=tmp_path)
        assert result.exit_code == 2
        assert result.halt.reason == "breaking"
        assert len(result.snapshot_paths) == 1  # only t = 0 precedes the halt

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
        zeta = 0.01 * np.exp(-(xs**2))
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


MATRIX_GRID = Grid(100.0, 256)
MATRIX_KINDS = {
    "gaussian": {"kind": "gaussian", "amplitude": 0.05, "width_parameter": 0.3},
    "file": {"kind": "file"},
    "file_explicit": {"kind": "file", "companion": "explicit"},
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
    if kind in ("simple_wave", "from_simple_wave_relation"):
        if model not in ("saint_venant", "hopf"):
            return "the simple-wave velocity relation applies to saint_venant and hopf only"
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
    if model == "hopf":  # hopf writes the elevation of the simple wave its u carries
        columns["zeta_m"] = simple_wave_elevation(columns["u_m_per_s"], P)
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
        with pytest.raises(ScenarioError, match=f"file initial data needs a {second} column"):
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
             "error: --profile u_m_per_s column holds a non-finite value"),
        ],
        ids=["header_only", "one_row", "non_uniform", "decreasing", "nan_velocity"],
    )
    def test_shocktime_profile_checks(self, tmp_path, capsys, rows, message):
        profile = tmp_path / "u.csv"
        profile.write_text("\n".join(["x_m,u_m_per_s", *rows]) + "\n")
        assert main(["shocktime", "--profile", str(profile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
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
        ],
        ids=["nan_width", "infinite_t_end", "fractional_nodes"],
    )
    def test_non_finite_or_fractional_input_exit_code(self, tmp_path, overrides):
        cfg = tmp_path / "bad.json"
        write_config(cfg, output={"stride": 2, "directory": str(tmp_path / "out")}, **overrides)
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

    def test_directory_as_config_exit_code(self, tmp_path):
        r = cli("run", "--config", str(tmp_path))
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"physical": {"g": "x", "H": 1.0}}, "error: physical.g must be a finite number"),
            ({"grid": {"length": 200.0}}, "error: grid is missing key(s): nodes"),
        ],
        ids=["non_numeric_gravity", "grid_without_nodes"],
    )
    def test_schema_error_exit_code(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "bad.json"
        write_config(cfg, **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
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
        ],
        ids=["nan_ximax", "nan_amplitude", "infinite_sweep_speed", "missing_ximax",
             "bad_choice", "no_command"],
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
        ],
        ids=["airy_nan", "kdv_nan", "airy_text", "kdv_text", "explicit_velocity_inf", "nan_x"],
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
        src.write_text("x_m,zeta_m,u_m_per_s\n"
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

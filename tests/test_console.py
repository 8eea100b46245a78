"""Console-script cases: each drives ``cli.main`` in-process, as the installed
``wavemodels`` script does, on the configs and argv a user would give it, and
checks the exit code, the stderr lines and the files written.

The two cases that must raise no DeprecationWarning call ``main`` directly
under an error filter, which forked writers inherit; the ``cli`` helper
would reset the filters to print warnings instead."""

import argparse
import csv
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from wavemodels import Grid, SpectralField, scenarios
from wavemodels.cli import build_parser, main

from test_scenarios_cli import cli


def write_profile(path, grid, header, *columns):
    """A CSV of the grid's x and ``columns``, each value written with %.17g."""
    rows = zip(grid.axis_coordinates(0), *columns)
    path.write_text(header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                            for row in rows))
    return str(path)


def run_config(tmp_path, config):
    """``wavemodels run`` on ``config``: (the CompletedProcess, its output directory)."""
    cfg, out = tmp_path / "run.json", tmp_path / "run"
    cfg.write_text(json.dumps({"version": 1, **config}))
    return cli("run", "--config", str(cfg), "--outdir", str(out)), out


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_a_boussinesq_system_takes_simple_wave_data(tmp_path):
    r, _ = run_config(tmp_path, {
        "model": "boussinesq",
        "abcd": {"a": 0.0, "b": 0.16666666666666666, "c": 0.0, "d": 0.16666666666666666},
        "grid": {"length": 100.0, "nodes": 256}, "t_end": 2.0, "output": {"stride": 2},
        "initial": {"kind": "simple_wave", "amplitude": 0.05, "width_parameter": 0.3}})
    assert (r.returncode, r.stderr) == (0, "")


@pytest.mark.parametrize("model, companion", [("kdv", None),
                                              ("hopf", "from_simple_wave_relation")])
def test_the_first_snapshot_is_the_file_column_byte_for_byte(tmp_path, model, companion):
    # hopf's later snapshots write the elevation of the simple wave of u
    grid = Grid(100.0, 256)
    xs = grid.axis_coordinates(0)
    path = write_profile(tmp_path / "init.csv", grid, "x_m,zeta_m",
                         0.05 * np.exp(-0.09 * xs * xs))
    initial = {"kind": "file", "path": path, **({"companion": companion} if companion else {})}
    r, out = run_config(tmp_path, {"model": model, "grid": {"length": 100.0, "nodes": 256},
                                   "initial": initial, "t_end": 1.0, "output": {"stride": 2}})
    assert r.returncode == 0

    def column(text):
        return [line.split(",")[1] for line in text.splitlines()]

    assert (column((out / "snapshot_0000.csv").read_text())
            == column((tmp_path / "init.csv").read_text()))


def test_shocktime_keeps_the_nyquist_slope(tmp_path):
    # the interpolant of 0.01 (-1)^j on 64 nodes breaks at 2 / (3 0.01 32)
    grid = Grid(2.0 * np.pi, 64)
    path = write_profile(tmp_path / "nyquist.csv", grid, "x_m,u_m_per_s",
                         0.01 * (-1.0) ** np.arange(64))
    r = cli("shocktime", "--profile", path)
    assert r.returncode == 0
    assert abs(float(r.stdout) - 2.0 / (3.0 * 0.01 * 32)) <= 1e-12


def test_a_hopf_wave_far_from_breaking_runs_to_t_end_1e19(tmp_path):
    grid = Grid(200.0, 256)
    xs = grid.axis_coordinates(0)
    path = write_profile(tmp_path / "init.csv", grid, "x_m,zeta_m,u_m_per_s", 0.0 * xs,
                         1e-22 * np.exp(-(0.3 * xs) ** 2))
    r, _ = run_config(tmp_path, {
        "model": "hopf", "grid": {"length": 200.0, "nodes": 256}, "t_end": 1e19,
        "initial": {"kind": "file", "path": path, "companion": "explicit"},
        "output": {"stride": 2}})
    assert r.returncode == 0


def test_a_hopf_run_of_nyquist_data_solves_the_foot_relation(tmp_path):
    # to 0.95 T*, every snapshot solves the foot relation of the interpolant u0,
    # Nyquist cosine included
    grid = Grid(2.0 * np.pi, 64)
    xs = grid.axis_coordinates(0)
    path = write_profile(tmp_path / "init.csv", grid, "x_m,zeta_m,u_m_per_s", 0.0 * xs,
                         0.01 * (-1.0) ** np.arange(64) + 0.05 * np.sin(xs))
    r, out = run_config(tmp_path, {
        "model": "hopf", "grid": {"length": 6.283185307179586, "nodes": 64}, "t_end": 1.712,
        "initial": {"kind": "file", "path": path, "companion": "explicit"},
        "output": {"stride": 4}})
    assert r.returncode == 0
    m = manifest(out)
    c0 = math.sqrt(m["scenario"]["physical"]["g"] * m["scenario"]["physical"]["H"])
    snapshots = [np.loadtxt(out / f, delimiter=",", skiprows=1) for f in m["snapshot_files"]]
    assert len(m["snapshot_times"]) == 5 and m["halt"] is None
    u0 = SpectralField(grid, snapshots[0][:, 2])
    for t, data in zip(m["snapshot_times"][1:], snapshots[1:]):
        x, u = data[:, 0], data[:, 2]
        feet = x - math.remainder(c0 * t, 2.0 * np.pi) - 1.5 * t * u
        gap = np.max(np.abs(u - u0.evaluate(feet)))
        assert gap <= 1e-12 * np.max(np.abs(u0.values)), f"foot relation off by {gap} at t = {t}"


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_forked_and_inline_snapshot_writers_write_the_same_bytes(tmp_path, monkeypatch):
    # a 256^2 airy run is above the writers' fork gate: its files are written by
    # forked writers when the run may use many cores, and inline on one
    config = tmp_path / "airy2d.json"
    config.write_text(json.dumps({
        "version": 1, "model": "airy", "dim": 2, "grid": {"length": 100.0, "nodes": 256},
        "initial": {"amplitude": 0.01}, "t_end": 15.0, "output": {"stride": 10}}))
    written = {}
    for cores in (8, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / f"cores_{cores}"
        assert main(["run", "--config", str(config), "--outdir", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.glob("snapshot_*.csv")}
        written[cores] = manifest(out)["diagnostics"]["write_workers"], files
    assert written[8][0] == 4 and written[1][0] == 1
    assert len(written[1][1]) == 11
    assert written[8][1] == written[1][1]


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_a_hopf_simple_wave_halts_at_its_breaking_time(tmp_path):
    # the characteristics benchmark config: exit 2 at the crossing time T*, with
    # the snapshots before it, all finite
    config = tmp_path / "hopf.json"
    config.write_text(json.dumps({
        "version": 1, "model": "hopf", "grid": {"length": 200.0, "nodes": 1024},
        "initial": {"kind": "simple_wave", "amplitude": 0.05}, "t_end": 15.0,
        "output": {"stride": 10}}))
    out = tmp_path / "hopf"
    assert main(["run", "--config", str(config), "--outdir", str(out)]) == 2
    halt = manifest(out)["halt"]
    assert halt["reason"] == "breaking" and halt["time"] == halt["breaking_time_estimate"]
    rows = [np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
            for f in sorted(out.glob("snapshot_*.csv"))]
    assert len(rows) == 4
    assert all(r.shape[0] == 1024 and np.isfinite(r).all() for r in rows)


def test_the_solitary_sweeps_converge_in_few_sweeps():
    # every residual <= 1e-10, and the Anderson step's sweep counts: <= 30 for
    # whitham, <= 20 for boussinesq (the plain sweep takes 42, 51 and 43)
    sweep = cli("solitary", "--model", "whitham", "--speeds", "3.2,3.3")
    assert sweep.returncode == 0
    rows = list(csv.DictReader(io.StringIO(sweep.stdout)))
    assert len(rows) == 2
    assert all(float(row["residual"]) <= 1e-10 and int(row["iterations"]) <= 30 for row in rows)
    profile = cli("solitary", "--model", "boussinesq", "--speed", "3.3")
    assert profile.returncode == 0
    meta = json.loads(profile.stderr)
    assert meta["residual"] <= 1e-10 and meta["iterations"] <= 20


def test_a_traveling_wave_run_that_does_not_decay_is_refused(tmp_path):
    r, out = run_config(tmp_path, {"model": "whitham", "grid": {"length": 5.0, "nodes": 256},
                                   "initial": {"kind": "traveling_wave", "speed": 3.3}})
    assert (r.returncode, r.stdout) == (1, "")
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("error: the wave at speed 3.3 does not decay on a domain of "
                               "length 5: ")
    assert not out.exists()


def synopsis_problems(readme):
    """What the ```sh block under ``## CLI`` in ``readme`` says that ``build_parser``
    does not: a ``<cmd>`` or ``--flag`` on a ``wavemodels <cmd>`` line that the parser
    lacks, and a subcommand that no line shows."""
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    problems, shown = [], set()
    for line in block.splitlines():
        words = line.split("#")[0].split()
        if words[:1] != ["wavemodels"]:
            continue
        command = words[1]
        shown.add(command)
        if command not in commands:
            problems.append(f"{command} is no subcommand")
            continue
        options = commands[command]._option_string_actions
        problems += [f"{command} {flag}" for flag in re.findall(r"--[\w-]+", " ".join(words))
                     if flag not in options]
    return problems + [f"{command} not shown" for command in commands if command not in shown]


def layout_problems(readme, package):
    """Where the ``## Layout`` block of ``readme`` and the modules of the
    ``package`` directory disagree: a module other than ``__init__.py`` and
    ``__main__.py`` with no line of its own, and a line naming no module."""
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    named = set(re.findall(r"^  (\w+\.py)\s", block, re.M))
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py", "__main__.py"}
    return ([f"{name} has no line" for name in sorted(modules - named)]
            + [f"{name} is no module" for name in sorted(named - modules)])


def test_the_readme_layout_names_every_module():
    root = Path(__file__).resolve().parents[1]
    readme, package = (root / "README.md").read_text(), root / "src" / "wavemodels"
    assert layout_problems(readme, package) == []
    # the check itself: a module left out, and a line for a module that is gone
    assert layout_problems(readme.replace("  errors.py ", "  "), package) == [
        "errors.py has no line"]
    assert layout_problems(readme.replace("  cli.py ", "  cli.py \n  gone.py "), package) == [
        "gone.py is no module"]


def test_the_readme_cli_synopsis_names_only_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert synopsis_problems(readme) == []
    # the check itself: a flag the parser lacks, and a subcommand left out
    assert synopsis_problems(readme.replace("--ximax 10", "--xmax 10")) == ["dispersion --xmax"]
    assert synopsis_problems(readme.replace("wavemodels classify", "classify")) == [
        "classify not shown"]

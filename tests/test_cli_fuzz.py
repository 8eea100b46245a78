"""Bounded property test of the ``run`` exit-code contract over scenario dicts.

Any config the CLI is given ends in exit 0, 1 or 2; exit 1 prints one
``error:`` line; no snapshot written under exit 0 holds a non-finite value;
and every accepted scenario survives a to_dict/from_dict round trip.  The
50 examples are derandomized and small (N <= 64, t_end <= 0.5), so the
test is reproducible and cheap.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wavemodels import Grid, WavemodelsError
from wavemodels.cli import main
from wavemodels.scenarios import MODELS, Scenario

hypothesis = pytest.importorskip("hypothesis")

ABCD = [
    {"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0},
    {"a": 1.0 / 12.0, "b": 1.0 / 12.0, "c": 1.0 / 12.0, "d": 1.0 / 12.0},
    {"a": 1.0 / 3.0, "b": 0.0, "c": 0.0, "d": 0.0},  # ill-posed
]
FILE_COLUMNS = ("x_m", "zeta_m", "u_m_per_s", "psi_m2_per_s", "zeta_t_m_per_s")
BAD_CELLS = ("nan", "inf", "-inf", "abc", "")
# (section, key or None, invalid value): one of these may replace a valid entry
INVALID = [
    ("physical", "g", "x"), ("physical", "H", -1.0), ("t_end", None, -1.0),
    ("t_end", None, "soon"), ("output", "stride", 0), ("grid", "nodes", 7),
    ("grid", "length", 0.0), ("initial", "width_parameter", 0.0), ("initial", "kind", "sine"),
]


def config(seed):
    """A scenario dict and, for file initial data, the cell to spoil (or None).

    Every choice comes from one seeded generator: hypothesis varies and
    shrinks the seed, and each seed gives an independent draw of the
    structure (model, dim, kind, which entry is invalid), which keeps a
    small derandomized sample spread over all of it.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([1, 1, 1, 2]))
    nodes = int(rng.choice([8, 16, 32, 64] if dim == 1 else [8, 16]))
    kind = str(rng.choice(["gaussian", "file", "file", "file", "traveling_wave", "simple_wave"]))
    initial = {
        "kind": kind,
        "amplitude": float(rng.uniform(-0.4, 0.6)),
        "width_parameter": float(rng.uniform(0.05, 2.0)),
        "companion": str(rng.choice(["zero_velocity", "explicit", "from_simple_wave_relation"])),
    }
    if kind == "traveling_wave":
        initial["speed"] = float(rng.uniform(2.5, 4.5))
    raw = {
        "model": str(rng.choice(MODELS)),
        "dim": dim,
        "physical": {"g": float(rng.uniform(1.0, 20.0)), "H": float(rng.uniform(0.3, 3.0))},
        "grid": {"length": float(rng.uniform(20.0, 200.0)), "nodes": nodes},
        "initial": initial,
        "t_end": 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 0.5)),
        "output": {"stride": int(rng.integers(1, 4))},
    }
    if raw["model"] == "boussinesq" or rng.random() < 0.5:
        raw["abcd"] = ABCD[rng.integers(len(ABCD))]
    if rng.random() < 0.2:
        section, key, value = INVALID[rng.integers(len(INVALID))]
        if key is None:
            raw[section] = value
        else:
            raw[section][key] = value
    spoil = None
    if kind == "file" and rng.random() < 0.75:
        column = str(rng.choice(FILE_COLUMNS + ("zeta_m", "zeta_m")))
        spoil = (column, int(rng.integers(nodes)), str(rng.choice(BAD_CELLS)))
    return raw, spoil


def write_initial_file(path, raw, spoil):
    """A file on the config's grid (or a 16-node one if the grid is invalid)."""
    try:
        xs = Grid(raw["grid"]["length"], raw["grid"]["nodes"]).axis_coordinates(0)
    except ValueError:
        xs = Grid(100.0, 16).axis_coordinates(0)
    zeta = 0.05 * np.exp(-0.1 * xs**2)
    table = [[repr(float(v)) for v in col] for col in (xs, zeta, 0.5 * zeta, 0.0 * xs, 0.0 * xs)]
    if spoil is not None:
        column, row, cell = spoil
        table[FILE_COLUMNS.index(column)][row % len(xs)] = cell
    path.write_text(",".join(FILE_COLUMNS) + "\n"
                    + "".join(",".join(r) + "\n" for r in zip(*table)))


@hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
@hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
def test_run_ends_in_a_documented_exit_code(seed):
    raw, spoil = config(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if raw["initial"]["kind"] == "file":
            raw["initial"]["path"] = str(tmp / "init.csv")
            write_initial_file(tmp / "init.csv", raw, spoil)
        cfg, out = tmp / "run.json", tmp / "out"
        cfg.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--outdir", str(out)])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert err.getvalue() == ""
        if code == 0:
            for path in out.glob("snapshot_*.csv"):
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(data)), path.name

        try:
            sc = Scenario.from_dict(raw)
        except (WavemodelsError, ValueError):
            return
        assert Scenario.from_dict(sc.to_dict()) == sc

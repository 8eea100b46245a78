"""Bounded property tests of the CLI exit-code contract.

Any config ``run`` is given ends in exit 0, 1 or 2; exit 1 prints one
``error:`` line; no snapshot written under exit 0 holds a non-finite value;
and every accepted scenario survives a to_dict/from_dict round trip.  Any
argv of ``dispersion``, ``solitary``, ``shocktime`` and ``classify`` ends
in exit 0 or 1; exit 1 prints one ``error:`` line; under exit 0 every CSV
value is finite and every JSON line is strict JSON.  Each test's 50
examples are derandomized and small (``run``: N <= 64 and t_end <= 0.5;
argv: N <= 256 and at most 1000 samples), so the tests are reproducible
and cheap.  The exact models (airy, acoustic, hopf) are also drawn with
|amplitude| up to 1e308, with zeta below -H, and on grids of 1e-300 and
1e300 m.  The run configs break each scenario rule only at a stated rate,
so most of them load and run; a test holds that share.
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
from wavemodels.traveling import SOLITARY_METHODS

hypothesis = pytest.importorskip("hypothesis")

ABCD = [
    {"a": -1.0 / 3.0, "b": 1.0 / 3.0, "c": 0.0, "d": 1.0 / 3.0},
    {"a": 1.0 / 12.0, "b": 1.0 / 12.0, "c": 1.0 / 12.0, "d": 1.0 / 12.0},
    {"a": 1.0 / 3.0, "b": 0.0, "c": 0.0, "d": 0.0},  # ill-posed
]
FILE_COLUMNS = ("x_m", "zeta_m", "u_m_per_s", "psi_m2_per_s", "zeta_t_m_per_s")
BAD_CELLS = ("nan", "inf", "-inf", "abc", "")
EXACT_MODELS = ("airy", "acoustic", "hopf")  # drawn at extreme amplitudes and grid lengths too
# the models that take dim 2, and whose second field (psi, zeta_t) has no simple-wave relation
LINEAR_MODELS = ("airy", "acoustic")
KINDS = ("gaussian", "file", "file", "file", "traveling_wave", "simple_wave")
COMPANIONS = ("zero_velocity", "explicit", "from_simple_wave_relation")
# config follows these scenario rules, so that most runs complete, but breaks
# each at rate BREAK, so that every refusal is still drawn: dim 2 only for
# LINEAR_MODELS; file data only in 1-D; traveling_wave only for
# SOLITARY_METHODS; the simple-wave relation (simple_wave or
# from_simple_wave_relation) not for LINEAR_MODELS; explicit only with file;
# abcd only for boussinesq, and a well-posed row for it; and data the grid
# resolves for a stepped model: more than 8 nodes and a width_parameter in
# [0.2, 0.4] N/L, at most 2 (broken, it is drawn in [1, 2] whatever the grid).
BREAK = 0.05
# (section, key or None, invalid value): one of these may replace a valid entry
INVALID = [
    ("physical", "g", "x"), ("physical", "H", -1.0), ("t_end", None, -1.0),
    ("t_end", None, "soon"), ("output", "stride", 0), ("grid", "nodes", 7),
    ("grid", "length", 0.0), ("initial", "width_parameter", 0.0), ("initial", "kind", "sine"),
    # a value of a wrong JSON type for every key of the schema
    ("version", None, True), ("model", None, 5), ("dim", None, 1.0), ("physical", None, [9.81]),
    ("abcd", None, "x"), ("grid", None, 200.0), ("initial", None, "gaussian"), ("output", None, 3),
    ("physical", "H", True), ("abcd", "a", "x"), ("abcd", "b", True), ("abcd", "c", "0"),
    ("abcd", "d", [0.0]), ("grid", "length", "100"), ("grid", "nodes", 16.0),
    ("initial", "kind", 5), ("initial", "amplitude", "0.1"), ("initial", "width_parameter", True),
    ("initial", "center", "0"), ("initial", "companion", 1), ("initial", "speed", "3"),
    ("initial", "path", 5), ("output", "stride", 2.0), ("output", "directory", 5),
]


def config(seed, path):
    """A scenario dict, whose file initial data is read from ``path``, and
    for file initial data the cell to spoil (or None).

    Every choice comes from one seeded generator: hypothesis varies and
    shrinks the seed, and each seed gives an independent draw of the
    structure (model, dim, kind, which entry is invalid), which keeps a
    small derandomized sample spread over all of it.
    """
    rng = np.random.default_rng(seed)

    def pick(options, allowed):
        """One of ``options`` that ``allowed`` accepts or, at rate BREAK, one it refuses."""
        refused = [o for o in options if not allowed(o)]
        if refused and rng.random() < BREAK:
            return refused[rng.integers(len(refused))]
        accepted = [o for o in options if allowed(o)]
        return accepted[rng.integers(len(accepted))]

    model = str(rng.choice(MODELS))
    dim = pick((1, 1, 1, 2), lambda d: d == 1 or model in LINEAR_MODELS)
    nodes = pick((8, 16, 32, 64) if dim == 1 else (8, 16),
                 lambda n: n > 8 or model in EXACT_MODELS)
    length = float(rng.uniform(20.0, 200.0))
    kind = pick(KINDS, lambda k: (k != "file" or dim == 1)
                and (k != "traveling_wave" or model in SOLITARY_METHODS)
                and (k != "simple_wave" or model not in LINEAR_MODELS))
    width_bound = min(0.4 * nodes / length, 2.0) if rng.random() >= BREAK else 2.0
    initial = {
        "kind": kind,
        "amplitude": float(rng.uniform(-0.4, 0.6)),
        "width_parameter": float(rng.uniform(0.5, 1.0)) * width_bound,
        "companion": pick(COMPANIONS, lambda c: (c != "explicit" or kind == "file") and (
            c != "from_simple_wave_relation" or model not in LINEAR_MODELS)),
    }
    if kind == "traveling_wave":
        initial["speed"] = float(rng.uniform(2.5, 4.5))
    if kind == "file":
        initial["path"] = str(path)
    raw = {
        "model": model,
        "dim": dim,
        "physical": {"g": float(rng.uniform(1.0, 20.0)), "H": float(rng.uniform(0.3, 3.0))},
        "grid": {"length": length, "nodes": nodes},
        "initial": initial,
        "t_end": 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 0.5)),
        "output": {"stride": int(rng.integers(1, 4))},
    }
    if model in EXACT_MODELS and rng.random() < 0.6:
        # an exact model costs the same at any amplitude and on any grid
        extreme = rng.integers(3)
        if extreme == 0:
            initial["amplitude"] = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 308.0))
        elif extreme == 1:  # zeta < -H somewhere
            initial["amplitude"] = -raw["physical"]["H"] * float(rng.uniform(1.0, 3.0))
        else:
            raw["grid"]["length"] = float(rng.choice([1e-300, 1e300]))
    if model == "boussinesq":
        raw["abcd"] = dict(ABCD[2] if rng.random() < BREAK else ABCD[rng.integers(2)])
    elif rng.random() < BREAK:
        raw["abcd"] = dict(ABCD[rng.integers(len(ABCD))])
    if rng.random() < 0.2:
        section, key, value = INVALID[rng.integers(len(INVALID))]
        if key is None:
            raw[section] = value
        else:
            raw.setdefault(section, dict(ABCD[0]))[key] = value  # abcd may be absent
    spoil = None
    if kind == "file" and rng.random() < 0.75:
        column = str(rng.choice(FILE_COLUMNS + ("zeta_m", "zeta_m")))
        spoil = (column, int(rng.integers(nodes)), str(rng.choice(BAD_CELLS)))
    return raw, spoil


def write_initial_file(path, raw, spoil):
    """A file on the config's grid (or a 16-node one if the grid is invalid), whose
    zeta is a Gaussian of width parameter 0.3/dx, which that grid resolves."""
    try:
        grid = Grid(raw["grid"]["length"], raw["grid"]["nodes"])
    except (ValueError, TypeError):  # TypeError: the grid is not a JSON object
        grid = Grid(100.0, 16)
    xs = grid.axis_coordinates(0)
    zeta = 0.05 * np.exp(-((0.3 * xs / grid.spacing[0]) ** 2))
    table = [[repr(float(v)) for v in col] for col in (xs, zeta, 0.5 * zeta, 0.0 * xs, 0.0 * xs)]
    if spoil is not None:
        column, row, cell = spoil
        table[FILE_COLUMNS.index(column)][row % len(xs)] = cell
    path.write_text(",".join(FILE_COLUMNS) + "\n"
                    + "".join(",".join(r) + "\n" for r in zip(*table)))


@hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
@hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
def test_run_ends_in_a_documented_exit_code(seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw, spoil = config(seed, tmp / "init.csv")
        write_initial_file(tmp / "init.csv", raw, spoil)  # read only by file initial data
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


def test_most_run_configs_load():
    # a draw that breaks a scenario rule ends in exit 1 before it runs; if new
    # rules turn most draws into refusals, the run paths lose their examples
    loaded = 0
    for seed in range(1000):
        try:
            Scenario.from_dict(config(seed, "init.csv")[0])
            loaded += 1
        except (WavemodelsError, ValueError):
            pass
    assert loaded >= 600, loaded


# Every float option of the argv fuzz is a typical value, its negative or one of these
EXTREMES = (1e-300, -1e-300, 1e300, -1e300, 0.0)
OUT_OF_RANGE = (0, 1, 10**6 + 1)  # node and sample counts outside every valid range
ABCD_ROWS = [tuple(row.values()) for row in ABCD] + [(0.0, 1.0 / 6.0, 0.0, 1.0 / 6.0)]


def argv(seed):
    """The argv of one ``dispersion``, ``solitary``, ``shocktime`` or ``classify`` call."""
    rng = np.random.default_rng(seed)

    def number(low, high):
        r = rng.random()
        if r < 0.5:
            return float(rng.uniform(low, high))
        return -float(rng.uniform(low, high)) if r < 0.6 else float(rng.choice(EXTREMES))

    def count(low, high):
        """An even count in [low, high] (low even), or one out of range."""
        if rng.random() < 0.8:
            return 2 * int(rng.integers(low // 2, high // 2 + 1))
        return int(rng.choice(OUT_OF_RANGE))

    command = str(rng.choice(["dispersion", "solitary", "shocktime", "classify"]))
    args = [command]

    def option(name, value):
        args.extend([f"--{name}", repr(value) if isinstance(value, float) else str(value)])

    def abcd():  # a valid row, some of its entries replaced
        row = ABCD_ROWS[rng.integers(len(ABCD_ROWS))]
        for name, value in zip("abcd", row):
            option(name, number(0.0, 0.4) if rng.random() < 0.25 else value)

    if command == "dispersion":
        option("ximax", number(0.1, 10.0))
        option("samples", count(2, 1000))
        option("quantity", str(rng.choice(["phase", "group", "both"])))
    elif command == "solitary":
        model = str(rng.choice(tuple(SOLITARY_METHODS)))
        option("model", model)
        if rng.random() < 0.3:
            option("speeds", ",".join(repr(number(3.2, 3.6)) for _ in range(2)))
        else:
            option("speed", number(3.2, 3.6))
        if rng.random() < 0.5:
            option("length", number(50.0, 200.0))
        option("nodes", count(32, 256))
        if model == "boussinesq":
            abcd()
    elif command == "shocktime":
        option("builtin", str(rng.choice(["minus-sine", "gaussian-bump"])))
        option("amplitude", number(0.1, 2.0))
        option("width", number(0.1, 2.0))
        option("length", number(20.0, 200.0))
        option("nodes", count(8, 256))
    else:
        abcd()
    if command != "shocktime":
        for name, low, high in (("g", 1.0, 20.0), ("H", 0.3, 3.0)):
            if rng.random() < 0.8:
                option(name, number(low, high))
    return args


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
@hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1).map(argv))
# g H underflowing to 0 and overflowing to inf, and an omega^2 of -+inf
@hypothesis.example(["solitary", "--model", "kdv", "--speed", "1", "--g", "1e-200", "--H", "1e-200"])
@hypothesis.example(["dispersion", "--ximax", "1", "--samples", "3", "--g", "1e308", "--H", "1e308"])
@hypothesis.example(["classify", "--a", "-0.3333333333333333", "--b", "0.3333333333333333",
                     "--c", "0", "--d", "0.3333333333333333", "--H", "1e-300"])
@hypothesis.example(["classify", "--a", "0.3333333333333333", "--b", "0", "--c", "0", "--d", "0",
                     "--H", "1e-300"])
def test_other_commands_end_in_a_documented_exit_code(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        return
    for line in (out.getvalue() + err.getvalue()).splitlines():
        if line.startswith("{"):
            json.loads(line, parse_constant=refuse_constant)
    if args[0] in ("dispersion", "solitary") and out.getvalue():
        data = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(data))

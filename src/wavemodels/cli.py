"""Command-line interface.

Subcommands:
  run         execute a scenario config, writing snapshots and a manifest
  compare     run two scenarios on shared initial data and report L2 gaps
  dispersion  emit phase/group velocity curves as CSV
  solitary    compute traveling-wave profiles and amplitude-speed sweeps
  shocktime   print the wavebreaking time of a velocity profile
  classify    print the well-posedness verdict of abcd parameters

Exit codes: 0 success, 1 invalid input (a bad argument included), 2 halt
(breaking, cavitation, or a non-finite state) with partial output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

import numpy as np

from ._format import FLOAT_FORMAT
from .dispersive import AbcdParams, classify_abcd
from .errors import WavemodelsError
from .hyperbolic import breaking_time
from .linear import group_velocity, phase_velocity
from .physics import PhysicalParams
from .scenarios import (SOLITARY_MODELS, InitialData, compare, json_record, load_scenario,
                        read_csv_column, run, write_rows)
from .spectral import Grid, SpectralField
from .traveling import solitary_wave, suggested_domain_length


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, which ``main`` reports as invalid input.

    argparse would print the usage and exit 2, the code of a halt.  A negative
    number in scientific notation (``--a -3.3e-1``) is read as a value, where
    argparse's own pattern takes it for an option flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    return [_finite_float(item) for item in text.split(",")]


_MAX_SAMPLES = 10**6


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 2 <= value <= _MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [2, {_MAX_SAMPLES}], got {text!r}")
    return value


def _add_physical_args(parser):
    parser.add_argument("--g", type=_finite_float, default=9.81, help="gravity [m/s^2]")
    parser.add_argument("--H", type=_finite_float, default=1.0, help="still-water depth [m]")


@contextlib.contextmanager
def _out_stream(path):
    """stdout for no path, else the opened file, closed on exit."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    result = run(scenario, output_dir=args.outdir)
    print(f"manifest: {result.manifest_path}")
    if result.halt is not None:
        print(f"halted: {result.halt.reason} at t = {FLOAT_FORMAT % result.halt.time}")
    return result.exit_code


def _cmd_compare(args) -> int:
    sa = load_scenario(args.config_a)
    sb = load_scenario(args.config_b)
    with open(args.initial) as fh:
        ini = InitialData.from_dict(json.load(fh))
    report = compare(sa, sb, ini)
    with _out_stream(args.out) as stream:
        json.dump(report.to_dict(), stream, indent=2, sort_keys=True)
        stream.write("\n")
    return 0


def _cmd_dispersion(args) -> int:
    p = PhysicalParams(args.g, args.H)
    xi = np.linspace(0.0, args.ximax, args.samples)
    cp = phase_velocity(xi, p)
    cg = group_velocity(xi, p)
    columns = {
        "phase": {"cp_m_per_s": cp},
        "group": {"cg_m_per_s": cg},
        "both": {"cp_m_per_s": cp, "cg_m_per_s": cg},
    }[args.quantity]
    with _out_stream(args.out) as stream:
        stream.write(",".join(["xi_per_m", *columns]) + "\n")
        write_rows(stream, [xi, *columns.values()])
    return 0


def _solitary_grid(args, p, speed) -> Grid:
    if args.length is not None:
        length = args.length
    else:
        length = max(suggested_domain_length(speed, p), 100.0)
    return Grid(length, args.nodes)


def _cmd_solitary(args) -> int:
    p = PhysicalParams(args.g, args.H)
    abcd = AbcdParams(args.a, args.b, args.c, args.d) if args.model == "boussinesq" else None
    if args.speed is None and args.speeds is None:
        raise ValueError("solitary requires --speed R or --speeds R1,R2,...")
    speeds = [args.speed] if args.speeds is None else args.speeds
    if args.speeds is not None:
        # amplitude-speed sweep: one row per speed, written once all are solved
        sols = [solitary_wave(args.model, s, p, _solitary_grid(args, p, s), abcd)
                for s in speeds]
        with _out_stream(args.out) as stream:
            stream.write("speed_m_per_s,amplitude_m,residual,iterations\n")
            write_rows(stream, [
                speeds,
                [sol.amplitude for sol in sols],
                [sol.residual for sol in sols],
                [sol.iterations for sol in sols],
            ])
        return 0

    grid = _solitary_grid(args, p, args.speed)
    sol = solitary_wave(args.model, args.speed, p, grid, abcd)
    with _out_stream(args.out) as stream:
        stream.write("x_m,zeta_m\n")
        write_rows(stream, [grid.axis_coordinates(0), sol.profile_zeta.values])
    meta = {
        "model": args.model,
        "speed": sol.speed,
        "amplitude": sol.amplitude,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "spectral_tail": sol.spectral_tail,
    }
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


_BUILTIN_PROFILES = ("minus-sine", "gaussian-bump")


def _cmd_shocktime(args) -> int:
    if args.builtin is None and args.profile is None:
        raise ValueError("shocktime requires --profile FILE or --builtin NAME")
    if args.builtin is not None:
        if args.builtin == "minus-sine":
            grid = Grid(2.0 * math.pi, args.nodes)
            u0 = SpectralField.from_function(grid, lambda x: -args.amplitude * np.sin(x))
        else:
            grid = Grid(args.length, args.nodes)
            u0 = SpectralField.from_function(
                grid, lambda x: args.amplitude * np.exp(-((args.width * x) ** 2))
            )
    else:
        xs, u = read_csv_column(args.profile, "u_m_per_s")
        if xs.size < 4:
            raise ValueError(f"--profile needs at least 4 rows, got {xs.size}")
        dx = (xs[-1] - xs[0]) / (xs.size - 1)
        if not np.max(np.abs(xs - xs[0] - dx * np.arange(xs.size))) <= 1e-8 * dx:
            raise ValueError("--profile x_m column must be uniformly spaced and increasing")
        length = float(xs[-1] - xs[0] + (xs[1] - xs[0]))
        u0 = SpectralField(Grid(length, xs.size), u)
    t_break = breaking_time(u0)  # inf: the profile never breaks
    if math.isnan(t_break):
        raise ValueError("the breaking time is not a number: the profile slope is not finite")
    print(FLOAT_FORMAT % t_break)
    return 0


def _cmd_classify(args) -> int:
    p = PhysicalParams(args.g, args.H)
    verdict = classify_abcd(AbcdParams(args.a, args.b, args.c, args.d), p)
    print(json.dumps(json_record(verdict), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wavemodels", description="Shallow-water wave model experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--outdir", default=None, help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two models on shared data")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--initial", required=True, help="shared InitialData JSON")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_disp = sub.add_parser("dispersion", help="phase/group velocity curves")
    p_disp.add_argument("--ximax", type=_finite_float, required=True)
    p_disp.add_argument("--samples", type=_sample_count, required=True)
    p_disp.add_argument("--quantity", choices=("phase", "group", "both"), default="both")
    p_disp.add_argument("--out", default=None)
    _add_physical_args(p_disp)
    p_disp.set_defaults(func=_cmd_dispersion)

    p_sol = sub.add_parser("solitary", help="traveling-wave profiles and sweeps")
    p_sol.add_argument("--model", choices=SOLITARY_MODELS, required=True)
    p_sol.add_argument("--speed", type=_finite_float, default=None)
    p_sol.add_argument("--speeds", type=_finite_floats, default=None,
                       help="comma-separated sweep speeds")
    p_sol.add_argument("--length", type=_finite_float, default=None)
    p_sol.add_argument("--nodes", type=int, default=1024)
    p_sol.add_argument("--a", type=_finite_float, default=-1.0 / 3.0)
    p_sol.add_argument("--b", type=_finite_float, default=1.0 / 3.0)
    p_sol.add_argument("--c", type=_finite_float, default=0.0)
    p_sol.add_argument("--d", type=_finite_float, default=1.0 / 3.0)
    p_sol.add_argument("--out", default=None)
    _add_physical_args(p_sol)
    p_sol.set_defaults(func=_cmd_solitary)

    p_shock = sub.add_parser("shocktime", help="wavebreaking time of a profile")
    p_shock.add_argument("--profile", default=None, help="CSV with x_m,u_m_per_s columns")
    p_shock.add_argument("--builtin", choices=_BUILTIN_PROFILES, default=None)
    p_shock.add_argument("--amplitude", type=_finite_float, default=1.0)
    p_shock.add_argument("--width", type=_finite_float, default=1.0)
    p_shock.add_argument("--length", type=_finite_float, default=80.0)
    p_shock.add_argument("--nodes", type=int, default=1024)
    p_shock.set_defaults(func=_cmd_shocktime)

    p_cls = sub.add_parser("classify", help="well-posedness of abcd parameters")
    p_cls.add_argument("--a", type=_finite_float, required=True)
    p_cls.add_argument("--b", type=_finite_float, required=True)
    p_cls.add_argument("--c", type=_finite_float, required=True)
    p_cls.add_argument("--d", type=_finite_float, required=True)
    _add_physical_args(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; every failure is one ``error:`` line on stderr,
    its message's line breaks and runs of spaces each made one space.

    Floating-point warnings are off: a non-finite result is reported by the
    check that rejects it, not by numpy.
    """
    try:
        with np.errstate(all="ignore"):
            args = build_parser().parse_args(argv)
            return args.func(args)
    except (WavemodelsError, ValueError, OSError, MemoryError) as err:
        print(f"error: {' '.join((str(err) or type(err).__name__).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

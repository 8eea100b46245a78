"""Benchmark of wavemodels: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload evolve --seed 1 --seconds 28 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one caller: operations run one after
another in this process.  ``--trace 0`` repeats passes over the workload's
operations for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
makes one traced pass plus the per-layer probes and reports the per-layer
metrics.  The last line of standard output is the JSON result.  Outputs of
a pass go to a temporary directory under ``.bench_tmp/`` that is deleted
after the pass; the spans of a traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# The layers that do most of each workload's work, for the traced share.
DOMINANT = {
    "evolve": ("hyperbolic", "dispersive"),
    "snapshots": ("scenarios",),
    "solitary": ("traveling",),
    "characteristics": ("hyperbolic",),
}


def _prepare_environment():
    """Import the package from the checkout, with at most nproc BLAS threads."""
    if not (ROOT / "src" / "wavemodels" / "__init__.py").is_file():
        sys.exit(f"error: no wavemodels sources under {ROOT / 'src'}; "
                 "run from a checkout of the repository")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("WAVEMODELS_OUTDIR", None)  # it would redirect every run's output
    sys.path.insert(0, str(ROOT / "src"))


def run_pass(ops, tracer, tmp_root: Path):
    """One pass over the operations: (wall seconds, attempted, failed, bytes written).

    Only the calls into wavemodels are timed; each output check runs right
    after its operation.  The pass's output directory is deleted at the end.
    """
    from workloads import CheckError

    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp_root))
    wall, failed, written = 0.0, 0, 0
    try:
        for op in ops:
            outdir = pass_dir / op.name
            try:
                with tracer.operation(op.name), tracer.span(op.span):
                    t0 = time.perf_counter()
                    result = op.call(outdir)
                    wall += time.perf_counter() - t0
                op.check(result)
            except CheckError as err:
                failed += 1
                print(f"check failed: {op.name}: {err}", file=sys.stderr)
            except Exception as err:  # an operation that raises counts as failed
                failed += 1
                print(f"operation failed: {op.name}: {type(err).__name__}: {err}",
                      file=sys.stderr)
        written = sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return wall, len(ops), failed, written


def setup_seconds(config_paths) -> float:
    """Time from interpreter start until the workload's configs are parsed."""
    from probes import time_child

    args = [str(HERE / "child.py"), "setup", *map(str, config_paths)]
    return time_child(args, until_line="ready")[0]


def untraced(workload, seed, seconds, size, tmp_root, config_paths):
    from tracing import NullTracer
    from workloads import build_ops

    ops = build_ops(workload, seed, config_paths, size)
    tracer = NullTracer()
    # The machine's speed changes within seconds, so set-up samples are spread
    # over the run: two before the first pass, one after each pass.
    setups = [setup_seconds(config_paths) for _ in range(2)]
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, n, bad, _ = run_pass(ops, tracer, tmp_root)
        setups.append(setup_seconds(config_paths))
        cycle = time.perf_counter() - t0
        walls.append(wall)
        attempted += n
        failed += bad
        # Start another pass only if it is expected to end within the budget.
        if time.perf_counter() - start + cycle > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(config_paths))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "passed_frac": ((attempted - failed) / attempted, "fraction"),
    }
    notes = {"passes": len(walls), "pass_wall_s": [round(w, 4) for w in walls],
             "setup_samples": len(setups),
             "failed_frac": failed / attempted, "env": environment()}
    return metrics, attempted, failed, notes


def environment() -> dict:
    """Versions and thread settings, read without importing anything new."""
    import platform
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def traced(workload, seed, size, tmp_root, config_paths):
    from probes import probe_layers
    from tracing import LAYERS, Tracer, instrument
    from workloads import build_ops

    tracer = Tracer()
    with instrument(tracer):
        ops = build_ops(workload, seed, config_paths, size)
        first = len(tracer.spans)
        wall, attempted, failed, written = run_pass(ops, tracer, tmp_root)
        pass_ops = {s["op"] for s in tracer.spans[first:]}
        probes = probe_layers(tracer, seed, size, config_paths)

    own = tracer.self_times()
    run_spans = [s for s in tracer.spans if s["name"] == "scenarios.run" and s["op"] in pass_ops]
    run_s = sum(s["end"] - s["start"] for s in run_spans)
    write_s = sum(own[s["id"]] for s in run_spans)
    layer_self = tracer.layer_self_seconds(pass_ops)
    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.dominant_share": (sum(layer_self[l] for l in DOMINANT[workload]) / wall,
                                 "fraction"),
        "scenarios.run_s": (run_s, "s"),
        "scenarios.write_s": (write_s, "s"),
        "scenarios.bytes_written": (written, "count"),
        "scenarios.write_mb_per_s": (written / 1e6 / write_s if write_s > 0 else 0.0, "MB/s"),
    }
    metrics.update({f"self_s.{layer}": (layer_self[layer], "s") for layer in LAYERS})
    metrics.update(probes)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json")
    notes = {"spans": len(tracer.spans), "failed_frac": failed / attempted}
    return metrics, attempted, failed, notes


def run_workload(workload, seed, seconds, trace, size="full"):
    from workloads import scenario_configs, write_configs

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        config_paths = write_configs(scenario_configs(workload, seed, size), work_dir / "configs")
        if trace:
            return traced(workload, seed, size, work_dir, config_paths)
        return untraced(workload, seed, seconds, size, work_dir, config_paths)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(metrics, attempted, failed) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke() -> int:
    """Every workload at toy size, traced and untraced, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            metrics, attempted, failed, _ = run_workload(workload, 1, 0.0, trace, size="toy")
            got = {k: u for k, (_, u) in metrics.items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {sorted(expected[trace])}")
            if failed:
                problems.append(f"{workload} trace {trace}: failed_frac {failed / attempted}")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"failed {failed}/{attempted}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("evolve", "snapshots", "solitary",
                                               "characteristics"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the metric names")
    args = parser.parse_args(argv)
    _prepare_environment()
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    metrics, attempted, failed, notes = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} notes {json.dumps(notes)}")
    print(result_line(metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

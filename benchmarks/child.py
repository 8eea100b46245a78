"""Work the benchmark times in a fresh interpreter.

    python3 benchmarks/child.py setup CONFIG...      import, parse configs, print "ready"
    python3 benchmarks/child.py boussinesq-rss N C   solve at N nodes, speed C; print peak RSS in MB
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(config_paths):
    import wavemodels  # noqa: F401
    import wavemodels.cli  # noqa: F401
    from wavemodels.scenarios import load_scenario

    for path in config_paths:
        load_scenario(path)
    print("ready", flush=True)


def boussinesq_rss(nodes, speed):
    import resource

    from wavemodels import Grid, boussinesq_solitary_solve
    from workloads import GOOD_PARAMS, P, solitary_length

    grid = Grid(solitary_length(speed), nodes)
    boussinesq_solitary_solve(GOOD_PARAMS, speed, P, grid)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    elif sys.argv[1] == "boussinesq-rss":
        boussinesq_rss(int(sys.argv[2]), float(sys.argv[3]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")

"""The model hierarchy: pairs of models differ at the order in the shallowness
mu = (H w)^2 that the asymptotic theory predicts (Duchene 2022, after Lannes 2013).

Each pair runs through ``scenarios.compare`` on shared Gaussian data of width
parameter w = sqrt(mu) / H, on L = 80 / w, for a horizon of a number of
widths travelled at c0.  A pair of a unidirectional model (kdv) and a
system (boussinesq) shares simple-wave data: the system's velocity is the
one that freezes the left-going Riemann invariant, so both carry one
right-going wave.  The gap is the relative L2 difference of zeta at the
end, and its slope in mu is a least-squares fit of log gap on log mu.

Over a fixed horizon of 5 widths (N = 1024, mu = 0.04, 0.01, 0.0025) the
gap is the pair's consistency error, O(mu) or O(mu^2).  mu = 0.16 is left
out: it lies outside the asymptotic range (from 0.16 to 0.01 the Boussinesq
pair fits 1.72).  Over the memoir's long time 1 / mu widths (N = 512,
mu = 0.04, 0.02, 0.01) an O(mu^2) error accumulates to O(mu).
"""

import math

import numpy as np
import pytest

from wavemodels import AbcdParams, Grid, PhysicalParams
from wavemodels.scenarios import InitialData, Scenario, compare

P = PhysicalParams()
MUS = (0.04, 0.01, 0.0025)
GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)
BBM = AbcdParams(0.0, 1.0 / 6.0, 0.0, 1.0 / 6.0)


def gap(a, b, mu, amplitude, widths, abcd_a=None, abcd_b=None, kind="gaussian", nodes=1024):
    """Relative L2 gap of zeta between models a and b after ``widths``
    Gaussian widths travelled at c0, from initial data of ``kind``."""
    w = math.sqrt(mu) / P.H
    grid = Grid(80.0 / w, nodes)
    t_end = widths / (P.c0 * w)
    sa = Scenario(model=a, abcd=abcd_a, grid=grid, t_end=t_end, output_stride=1)
    sb = Scenario(model=b, abcd=abcd_b, grid=grid, t_end=t_end, output_stride=1)
    report = compare(sa, sb, InitialData(kind=kind, amplitude=amplitude, width_parameter=w))
    return report.l2_relative_differences[-1]


# (pair, order in mu, gap at shallowness mu); the weakly nonlinear pairs
# take amplitude epsilon = mu (the Boussinesq regime) over 5 widths, the
# linear pair a fixed small amplitude over 10 widths.
PAIRS = [
    ("airy-acoustic", 1, lambda mu: gap("airy", "acoustic", mu, 0.01, 10.0)),
    ("saint_venant-boussinesq", 1,
     lambda mu: gap("saint_venant", "boussinesq", mu, mu, 5.0, abcd_b=GOOD)),
    ("kdv-whitham", 2, lambda mu: gap("kdv", "whitham", mu, mu, 5.0)),
    # whitham2's nonlinearity 3(sqrt(g(H + zeta)) - c0) is whitham's
    # (3 c0 / 2H) zeta plus O(epsilon^2) = O(mu^2)
    ("whitham2-whitham", 2, lambda mu: gap("whitham2", "whitham", mu, mu, 5.0)),
    ("boussinesq-boussinesq", 2,
     lambda mu: gap("boussinesq", "boussinesq", mu, mu, 5.0, abcd_a=GOOD, abcd_b=BBM)),
    ("kdv-boussinesq", 2,
     lambda mu: gap("kdv", "boussinesq", mu, mu, 5.0, abcd_b=BBM, kind="simple_wave")),
]


@pytest.mark.parametrize("order, gap_at", [pair[1:] for pair in PAIRS],
                         ids=[pair[0] for pair in PAIRS])
def test_gap_shrinks_at_the_predicted_order_in_mu(order, gap_at):
    gaps = [gap_at(mu) for mu in MUS]
    slope = np.polyfit(np.log(MUS), np.log(gaps), 1)[0]
    assert abs(slope - order) <= 0.25, f"gaps {gaps}, slope {slope:.3f}"


LONG_MUS = (0.04, 0.02, 0.01)
LONG_PAIRS = [
    ("kdv-whitham", lambda mu: gap("kdv", "whitham", mu, mu, 1.0 / mu, nodes=512)),
    ("boussinesq-boussinesq", lambda mu: gap("boussinesq", "boussinesq", mu, mu, 1.0 / mu,
                                             abcd_a=GOOD, abcd_b=BBM, nodes=512)),
    ("kdv-boussinesq", lambda mu: gap("kdv", "boussinesq", mu, mu, 1.0 / mu, abcd_b=BBM,
                                      kind="simple_wave", nodes=512)),
]


@pytest.mark.parametrize("gap_at", [pair[1] for pair in LONG_PAIRS],
                         ids=[pair[0] for pair in LONG_PAIRS])
def test_gap_at_the_long_time_is_order_mu(gap_at):
    gaps = [gap_at(mu) for mu in LONG_MUS]
    slope = np.polyfit(np.log(LONG_MUS), np.log(gaps), 1)[0]
    assert abs(slope - 1.0) <= 0.25, f"gaps {gaps}, slope {slope:.3f}"

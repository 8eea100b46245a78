"""Saint-Venant dynamics, Riemann invariants, characteristics, wavebreaking.

The 1D system is evolved pseudospectrally in the non-conservative velocity
form (flux mass equation, transport velocity equation), its linear waves
propagated exactly, until gradient blow-up; there is no shock capturing
past the breaking time.  Simple waves reduce to a scalar transport
equation with straight-line characteristics, solved exactly by foot-point
inversion, and the breaking time has the closed form T* = -2 / (3 inf u0').
The far field, where u0 is negligible and u is the translate
u0(x - c0 t), is settled without Newton, which runs only where the wave is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakingError, CavitationError, ConvergenceError
from .physics import PhysicalParams
from .spectral import Grid, SpectralField, derivative, evaluate_fields, translate_fields
from .stepping import DtControl, HaltEvent, Trajectory, integrate_pair, snapshot_times

__all__ = [
    "SVState",
    "RiemannPair",
    "to_riemann",
    "simple_wave_velocity",
    "simple_wave_elevation",
    "breaking_time",
    "hopf_characteristic_solve",
    "hopf_evolve",
    "sv_evolve",
]


@dataclass
class SVState:
    """Surface deformation and horizontal velocity at one time."""

    zeta: SpectralField
    u: SpectralField
    time: float = 0.0

    def __post_init__(self):
        if not self.zeta.same_grid(self.u):
            raise ValueError("zeta and u must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.zeta.grid

    def depth(self, p: PhysicalParams) -> np.ndarray:
        return p.H + self.zeta.values


@dataclass
class RiemannPair:
    """The transported quantities r_pm = u +- 2 sqrt(g (H + zeta))."""

    r_plus: SpectralField
    r_minus: SpectralField


def to_riemann(state: SVState, p: PhysicalParams) -> RiemannPair:
    """r_pm = u +- 2 sqrt(g h); requires a non-cavitating state."""
    h = state.depth(p)
    dmin = float(np.min(h))
    if dmin <= 0.0:
        raise CavitationError(f"non-cavitation violated: min depth {dmin} <= 0")
    s = 2.0 * np.sqrt(p.g * h)
    grid = state.grid
    return RiemannPair(
        r_plus=SpectralField(grid, state.u.values + s),
        r_minus=SpectralField(grid, state.u.values - s),
    )


def simple_wave_velocity(zeta, p: PhysicalParams):
    """Velocity pairing u = 2 sqrt(g(H+zeta)) - 2 sqrt(gH) that freezes r-."""
    if isinstance(zeta, SpectralField):
        return SpectralField(zeta.grid, simple_wave_velocity(zeta.values, p))
    return 2.0 * (np.sqrt(p.g * (p.H + np.asarray(zeta))) - math.sqrt(p.g * p.H))


def simple_wave_elevation(u, p: PhysicalParams):
    """Elevation zeta = (sqrt(gH) u + u^2/4) / g matching a simple wave."""
    if isinstance(u, SpectralField):
        return SpectralField(u.grid, simple_wave_elevation(u.values, p))
    u = np.asarray(u)
    return (p.c0 * u + 0.25 * u**2) / p.g


def breaking_time(u0: SpectralField) -> float:
    """First crossing time of the characteristics seeded by the interpolant of u0.

    Returns T* = -2 / (3 m) with m = inf u0', or +inf when m >= 0; u0' is the
    interpolant's ``derivative``, Nyquist slope included, and ``_crossing`` finds m.
    """
    return _crossing(derivative(u0, axis=0, order=1))[0]


def _crossing(du: SpectralField) -> tuple[float, float]:
    """(T*, x*): the crossing time of ``breaking_time`` and the foot x* of the
    steepest characteristic, where u0' = ``du`` takes its infimum m.

    u0' and u0'' are read at the nodes x_j and, by ``translate_fields``, at
    x_j + h, h = dx/2.  u0' lies at most b = (pi/2)^2 / 8 max|u0'| below its
    value at the nearest of these 2N points (Bernstein), so ``_newton``
    refines, with slope u0''', each point within 2b of the smallest value
    whose bracket [x - h, x + h] holds a - to + sign change of u0''.  m is
    the smallest value at a point or a root, the points and the smaller x first.
    """
    h, d2u = 0.5 * du.grid.spacing[0], derivative(du, axis=0, order=1)
    both = np.stack([(du.values, d2u.values), translate_fields(-h, du, d2u)], axis=-1)
    values, curve = both.reshape(2, -1)  # at x_0, x_0 + h, x_1, ...
    where = -0.5 * du.grid.length[0] + h * np.arange(values.size)
    bound = (0.5 * math.pi) ** 2 / 8.0 * float(np.max(np.abs(values)))
    turns = (np.roll(curve, 1) < 0.0) & (np.roll(curve, -1) > 0.0)
    near = np.flatnonzero(turns & (values <= np.min(values) + 2.0 * bound))
    x = where[near]
    roots = _newton((du, d2u, derivative(du, axis=0, order=2)),
                    lambda xa, v, active: v[1:], x, x - h, x + h, 1e-12 * h)
    values, where = np.append(values, roots), np.append(where, x)
    i = int(np.argmin(values))
    m = float(values[i])
    return (math.inf if m >= 0.0 else -2.0 / (3.0 * m)), float(where[i])  # NaN stays NaN


def _newton(fields, residual, x, lo, hi, tol: float):
    """Roots of ``residual``, one in each bracket, from the first guesses ``x``.

    ``residual(points, values, active)`` returns f and f' at a sweep's
    points from the rows of one ``evaluate_fields(points, *fields)`` call;
    ``active`` indexes the points in ``x``.  f < 0 at ``lo`` and f > 0 at
    ``hi``.  Newton steps are safeguarded as in ``rtsafe`` (Numerical
    Recipes, section 9.4): a step that leaves the closed bracket, or fails
    to halve the previous step, becomes a bisection.  Only unconverged
    points are iterated; a point is done once its step is at most ``tol``.
    Returns fields[0] at the roots, carried from the last evaluated point
    by the slope fields[1].
    """
    out = np.empty_like(x)
    last = hi - lo
    active = np.arange(x.size)
    for _ in range(100):
        xa = x[active]
        values = evaluate_fields(xa, *fields)
        f, df = residual(xa, values, active)
        below = f < 0.0
        lo[active] = np.where(below, xa, lo[active])
        hi[active] = np.where(below, hi[active], xa)
        la, ha = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - f / df
        # closed test: landing on a bracket end is a root, not a failure
        newton = (xn >= la) & (xn <= ha) & (np.abs(xn - xa) <= 0.5 * last[active])
        xn = np.where(newton, xn, 0.5 * (la + ha))
        step = np.abs(xn - xa)
        x[active] = xn
        out[active] = values[0] + values[1] * (xn - xa)  # error O(step^2); the last step is <= tol
        last[active] = step
        active = active[step > tol]
        if active.size == 0:
            return out
    raise ConvergenceError(f"Newton iteration unconverged at {active.size} point(s)")


def hopf_characteristic_solve(
    u0: SpectralField, p: PhysicalParams, t: float, query_points
) -> np.ndarray:
    """Solve the transport equation d_t u + (c0 + 3u/2) d_x u = 0 exactly.

    For each query x, u(t, x) = u0(x0) at the unique foot x0 with
    x = x0 + (c0 + 1.5 u0(x0)) t, found to within 1e-10 L by its offset from
    b = x - c0 t, with c0 t reduced by whole periods: no term of size c0 t
    enters a difference.  u0 and u0', the interpolant's ``derivative``, at every
    b come from one inverse FFT at the nodes, and from one ``evaluate_fields``
    call elsewhere.  A foot whose Newton step 1.5 t u0 / (1 + 1.5 t u0') from
    b is within the tolerance, as in the far field, takes u0 carried by that
    step.  The others, where the wave is, go to ``_newton`` from there,
    bracketed by b - 1.5 t [u_max, u_min]: the mean of u0 plus and minus the
    sum of the moduli of its other modes bounds the interpolant.

    Raises BreakingError at or past ``breaking_time(u0)``, the one crossing
    time of ``_crossing``; a constant profile never breaks.
    """
    return _hopf_solver(u0)[0](p, t, query_points)


def _hopf_solver(u0: SpectralField):
    """The per-profile work of ``hopf_characteristic_solve``, done once: u0',
    shared by the foot solve and ``_crossing``, the bounds of u0, and the
    crossing time t_cross and foot x*.  Returns (solve, t_cross, x*), where
    ``solve(p, t, query_points)`` is ``hopf_characteristic_solve`` of u0."""
    du = derivative(u0, axis=0, order=1)
    length = u0.grid.length[0]
    t_cross, x_cross = _crossing(du)
    mean = u0.hat[0].real / u0.grid.nodes[0]
    spread = float(np.sum(np.abs(u0.hat[1:]) * u0.grid.parseval_weights[1:])) / u0.grid.nodes[0]
    nodes, tol = u0.grid.axis_coordinates(0), 1e-10 * length

    def solve(p: PhysicalParams, t: float, query_points):
        query = np.atleast_1d(np.asarray(query_points, dtype=float))
        if t >= t_cross:
            raise BreakingError(f"characteristics cross at t = {t_cross}; requested t = {t}")
        feet = query - math.remainder(p.c0 * t, length)  # b, on the characteristics of speed c0
        if np.array_equal(query, nodes):
            ua, dua = translate_fields(p.c0 * t, u0, du)
        else:
            ua, dua = evaluate_fields(feet, u0, du)
        slope = 1.0 + 1.5 * t * dua
        step = 1.5 * t * ua / np.where(slope > 0.0, slope, np.inf)
        near = (slope <= 0.0) | (np.abs(step) > tol)
        out = ua - dua * step  # the carry of ``_newton``
        if np.any(near):
            b = feet[near]

            def residual(xa, values, active):
                return xa - b[active] + 1.5 * t * values[0], 1.0 + 1.5 * t * values[1]

            out[near] = _newton((u0, du), residual, b - step[near],
                                b - 1.5 * t * (mean + spread), b - 1.5 * t * (mean - spread), tol)
        return out if np.ndim(query_points) else float(out[0])

    return solve, t_cross, x_cross


def hopf_evolve(state: SVState, p: PhysicalParams, t_end: float, n_out: int = 10) -> Trajectory:
    """The simple wave of ``state.u`` along the characteristics, zeta its elevation, at
    snapshot_times(t_end, n_out).  A snapshot time at or past ``breaking_time(u0)``
    halts the run there, with no state at or past it, at the point that the steepest
    characteristic, from ``_crossing``'s foot x*, reaches.  The first snapshot is
    ``state`` itself; only simple-wave data has a zeta that is the elevation of its u."""
    u0 = state.u
    solve, t_cross, x_cross = _hopf_solver(u0)  # derivative, crossing and bounds, once per run
    xs = state.grid.axis_coordinates(0)
    traj = Trajectory([state])
    for t in snapshot_times(t_end, n_out)[1:]:
        if t >= t_cross:
            length = state.grid.length[0]
            location = float(x_cross + (p.c0 + 1.5 * u0.evaluate(x_cross)[0]) * t_cross)
            location -= length * math.floor((location + 0.5 * length) / length)  # into [-L/2, L/2)
            traj.halt = HaltEvent(reason="breaking", time=t_cross, location=location,
                                  max_gradient=math.inf, breaking_time_estimate=t_cross)
            break
        u = SpectralField(state.grid, solve(p, t, xs))
        traj.states.append(SVState(simple_wave_elevation(u, p), u, t))
    return traj


def sv_evolve(
    state: SVState,
    p: PhysicalParams,
    t_end: float,
    dt_control: DtControl | None = None,
    n_out: int = 10,
    blowup_threshold: float | None = None,
) -> Trajectory:
    """Pseudospectral method-of-lines run of the 1D system until t_end.

    Mass flux form d_t zeta = -d_x(h u) and transport velocity form
    d_t u = -g d_x zeta - u d_x u, quadratic products dealiased.  The
    linear waves zeta-hat +- sqrt(H/g) u-hat travel at +-c0 and are
    propagated exactly: ``stepping.integrate_pair`` runs integrating-factor
    RK4 in those characteristic variables (alpha = H, beta = g, no
    elliptic inverses), at 4 times the advective CFL step
    cfl dx / max(|u| + sqrt(g h)).  The run halts with a breaking flag
    once max|d_x u| exceeds the blow-up threshold (default
    200 * (initial max|d_x u| + 1)), and with a cavitation halt once the
    depth H + zeta reaches zero.
    """
    xs = state.grid.axis_coordinates(0)
    g0 = float(np.max(np.abs(derivative(state.u, axis=0, order=1).values)))
    threshold = blowup_threshold if blowup_threshold is not None else 200.0 * (g0 + 1.0)
    # Sub-threshold crossing times; each extrapolates to the breaking time
    # via t_cross + (2/3)/level, the compression law of a gradient blow-up.
    levels = [threshold / 8.0, threshold / 4.0, threshold / 2.0, threshold]
    crossings: dict[float, float] = {}

    def check(ux, t):
        j = int(np.argmax(np.abs(ux)))
        gmax = float(np.abs(ux[j]))
        for level in levels:
            if level not in crossings and gmax >= level > g0:
                crossings[level] = t
        if not gmax > threshold:  # NaN too: the non-finite guard ends that run
            return None
        estimates = sorted(
            t_c + 2.0 / (3.0 * level) for level, t_c in crossings.items()
        ) or [t + 2.0 / (3.0 * gmax)]
        return HaltEvent("breaking", t, float(xs[j]), gmax, estimates[len(estimates) // 2])

    return integrate_pair(state, p.H, t_end, n_out, dt_control or DtControl(),
                          lambda z, u: float(np.max(np.abs(u) + np.sqrt(p.g * (p.H + z)))),
                          p.c0, p.H / p.c0, 1.0, 1.0, check)

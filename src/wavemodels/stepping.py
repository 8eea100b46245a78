"""The one RK4 driver of every evolution model, with step control and halt records.

``intervals`` advances y' = L y + N(y), one output interval at a time, with
the integrating-factor RK4 of Kassam & Trefethen (2005, SIAM J. Sci. Comput.
26) for a diagonal linear symbol L (L = 0 gives classical RK4); ``integrate``
runs it to the end.  Models supply only the stage right-hand side N, a step
bound and a halt test.  Every 1-D model
keeps its spectra on the layout of ``SpectralField.hat`` and the grid
symbols, the N/2 + 1 real-FFT modes, so exp(hL) is applied to N/2 + 1
entries.  The scalar models step zeta-hat.
Saint-Venant and abcd step the characteristic pair w+- = zeta-hat +- s
u-hat through ``integrate_pair``, in which their linear waves are
diagonal and propagate exactly.  They step at PAIR_STEP_MULTIPLE times
their advective CFL step dt0.
``dispersive.scalar_evolve`` states the scalar models' step refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CavitationError, StepSizeUnderflowError
from .spectral import SpectralField

# Smallest step any run takes; a smaller one raises StepSizeUnderflowError.
MIN_STEP = 1e-14

# Step of ``integrate_pair`` in units of the advective CFL step dt0.  Stability
# does not bound it, accuracy does: on the Saint-Venant breaking test the
# halt time stays within 0.3% of T* up to 4x and misses it by ~40% at 8x.
# The scalar refinement's levels are 4 dt0 2^j.
PAIR_STEP_MULTIPLE = 4.0


@dataclass(frozen=True)
class DtControl:
    """Time-step policy for the method-of-lines solvers.

    ``dt`` pins the step explicitly.  Otherwise the step is derived from
    the CFL number ``cfl`` and the solver's speed scale.
    """

    dt: float | None = None
    cfl: float = 0.4

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("explicit dt must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")


@dataclass(frozen=True)
class HaltEvent:
    """Why and where a run stopped before reaching its end time."""

    reason: str  # "breaking", "cavitation" or "non_finite"
    time: float
    location: float
    max_gradient: float
    breaking_time_estimate: float | None = None


@dataclass
class Trajectory:
    """Snapshots of an evolution, plus the halt record if the run stopped.

    ``refinement`` is set by a refined scalar run: {"levels": [{"dt",
    "substeps", "diff", "dropped_at"}, ...], "error_estimate"}, one level
    per run started, with its steps per output interval, diff its largest
    max-norm gap to the previous run over the snapshots compared (None if
    none was) and dropped_at the snapshot that dropped it (None for the
    accepted pair); error_estimate is the returned run's diff / 15, or None
    for a run that cavitated.
    """

    states: list = field(default_factory=list)
    halt: HaltEvent | None = None
    refinement: dict | None = None

    @property
    def times(self):
        return [s.time for s in self.states]

    @property
    def final_state(self):
        return self.states[-1]

    def __len__(self):
        return len(self.states)


def resolve_substeps(interval: float, dt_raw: float) -> tuple[int, float]:
    """Split an output interval into equal steps no larger than dt_raw."""
    if interval <= 0.0:
        return 0, 0.0
    m = max(1, math.ceil(interval / dt_raw - 1e-12))
    return m, interval / m


def snapshot_times(t_end: float, n_intervals: int) -> list[float]:
    """Equispaced output times 0 = t_0 < ... < t_n = t_end."""
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if n_intervals < 1:
        raise ValueError("need at least one output interval")
    if t_end == 0.0:
        return [0.0]
    return [t_end * j / n_intervals for j in range(n_intervals + 1)]


def intervals(
    y0: np.ndarray,
    state,
    times: list,
    step: Callable[[np.ndarray], float],
    rhs: Callable[[np.ndarray], np.ndarray],
    snapshot: Callable[[np.ndarray, float], object],
    factor: np.ndarray,
    check: Callable[[np.ndarray, float], HaltEvent | None] | None = None,
):
    """Advance y0, the array of ``state``, from t0 = state.time through the
    output offsets ``times`` (times[0] = 0).  A generator of one
    ``Trajectory``, yielded first holding ``state`` and then after each
    output interval with its snapshot or halt appended; a halt ends it.

    Each output interval is split into equal steps no larger than
    ``step(y)``, evaluated on the state at the interval's start.  ``rhs``
    is the stage right-hand side N(y); ``factor`` is the diagonal linear
    symbol L integrated exactly (zeros give classical RK4).  ``snapshot``
    turns an array and an absolute time into a stored state.

    ``check(y, t)`` runs after every step.  A halt it returns ends the run
    as ``traj.halt``, keeping the state it fired on unless the reason is
    ``cavitation``.  CavitationError raised by ``rhs`` is a cavitation halt
    at the start of its step.  A non-finite state at the end of an output
    interval ends the run with reason ``non_finite`` and is not kept.
    """
    traj = Trajectory([state])
    t0 = state.time
    y = y0
    t_now = 0.0
    yield traj
    for t_target in times[1:]:
        # closed before each yield, so that the caller never runs under it
        with np.errstate(over="ignore", invalid="ignore"):  # the non-finite guard reports these
            dt_raw = step(y)
            if not dt_raw >= MIN_STEP:
                raise StepSizeUnderflowError(f"time step underflow: dt = {dt_raw}")
            m, h = resolve_substeps(t_target - t_now, dt_raw)
            half_h, sixth_h = 0.5 * h, h / 6.0
            e_half = np.exp(half_h * factor)
            e_full = e_half * e_half
            two_e_half = 2.0 * e_half
            h_e_half = h * e_half
            for _ in range(m):
                try:
                    k1 = rhs(y)
                    k2 = rhs(e_half * (y + half_h * k1))
                    k3 = rhs(e_half * y + half_h * k2)
                    e_full_y = e_full * y
                    k4 = rhs(e_full_y + h_e_half * k3)
                except CavitationError:
                    traj.halt = HaltEvent("cavitation", t0 + t_now, math.nan, math.nan)
                    break
                # with L = 0 this is classical RK4 bit for bit: y + h/6 (k1 + 2k2 + 2k3 + k4)
                y = e_full_y + sixth_h * (e_full * k1 + two_e_half * k2 + two_e_half * k3 + k4)
                t_now += h
                traj.halt = None if check is None else check(y, t0 + t_now)
                if traj.halt is not None:
                    if traj.halt.reason != "cavitation":
                        traj.states.append(snapshot(y, traj.halt.time))
                    break
            else:
                if np.all(np.isfinite(y)):
                    traj.states.append(snapshot(y, t0 + t_now))
                else:
                    traj.halt = HaltEvent("non_finite", t0 + t_now, math.nan, math.nan)
        yield traj
        if traj.halt is not None:
            return


def integrate(*args, **kwargs) -> Trajectory:
    """The trajectory of ``intervals(*args, **kwargs)`` stepped to its end."""
    *_, traj = intervals(*args, **kwargs)
    return traj


def integrate_pair(state, depth: float, t_end: float, n_out: int, ctrl: DtControl, max_speed,
                   phase_speed, scale, inv_b, inv_d, check=None) -> Trajectory:
    """IF-RK4 run of a 1-D two-field wave system from ``state`` (zeta, u) to t_end.

    Mode-wise on the real-FFT half spectrum, with dealiased products:
    zeta-hat_t = -ik (alpha u-hat + (zeta u)^ inv_b) and
    u-hat_t = -ik beta zeta-hat - (u u_x)^ inv_d.  The state is the
    characteristic pair w+- = zeta-hat +- s u-hat, s = ``scale`` =
    sqrt(alpha/beta), whose linear part L+- = -+ik c, c = ``phase_speed``
    = s beta, is diagonal and propagated exactly.  Each stage makes one
    inverse transform of (zeta-hat, u-hat, ik u-hat) and one forward
    transform of (zeta u, u u_x); the inverse transform of the latest
    state is kept, so the halt check, the next step's first stage, the
    step bound and the snapshot share it.  The step is PAIR_STEP_MULTIPLE
    times the advective CFL step ctrl.cfl dx / max_speed(zeta, u); a CFL
    step below MIN_STEP raises StepSizeUnderflowError.
    A depth ``depth`` + zeta <= 0 raises CavitationError at the start and
    is a cavitation halt after a step; otherwise ``check(u_x, t)`` runs.
    Snapshots have the type of ``state``; the first is ``state`` itself.
    """
    grid = state.grid
    if grid.dim != 1:
        raise ValueError("time stepping is 1D only")
    if float(np.min(depth + state.zeta.values)) <= 0.0:
        raise CavitationError("initial data violates non-cavitation")
    n = grid.nodes[0]
    ik = grid.ik[0]
    mask = grid.dealias_mask()
    rfft, irfft = np.fft.rfft, np.fft.irfft
    half_over_s = 0.5 / scale
    to_zeta = -ik * inv_b * mask  # (zeta u)^ into the zeta-hat tendency
    to_su = -scale * inv_d * mask  # (u u_x)^ into s times the u-hat tendency
    dx = grid.spacing[0]
    xs = grid.axis_coordinates(0)

    last = [None, None]  # the latest (w, fields(w)); w arrays are never modified in place
    modes = np.empty((3, ik.size), complex)  # zeta-hat, u-hat, ik u-hat: irfft input
    products = np.empty((2, n))  # zeta u, u u_x: rfft input

    def fields(w):
        """zeta, u and u_x at the nodes."""
        if w is not last[0]:
            z_hat, u_hat, ux_hat = modes
            np.multiply(np.subtract(w[0], w[1], out=u_hat), half_over_s, out=u_hat)
            np.multiply(0.5, np.add(w[0], w[1], out=z_hat), out=z_hat)
            np.multiply(ik, u_hat, out=ux_hat)
            last[:] = [w, irfft(modes, n)]
        return last[1]

    def rhs(w):
        z, u, ux = fields(w)
        np.multiply(z, u, out=products[0])
        np.multiply(u, ux, out=products[1])
        prod = rfft(products)
        nz = np.multiply(to_zeta, prod[0], out=prod[0])
        nsu = np.multiply(to_su, prod[1], out=prod[1])
        out = np.empty_like(prod)
        np.add(nz, nsu, out=out[0])
        np.subtract(nz, nsu, out=out[1])
        return out

    def step(w):
        dt_cfl = ctrl.cfl * dx / max_speed(*fields(w)[:2])
        if not dt_cfl >= MIN_STEP:
            raise StepSizeUnderflowError(f"time step underflow: dt = {dt_cfl}")
        dt_raw = PAIR_STEP_MULTIPLE * dt_cfl
        if ctrl.dt is None:
            return dt_raw
        if ctrl.dt > dt_raw:
            raise ValueError(
                f"explicit dt {ctrl.dt} violates the step bound {dt_raw}, "
                f"{PAIR_STEP_MULTIPLE:g} x the CFL stability step of explicit RK4"
            )
        return ctrl.dt

    def halt(w, t):
        z, _, ux = fields(w)
        h = depth + z
        if float(np.min(h)) <= 0.0:
            return HaltEvent("cavitation", t, float(xs[int(np.argmin(h))]),
                             float(np.max(np.abs(ux))))
        return None if check is None else check(ux, t)

    def snapshot(w, t):
        z, u, _ = fields(w)
        return type(state)(SpectralField(grid, z), SpectralField(grid, u), t)

    z_hat, u_hat = state.zeta.hat, state.u.hat
    w0 = np.stack([z_hat + scale * u_hat, z_hat - scale * u_hat])
    lin = ik * phase_speed
    return integrate(w0, state, snapshot_times(t_end, n_out), step, rhs, snapshot,
                     factor=np.stack([-lin, lin]), check=halt)

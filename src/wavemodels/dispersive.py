"""Dispersive model family: four-parameter Boussinesq systems, the
unidirectional cubic-dispersion equation (KdV), and both full-dispersion
scalar equations.

The four-parameter family carries the constraint a + b + c + d = 1/3.  Its
linear dispersion relation

    omega(k)^2 = g H k^2 (1 - a(Hk)^2)(1 - c(Hk)^2)
                 / ((1 + b(Hk)^2)(1 + d(Hk)^2))

turns negative at large wavenumbers for ill-chosen parameters, which makes
the initial-value problem strongly ill-posed; ``classify_abcd`` screens for
this before any time stepping.  Every model here is advanced with an
integrating-factor scheme: the linear part is exponentiated exactly
mode-wise (for the system, in its characteristic variables), so only the
nonlinear term constrains the step.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ._fork import in_order, worker_count
from .errors import (
    CavitationError,
    IllPosedError,
    SingularSymbolError,
    StepSizeUnderflowError,
)
from .linear import mode_propagator, phase_velocity
from .physics import PhysicalParams
from .spectral import Grid, SpectralField
from .stepping import (
    PAIR_STEP_MULTIPLE,
    DtControl,
    Trajectory,
    integrate,
    integrate_pair,
    snapshot_times,
)

__all__ = [
    "AbcdParams",
    "BoussinesqState",
    "ScalarWaveState",
    "WellPosednessVerdict",
    "SCALAR_MODELS",
    "abcd_symbol",
    "classify_abcd",
    "abcd_evolve",
    "abcd_linear_evolve",
    "scalar_evolve",
    "scalar_phase_speed",
]

SCALAR_MODELS = ("kdv", "whitham", "whitham2")

_CONSTRAINT_TOL = 1e-12

# classify_abcd scans _SCAN_SAMPLES geometric steps of mu = H k over _SCAN_MU.
_SCAN_MU, _SCAN_SAMPLES = (1e-3, 1e3), 4001

# Max-norm agreement of two successive step halvings at which scalar_evolve stops.
REFINE_TOL = 1e-8

# Node-steps (steps x nodes) of its first run from which scalar_evolve runs
# its refinement levels concurrently.  Measured on a 2-core Linux machine: a
# level read from a child costs up to two forks (its own, and the one that
# starts the next level while it is awaited), each 3-10 ms more than inline
# (2-3 ms to fork and join, the rest copy-on-write faults and the pickled
# result).  Overlapping saves at least the first run's time, at >= ~95 ns per
# node-step (kdv at N = 2048, the cheapest model per node; whitham2 costs
# ~250 ns).  Covering 2 x 10 ms takes 2.1e5 node-steps; 2^18 = 2.6e5 rounds
# that up.  A 2048-node, 15 s evolve run (~6e5) forks; the 1024-node, 2 s
# solitary-wave scenario runs (~2e4) and small test grids do not.
_FORK_NODE_STEPS = 2**18


@dataclass(frozen=True)
class AbcdParams:
    """Dimensionless coefficients of the four-parameter Boussinesq family."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        total = self.a + self.b + self.c + self.d
        if not abs(total - 1.0 / 3.0) <= _CONSTRAINT_TOL:  # NaN fails too
            raise ValueError(
                f"a+b+c+d must equal 1/3 (zero surface tension); got {total!r}"
            )


@dataclass
class BoussinesqState:
    zeta: SpectralField
    u: SpectralField
    time: float = 0.0

    def __post_init__(self):
        if not self.zeta.same_grid(self.u):
            raise ValueError("zeta and u must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.zeta.grid


@dataclass
class ScalarWaveState:
    zeta: SpectralField
    time: float = 0.0
    model: str = "kdv"

    def __post_init__(self):
        if self.model not in SCALAR_MODELS:
            raise ValueError(f"model must be one of {SCALAR_MODELS}, got {self.model!r}")

    @property
    def grid(self) -> Grid:
        return self.zeta.grid


@dataclass(frozen=True)
class WellPosednessVerdict:
    verdict: str  # "well_posed" or "ill_posed"
    witness_wavenumber: float | None
    omega_squared_min: float


def _abcd_factors(k, params: AbcdParams, p: PhysicalParams):
    """(1 - a mu^2, 1 + b mu^2, 1 - c mu^2, 1 + d mu^2) at wavenumbers k, mu = H k.

    Every abcd operator is built from these: the dispersion relation, the
    characteristic symbols of the stepper and the steady traveling-wave system.
    """
    mu2 = (p.H * k) ** 2
    return 1.0 - params.a * mu2, 1.0 + params.b * mu2, 1.0 - params.c * mu2, 1.0 + params.d * mu2


def _abcd_omega_squared(k, params: AbcdParams, p: PhysicalParams):
    """Vectorized omega^2; may contain inf/nan at denominator zeros."""
    k = np.asarray(k, dtype=float)
    fa, fb, fc, fd = _abcd_factors(k, params, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return p.g * p.H * k**2 * fa * fc / (fb * fd)


def abcd_symbol(k: float, params: AbcdParams, p: PhysicalParams) -> float:
    """omega^2(k) of the linearized four-parameter system at wavenumber k."""
    _, fb, _, fd = _abcd_factors(k, params, p)
    if fb * fd == 0.0:
        raise SingularSymbolError(f"dispersion denominator vanishes at k = {k!r}")
    return float(_abcd_omega_squared(k, params, p))


def _asymptotic_sign(params: AbcdParams) -> float:
    """Sign of omega^2 as k -> infinity, by leading-order bookkeeping."""
    if params.a != 0.0 and params.c != 0.0:
        num_lead = params.a * params.c
    elif params.a != 0.0:
        num_lead = -params.a
    elif params.c != 0.0:
        num_lead = -params.c
    else:
        num_lead = 1.0
    # denominator leading coefficient is positive whenever b, d >= 0
    return math.copysign(1.0, num_lead)


def classify_abcd(params: AbcdParams, p: PhysicalParams) -> WellPosednessVerdict:
    """Screen the parameters with a dense logarithmic modal scan.

    Ill-posed verdicts carry the smallest scanned wavenumber with
    omega^2 < 0 as witness (so the witness sits just past the sign
    change), or None when the symbol is singular but nowhere negative.
    """
    ks = np.geomspace(_SCAN_MU[0] / p.H, _SCAN_MU[1] / p.H, _SCAN_SAMPLES)
    w2 = _abcd_omega_squared(ks, params, p)
    finite = np.isfinite(w2)
    w2_min = float(np.min(w2[finite])) if np.any(finite) else math.inf

    def first_negative():
        neg = finite & (w2 < 0.0)
        if np.any(neg):
            return float(ks[int(np.argmax(neg))])
        return None

    if params.b < 0.0 or params.d < 0.0:
        return WellPosednessVerdict("ill_posed", first_negative(), w2_min)

    witness = first_negative()
    if witness is not None:
        return WellPosednessVerdict("ill_posed", witness, w2_min)

    if _asymptotic_sign(params) < 0.0:
        # Sign change beyond the scan range: extend geometrically.
        k_prev, k_cur = ks[-1], 2.0 * ks[-1]
        for _ in range(120):
            val = float(_abcd_omega_squared(k_cur, params, p))
            if np.isfinite(val) and val < 0.0:
                break
            k_prev, k_cur = k_cur, 2.0 * k_cur
        # Bisect down to just past the crossing.
        for _ in range(80):
            mid = math.sqrt(k_prev * k_cur)
            if float(_abcd_omega_squared(mid, params, p)) < 0.0:
                k_cur = mid
            else:
                k_prev = mid
            if k_cur / k_prev < 1.0 + 1e-9:
                break
        val = float(_abcd_omega_squared(k_cur, params, p))
        return WellPosednessVerdict("ill_posed", float(k_cur), min(w2_min, val))

    return WellPosednessVerdict("well_posed", None, w2_min)


def _require_evolvable(params: AbcdParams, p: PhysicalParams):
    if params.b < 0.0 or params.d < 0.0:
        raise IllPosedError(
            f"b and d must be nonnegative for time stepping; got b={params.b}, d={params.d}"
        )
    verdict = classify_abcd(params, p)
    if verdict.verdict != "well_posed":
        raise IllPosedError(
            "parameters are linearly ill-posed "
            f"(omega^2 = {verdict.omega_squared_min} at k = {verdict.witness_wavenumber})"
        )


def _abcd_symbols(k, params: AbcdParams, p: PhysicalParams):
    """alpha, beta, s = sqrt(alpha/beta) and the elliptic inverses at wavenumbers k.

    alpha = H (1 - a mu^2)/(1 + b mu^2) and beta = g (1 - c mu^2)/(1 + d mu^2)
    with mu = H k.  Where a = c their common factor (1 - a mu^2) is
    cancelled in s by hand, so s is never 0/0.
    """
    fa, fb, fc, fd = _abcd_factors(k, params, p)
    inv_b, inv_d = 1.0 / fb, 1.0 / fd
    alpha = p.H * fa * inv_b
    beta = p.g * fc * inv_d
    s = np.sqrt(p.H * inv_b / (p.g * inv_d) if params.a == params.c else alpha / beta)
    return alpha, beta, s, inv_b, inv_d


def abcd_evolve(
    state: BoussinesqState,
    params: AbcdParams,
    p: PhysicalParams,
    t_end: float,
    dt_control: DtControl | None = None,
    n_out: int = 10,
) -> Trajectory:
    """Method-of-lines run of the 1D four-parameter system.

    The elliptic factors (1 - b H^2 d_xx) and (1 - d H^2 d_xx) are inverted
    mode-wise on the real-FFT half spectrum, and the quadratic products
    are dealiased.  The linear waves zeta-hat +- s u-hat, s = sqrt(alpha/beta),
    travel at +-omega/k and are propagated exactly: ``stepping.integrate_pair``
    runs integrating-factor RK4 in those characteristic variables, at 4
    times the advective CFL step cfl dx / (c0 + 1.5 max|u|).
    """
    _require_evolvable(params, p)
    _, beta, s, inv_b, inv_d = _abcd_symbols(state.grid.wavenumbers(0), params, p)
    return integrate_pair(state, p.H, t_end, n_out, dt_control or DtControl(),
                          lambda z, u: p.c0 + 1.5 * float(np.max(np.abs(u))),
                          s * beta, s, inv_b, inv_d)


def abcd_linear_evolve(
    state: BoussinesqState, params: AbcdParams, p: PhysicalParams, t: float
) -> BoussinesqState:
    """Exact mode-wise solution of the linearized four-parameter system.

    Reference oracle for the small-amplitude consistency of abcd_evolve.
    """
    _require_evolvable(params, p)
    grid = state.grid
    alpha, beta, _, _, _ = _abcd_symbols(grid.wavenumbers(0), params, p)
    ik = grid.ik[0]  # zero at Nyquist, so that mode stays put, as in abcd_evolve
    w = np.abs(ik) * np.sqrt(np.maximum(alpha * beta, 0.0))
    cos_wt, sin_over_w = mode_propagator(w, t)
    zhat, uhat = state.zeta.hat, state.u.hat
    new_z = cos_wt * zhat - ik * alpha * sin_over_w * uhat
    new_u = cos_wt * uhat - ik * beta * sin_over_w * zhat
    return BoussinesqState(
        zeta=SpectralField.from_hat(grid, new_z),
        u=SpectralField.from_hat(grid, new_u),
        time=state.time + t,
    )


def scalar_phase_speed(model: str, k, p: PhysicalParams):
    """Linear phase speed of a scalar model on an array of wavenumbers k.

    c0 (1 - (H k)^2 / 6) for kdv, and the full-dispersion c_p(|k|) for
    whitham and whitham2.  The evolution symbol -ik c and the steady
    traveling-wave symbol (speed - c) are both built from it.
    """
    k = np.asarray(k, dtype=float)
    if model == "kdv":
        return p.c0 * (1.0 - (p.H * k) ** 2 / 6.0)
    if model in ("whitham", "whitham2"):
        return phase_velocity(np.abs(k), p)
    raise ValueError(f"model must be one of {SCALAR_MODELS}, got {model!r}")


def _scalar_run(state, p, t_end, dt, n_out):
    """One integrating-factor RK4 run of a scalar model at the step dt.

    The state is zeta-hat on the real-FFT modes of ``SpectralField.hat``, so
    the integrating factor exp(hL) acts on those modes only; whitham2 gets
    zeta and zeta_x from one batched inverse transform.
    """
    grid = state.grid
    n = grid.nodes[0]
    ik = grid.ik[0]
    mask = grid.dealias_mask()
    rfft, irfft = np.fft.rfft, np.fft.irfft
    model = state.model
    lin = -ik * scalar_phase_speed(model, grid.wavenumbers(0), p)
    g, H = p.g, p.H
    sqrt_gH = math.sqrt(g * H)
    quadratic = -(3.0 * p.c0 / (4.0 * H)) * ik * mask  # (zeta^2)^ into the kdv/whitham tendency
    neg_mask = -1.0 * mask  # the whitham2 product into its tendency

    def nonlinear_hat(zhat):
        if model == "whitham2":
            z, zx = irfft(np.stack([zhat, ik * zhat]), n)
            depth = H + z
            if float(np.min(depth)) <= 0.0:
                raise CavitationError("depth H + zeta reached zero")
            coeff = 3.0 * np.sqrt(g * depth) - 3.0 * sqrt_gH
            return neg_mask * rfft(coeff * zx)
        z = irfft(zhat, n)
        return quadratic * rfft(z * z)

    def snapshot(zhat, t):
        return ScalarWaveState(SpectralField(grid, irfft(zhat, n)), t, model)

    return integrate(state.zeta.hat, state.time, snapshot_times(t_end, n_out),
                     lambda zhat: dt, nonlinear_hat, snapshot, factor=lin)


def scalar_evolve(
    state: ScalarWaveState,
    p: PhysicalParams,
    t_end: float,
    dt_control: DtControl | None = None,
    n_out: int = 10,
) -> Trajectory:
    """Integrating-factor run of a scalar model to t_end.

    The linear part is exponentiated exactly mode-wise and the nonlinear
    part advanced with four-stage Runge-Kutta on the filtered variable, so
    the step is accuracy-limited, not stiffness-limited.  A pinned ``dt``
    makes one run at that step, with no accuracy check.  Otherwise the
    first run takes PAIR_STEP_MULTIPLE times the advective CFL step
    dt0 = cfl dx / (c0 + 1.5 (c0/H) max|zeta|), as ``integrate_pair``
    does, and the step is halved until two successive runs agree to
    REFINE_TOL in the max norm at the final time; the finer run is
    returned, with ``refinement`` recording the runs consumed and the
    process count.  No run takes a step below dt0 2^-14: failing to agree
    by then raises StepSizeUnderflowError.

    The runs, one per level dt = 4 dt0 2^-j, are consumed in that order.
    When the first run has at least _FORK_NODE_STEPS node-steps
    (ceil(t_end / 4 dt0) x N; the derivation is at the constant), they are
    computed on min(cores, levels, 4) processes (``_fork.in_order``): this
    process computes the level it needs next, unless a child already has
    it, and up to workers - 1 later levels run ahead in forked children.
    Once two levels agree, the children still running are killed and
    reaped.  A level is the same computation wherever it runs, so the
    returned trajectory, or the exception raised, is bit for bit what
    the one-process loop gives; only when each level is computed changes.
    """
    ctrl = dt_control or DtControl()
    grid = state.grid
    if grid.dim != 1:
        raise ValueError("scalar models are 1D")
    if state.model == "whitham2" and float(np.min(p.H + state.zeta.values)) <= 0.0:
        raise CavitationError("initial data violates non-cavitation")
    if t_end == 0.0:
        return Trajectory([state])
    if ctrl.dt is not None:
        return _scalar_run(state, p, t_end, ctrl.dt, n_out)

    zmax = float(np.max(np.abs(state.zeta.values)))
    dt0 = ctrl.cfl * grid.spacing[0] / (p.c0 + 1.5 * (p.c0 / p.H) * zmax)
    dts = [PAIR_STEP_MULTIPLE * dt0]
    while 0.5 * dts[-1] >= dt0 * 2.0**-14:
        dts.append(0.5 * dts[-1])
    workers = worker_count(len(dts), math.ceil(t_end / dts[0]) * grid.nodes[0], _FORK_NODE_STEPS)
    runs = in_order(lambda dt: _scalar_run(state, p, t_end, dt, n_out), dts, workers,
                    lambda dt: f"the refinement run at dt = {dt}")
    levels = []
    traj = None
    with contextlib.closing(runs):
        for dt, finer in zip(dts, runs):
            diff = None  # a halted run has no final state to compare
            if traj is not None and traj.halt is None and finer.halt is None:
                diff = float(
                    np.max(np.abs(finer.final_state.zeta.values - traj.final_state.zeta.values))
                )
            levels.append({"dt": dt, "diff": diff})
            traj = finer
            if diff is not None and diff < REFINE_TOL:
                traj.refinement = {"workers": workers, "levels": levels}
                return traj
    raise StepSizeUnderflowError(
        f"step refinement did not reach tolerance {REFINE_TOL} (last dt = {dts[-1]})"
    )

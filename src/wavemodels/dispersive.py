"""Dispersive model family: four-parameter Boussinesq systems, the
unidirectional cubic-dispersion equation (KdV), and both full-dispersion
scalar equations.

The four-parameter family carries the constraint a + b + c + d = 1/3.  Its
linear dispersion relation

    omega(k)^2 = g H k^2 (1 - a(Hk)^2)(1 - c(Hk)^2)
                 / ((1 + b(Hk)^2)(1 + d(Hk)^2))

turns negative on a band of wavenumbers for ill-chosen parameters, which
makes the initial-value problem strongly ill-posed (Bona, Chen & Saut 2002).
The band need not reach large wavenumbers, and may be narrow;
``classify_abcd`` screens for it, and ``require_well_posed`` refuses such
parameters, with one message, before any scenario, run or solitary wave.
Every model here is advanced with an integrating-factor scheme: the linear
part is exponentiated exactly mode-wise (for the system, in its
characteristic variables), so only the nonlinear term constrains the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CavitationError,
    IllPosedError,
    SingularSymbolError,
    StepSizeUnderflowError,
)
from .hyperbolic import SVState
from .linear import mode_propagator, phase_velocity
from .physics import PhysicalParams
from .spectral import Grid, SpectralField
from .stepping import (
    MIN_STEP,
    PAIR_STEP_MULTIPLE,
    DtControl,
    Trajectory,
    integrate_pair,
    intervals,
    resolve_substeps,
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
    "require_well_posed",
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


# The four-parameter systems carry the Saint-Venant unknowns (zeta, u).
BoussinesqState = SVState


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


def classify_abcd(params: AbcdParams, p: PhysicalParams) -> WellPosednessVerdict:
    """Screen the parameters for a wavenumber band where omega^2 < 0.

    A dense logarithmic scan of mu = H k over _SCAN_MU gives
    ``omega_squared_min`` and, when it finds omega^2 < 0, the smallest such
    scanned wavenumber as witness (None when b or d < 0 makes the symbol
    singular but nowhere negative on the scan).  For b, d >= 0 the band has
    a closed form (Bona, Chen & Saut 2002, J. Nonlinear Sci. 12): omega^2 < 0
    exactly on 1/max(a,c) < mu^2 < 1/max(min(a,c), 0), which is not empty
    iff max(a,c) > 0 and a != c.  It need not lie at large wavenumbers, and
    may be narrower than a scan step; a band the scan misses gets a witness
    5e-10 relative past its start, or its geometric middle when it is
    narrower than that, and omega^2 there enters ``omega_squared_min``.
    """
    ks = np.geomspace(_SCAN_MU[0] / p.H, _SCAN_MU[1] / p.H, _SCAN_SAMPLES)
    w2 = _abcd_omega_squared(ks, params, p)
    finite = np.isfinite(w2)
    w2_min = float(np.min(w2[finite])) if np.any(finite) else math.inf
    neg = finite & (w2 < 0.0)
    witness = float(ks[int(np.argmax(neg))]) if np.any(neg) else None
    if witness is not None or params.b < 0.0 or params.d < 0.0:
        return WellPosednessVerdict("ill_posed", witness, w2_min)

    high, low = max(params.a, params.c), min(params.a, params.c)
    if high > 0.0 and high != low:
        # the band's geometric middle in k is (high / low)^(1/4) times its start
        middle = (high / low) ** 0.25 if low > 0.0 else math.inf
        k = min(1.0 + 5e-10, middle) / (p.H * math.sqrt(high))
        w2_min = min(w2_min, float(_abcd_omega_squared(k, params, p)))
        return WellPosednessVerdict("ill_posed", k, w2_min)
    return WellPosednessVerdict("well_posed", None, w2_min)


def require_well_posed(params: AbcdParams, p: PhysicalParams) -> None:
    """Raise IllPosedError unless ``classify_abcd`` finds the system well-posed.

    The message names the witness wavenumber where omega^2 < 0, or, when
    there is none, the negative b or d whose factor makes the symbol singular.
    """
    verdict = classify_abcd(params, p)
    if verdict.verdict == "well_posed":
        return
    witness = verdict.witness_wavenumber
    negative = " and ".join(f"{n} = {v}" for n, v in (("b", params.b), ("d", params.d)) if v < 0)
    reason = (f"omega^2 < 0 at k = {witness}" if witness is not None
              else f"{negative}: a negative b or d makes the symbol singular")
    raise IllPosedError(f"abcd parameters are ill-posed: {reason}")


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
    require_well_posed(params, p)
    _, beta, s, inv_b, inv_d = _abcd_symbols(state.grid.wavenumbers(0), params, p)
    return integrate_pair(state, p.H, t_end, n_out, dt_control or DtControl(),
                          lambda z, u: p.c0 + 1.5 * float(np.max(np.abs(u))),
                          s * beta, s, inv_b, inv_d)


def abcd_linear_evolve(
    state: BoussinesqState, params: AbcdParams, p: PhysicalParams, t: float
) -> BoussinesqState:
    """Exact mode-wise solution of the linearized four-parameter system,
    ``mode_propagator`` with a = -ik alpha and b = -ik beta.

    Reference oracle for the small-amplitude consistency of abcd_evolve.
    """
    require_well_posed(params, p)
    grid = state.grid
    alpha, beta, _, _, _ = _abcd_symbols(grid.wavenumbers(0), params, p)
    ik = grid.ik[0]  # zero at Nyquist, so that mode stays put, as in abcd_evolve
    w = np.abs(ik) * np.sqrt(np.maximum(alpha * beta, 0.0))
    cos_wt, m12, m21 = mode_propagator(w, -ik * alpha, -ik * beta, t)
    zhat, uhat = state.zeta.hat, state.u.hat
    return BoussinesqState(SpectralField.from_hat(grid, cos_wt * zhat + m12 * uhat),
                           SpectralField.from_hat(grid, cos_wt * uhat + m21 * zhat),
                           state.time + t)


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
    """One integrating-factor RK4 run of a scalar model at the step dt, as
    the generator ``stepping.intervals``, one output interval at a time.

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

    return intervals(state.zeta.hat, state, snapshot_times(t_end, n_out),
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
    step is halved until two successive runs agree to REFINE_TOL in the
    max norm at every snapshot; the finer run is returned, with
    ``refinement`` recording the runs started and the error estimate
    diff / 15 (RK4's 2^4 - 1).  Two successive runs that cavitate in the
    same output interval, having agreed at every snapshot before it, end
    the ladder too, the finer returned with its halt and an error estimate
    of None; a coarse step's lone cavitation is passed over.  Initial data
    with no positive depth raises CavitationError.

    The runs, one per level dt = 4 dt0 2^j (dt0 = cfl dx / (c0 + 1.5 (c0/H)
    max|zeta|), the CFL step of ``integrate_pair``), start from the
    coarsest one within the output interval I = t_end / n_out, so that no
    two levels take the same steps, and within max(4 dt0, h_stab):
    h_stab = 2.8 dx / (pi 1.5 (c0/H) max|zeta|) is RK4's stability step for
    the nonlinear advection at the Nyquist wavenumber, the linear part being
    exact.  Two levels are stepped in lockstep, one output interval at a
    time, and compared at each snapshot.  At the first snapshot where they
    differ by REFINE_TOL or more, or where one halts and the other does
    not, the coarser is dropped and the next level starts; it catches up
    with the finer one, compared against its stored snapshots, and the two
    go on in lockstep.  No run takes a step below dt0 2^-14: failing to
    agree by then, as with any I below dt0 2^-13, raises
    StepSizeUnderflowError.
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
        *_, traj = _scalar_run(state, p, t_end, ctrl.dt, n_out)
        return traj

    zmax = float(np.max(np.abs(state.zeta.values)))
    dx = grid.spacing[0]
    dt0 = ctrl.cfl * dx / (p.c0 + 1.5 * (p.c0 / p.H) * zmax)
    if not dt0 >= MIN_STEP:  # a zmax near the float limit makes the speed inf and dt0 0
        raise StepSizeUnderflowError(f"time step underflow: dt = {dt0}")
    dt4 = PAIR_STEP_MULTIPLE * dt0
    # RK4's imaginary-axis limit 2.8 at the Nyquist k = pi/dx, for the advection 1.5 (c0/H) zeta
    h_stab = 2.8 * dx / (math.pi * 1.5 * (p.c0 / p.H) * zmax) if zmax > 0.0 else math.inf
    interval = snapshot_times(t_end, n_out)[1]  # validates t_end and n_out
    dts = [dt4 * 2.0 ** math.floor(math.log2(min(interval, max(h_stab, dt4)) / dt4))]
    while 0.5 * dts[-1] >= dt0 * 2.0**-14:
        dts.append(0.5 * dts[-1])
    levels = []
    coarse = coarse_run = None  # the coarser run of the pair: its trajectory and generator
    for dt in dts:
        run = _scalar_run(state, p, t_end, dt, n_out)
        fine = next(run)
        level = {"dt": dt, "substeps": resolve_substeps(interval, dt)[0], "diff": None,
                 "dropped_at": None}
        levels.append(level)
        if coarse is None:
            coarse, coarse_run = fine, run
            continue
        for i, _ in enumerate(run, 1):  # the finer run has stepped output interval i
            if len(coarse.states) == i and coarse.halt is None:
                next(coarse_run)  # it has caught up with the coarser run: step the two together
            if min(len(coarse.states), len(fine.states)) == i:  # a halt in interval i
                if (len(coarse.states) == len(fine.states)
                        and coarse.halt.reason == fine.halt.reason == "cavitation"):
                    continue  # both cavitated in it: the finer run has ended, and agrees
                break
            gap = float(np.max(np.abs(fine.states[i].zeta.values - coarse.states[i].zeta.values)))
            level["diff"] = max(gap, level["diff"] or 0.0)
            if gap >= REFINE_TOL:
                break
        else:
            fine.refinement = {"levels": levels,
                               "error_estimate": None if fine.halt else level["diff"] / 15.0}
            return fine
        levels[-2]["dropped_at"] = i
        coarse, coarse_run = fine, run
    raise StepSizeUnderflowError(
        f"step refinement did not reach tolerance {REFINE_TOL} (last dt = {dts[-1]})"
    )

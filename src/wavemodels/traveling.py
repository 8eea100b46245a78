"""Traveling-wave solvers: closed-form solitary waves of the cubic-dispersion
equation, Petviashvili fixed-point iteration for the scalar models, and
Newton continuation for solitary waves of the four-parameter systems.

All profiles live on a periodic grid large enough that the wrap-around
interaction of the exponential tails sits below the solver tolerance, are
centered with their maximum at x = 0, and are symmetrized every iteration
to pin the translation mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersive import AbcdParams, classify_abcd
from .errors import ConvergenceError, IllPosedError, ResonanceError
from .linear import phase_velocity
from .physics import PhysicalParams
from .spectral import Grid, SpectralField
from .traveling_newton import newton_even_coupled, steady_residual

__all__ = [
    "TravelingWaveSolution",
    "ContinuationResult",
    "kdv_soliton",
    "petviashvili_solve",
    "petviashvili_continuation",
    "boussinesq_solitary_solve",
    "kdv_steady_residual",
    "whitham_steady_residual",
    "boussinesq_steady_residual",
    "suggested_domain_length",
]


@dataclass
class TravelingWaveSolution:
    """A steady profile, its speed, and solver diagnostics."""

    profile_zeta: SpectralField
    profile_u: SpectralField | None
    speed: float
    residual: float
    iterations: int

    @property
    def amplitude(self) -> float:
        return float(np.max(self.profile_zeta.values))


@dataclass
class ContinuationResult:
    """Outcome of a speed ramp; ``diverged_at`` is None on full success."""

    speeds: list
    solutions: list
    diverged_at: float | None

    @property
    def reached_speed(self) -> float:
        return self.speeds[-1] if self.speeds else math.nan


def _decay_rate(speed: float, p: PhysicalParams) -> float:
    return math.sqrt(1.5 * (speed / p.c0 - 1.0)) / p.H


def suggested_domain_length(speed: float, p: PhysicalParams, factor: float = 40.0) -> float:
    """Domain length so periodic tail interactions fall below tolerance."""
    return factor / _decay_rate(speed, p)


def kdv_soliton(speed: float, p: PhysicalParams, grid: Grid) -> TravelingWaveSolution:
    """The closed-form solitary wave 2H(c/c0 - 1) sech^2(kappa x).

    kappa = sqrt((3/(2 H^2))(c/c0 - 1)); the profile is centered on the
    grid (maximum at x = 0) and the family is empty below c0.  At exactly
    c0 the zero profile is returned.
    """
    if speed < p.c0:
        raise ValueError(f"no solitary wave below c0 = {p.c0}; got speed {speed}")
    if grid.dim != 1:
        raise ValueError("traveling-wave profiles are 1D")
    x = grid.axis_coordinates(0)
    if speed == p.c0:
        zeta = SpectralField(grid, np.zeros_like(x))
        return TravelingWaveSolution(zeta, None, speed, 0.0, 0)
    amp = 2.0 * p.H * (speed / p.c0 - 1.0)
    kappa = _decay_rate(speed, p)
    zeta = SpectralField(grid, amp / np.cosh(kappa * x) ** 2)
    res = float(np.max(np.abs(kdv_steady_residual(zeta, speed, p))))
    return TravelingWaveSolution(zeta, None, speed, res, 0)


def _steady_linear_symbol(model: str, speed: float, kk: np.ndarray, p: PhysicalParams):
    if model == "kdv":
        return speed - p.c0 * (1.0 - (p.H * kk) ** 2 / 6.0)
    if model == "whitham":
        return speed - phase_velocity(np.abs(kk), p)
    raise ValueError(f"unsupported traveling-wave model {model!r}")


def _scalar_steady_residual(model: str, zeta: SpectralField, speed: float, p: PhysicalParams):
    """Pointwise residual of the once-integrated steady equation."""
    lin = _steady_linear_symbol(model, speed, zeta.grid.wavenumbers(0), p)
    n = (3.0 * p.c0 / (4.0 * p.H)) * zeta.values**2
    return np.fft.ifft(lin * zeta.hat).real - n


def kdv_steady_residual(zeta: SpectralField, speed: float, p: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the once-integrated steady KdV equation."""
    return _scalar_steady_residual("kdv", zeta, speed, p)


def whitham_steady_residual(zeta: SpectralField, speed: float, p: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the once-integrated steady Whitham equation."""
    return _scalar_steady_residual("whitham", zeta, speed, p)


def _symmetrize_centered(values: np.ndarray) -> np.ndarray:
    """Center the maximum at x = 0 and average with the even reflection."""
    n = values.size
    values = np.roll(values, n // 2 - int(np.argmax(values)))
    refl = values[(-np.arange(n)) % n]
    return 0.5 * (values + refl)


def petviashvili_solve(
    model: str,
    speed: float,
    p: PhysicalParams,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 500,
    initial_guess: SpectralField | None = None,
) -> TravelingWaveSolution:
    """Fixed-point iteration for steady profiles of the scalar models.

    Iterates zeta <- M^2 L^{-1} N(zeta) with the stabilizing factor
    M = <L zeta, zeta> / <N(zeta), zeta>; the exponent 2 is the standard
    optimal choice for a quadratic nonlinearity.  Stops when the sup-norm
    update falls below ``tol``.  Divergence raises ConvergenceError whose
    ``history`` holds the trace of M values.
    """
    if speed <= p.c0:
        raise ValueError(f"supercritical speed required; got {speed} <= c0 = {p.c0}")
    kk = grid.wavenumbers(0)
    lin = _steady_linear_symbol(model, speed, kk, p)
    if np.any(lin == 0.0):
        raise ResonanceError("steady linear operator vanishes at a grid wavenumber")

    if initial_guess is None:
        z = kdv_soliton(speed, p, grid).profile_zeta.values.copy()
    else:
        z = initial_guess.values.copy()
    nl_coeff = 3.0 * p.c0 / (4.0 * p.H)
    m_history = []
    for it in range(1, max_iter + 1):
        zhat = np.fft.fft(z)
        n_hat = nl_coeff * np.fft.fft(z * z)
        denom = float(np.real(np.vdot(zhat, n_hat)))
        numer = float(np.real(np.vdot(zhat, lin * zhat)))
        if denom == 0.0 or not np.isfinite(denom) or not np.isfinite(numer):
            raise ConvergenceError(
                f"normalization factor broke down at iteration {it}", m_history
            )
        m_factor = numer / denom
        m_history.append(m_factor)
        z_new = np.fft.ifft(m_factor**2 * n_hat / lin).real
        z_new = _symmetrize_centered(z_new)
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        if not np.isfinite(delta) or float(np.max(np.abs(z))) > 1e6:
            raise ConvergenceError(f"iteration diverged at step {it}", m_history)
        if delta < tol:
            zeta = SpectralField(grid, z)
            res = float(np.max(np.abs(_scalar_steady_residual(model, zeta, speed, p))))
            return TravelingWaveSolution(zeta, None, speed, res, it)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (last update {delta})", m_history
    )


def petviashvili_continuation(
    model: str,
    target_speed: float,
    p: PhysicalParams,
    grid: Grid,
    start_speed: float | None = None,
    steps: int = 20,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> ContinuationResult:
    """Ramp the speed geometrically toward a hard target.

    Each stage reuses the previous profile as the initial guess.  If a
    stage diverges, the result records the failing speed and returns the
    stages solved so far; it does not raise.
    """
    start = 1.05 * p.c0 if start_speed is None else start_speed
    ratio = (target_speed / start) ** (1.0 / steps)
    speeds = [start * ratio**j for j in range(steps + 1)]
    speeds[-1] = target_speed
    solutions: list[TravelingWaveSolution] = []
    guess = None
    solved_speeds: list[float] = []
    for s in speeds:
        try:
            sol = petviashvili_solve(
                model, s, p, grid, tol=tol, max_iter=max_iter, initial_guess=guess
            )
        except ConvergenceError:
            return ContinuationResult(solved_speeds, solutions, diverged_at=s)
        solutions.append(sol)
        solved_speeds.append(s)
        guess = sol.profile_zeta
    return ContinuationResult(solved_speeds, solutions, diverged_at=None)


def boussinesq_steady_residual(
    zeta: SpectralField,
    u: SpectralField,
    params: AbcdParams,
    speed: float,
    p: PhysicalParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the once-integrated traveling-frame system.

    r1 = -c (zeta - b H^2 zeta'') + (H + zeta) u + a H^3 u''
    r2 = -c (u - d H^2 u'') + g (zeta + c_param H^2 zeta'') + u^2 / 2
    with zero integration constants (decay gauge).
    """
    return steady_residual(zeta.values, u.values, params, speed, p, zeta.grid)


def boussinesq_solitary_solve(
    params: AbcdParams,
    speed: float,
    p: PhysicalParams,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 40,
) -> TravelingWaveSolution:
    """Newton solve of the once-integrated steady system for (zeta, u).

    The discretization restricts to fields even about x = 0, which removes
    the translation null direction of the Jacobian.  The initial guess is
    the closed-form sech^2 profile with the leading-order closure
    u = c zeta / (H + zeta).
    """
    verdict = classify_abcd(params, p)
    if verdict.verdict != "well_posed":
        raise IllPosedError("cannot continue solitary waves of an ill-posed system")
    ratio = speed / p.c0 - 1.0
    if ratio < 0.0 or ratio > 0.3:
        raise ValueError(
            f"supported speeds have 0 <= c/c0 - 1 <= 0.3; got c/c0 - 1 = {ratio}"
        )
    if speed == p.c0:
        zeros = SpectralField.zeros(grid)
        return TravelingWaveSolution(zeros, SpectralField.zeros(grid), speed, 0.0, 0)

    guess_z = kdv_soliton(speed, p, grid).profile_zeta.values
    guess_u = speed * guess_z / (p.H + guess_z)
    z, u, res, iters = newton_even_coupled(
        guess_z, guess_u, params, speed, p, grid, tol=tol, max_iter=max_iter
    )
    return TravelingWaveSolution(
        SpectralField(grid, z), SpectralField(grid, u), speed, res, iters
    )

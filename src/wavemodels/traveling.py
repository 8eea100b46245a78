"""Traveling-wave solvers: closed-form solitary waves of the cubic-dispersion
equation, and one Petviashvili fixed-point iteration that solves for the
steady profiles of the scalar models (zeta) and of the four-parameter
systems (zeta, u).

All profiles live on a periodic grid large enough that the wrap-around
interaction of the exponential tails sits below the solver tolerance, are
centered with their maximum at x = 0, and are symmetrized every iteration
to pin the translation mode.  The operators read the grid's symbols, so
they and the iteration work on the N/2 + 1 real-FFT modes of
``SpectralField.hat``: a sweep makes one rfft and one irfft, and the
inner products of the normalization factor take the grid's Parseval
weights (the interior modes twice, modes 0 and N/2 once).  Each sweep's
output is Anderson-mixed with the last one's, which cuts the sweeps by
about 2.5 times.  A profile the grid cannot resolve is refused with
UnresolvedWaveError, and a continuation stops at that stage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dispersive import AbcdParams, _abcd_factors, require_well_posed, scalar_phase_speed
from .errors import ConvergenceError, ResonanceError, UnresolvedWaveError
from .physics import PhysicalParams
from .spectral import Grid, SpectralField, spectral_tail

__all__ = [
    "SOLITARY_METHODS",
    "TravelingWaveSolution",
    "ContinuationResult",
    "kdv_soliton",
    "petviashvili_solve",
    "petviashvili_continuation",
    "boussinesq_solitary_solve",
    "solitary_wave",
    "kdv_steady_residual",
    "whitham_steady_residual",
    "boussinesq_steady_residual",
    "suggested_domain_length",
]


# Largest spectral_tail a TravelingWaveSolution accepts.  At c = 3.3 on the
# default domain, kdv, whitham and boussinesq give at most 2.8e-3 on 128
# nodes or more, and 0.03 to 1 on 64 nodes or fewer.
MAX_SPECTRAL_TAIL = 1e-2

# The models ``solitary_wave`` solves for, and how: the manifest's solver method.
SOLITARY_METHODS = {"boussinesq": "petviashvili", "kdv": "closed_form", "whitham": "petviashvili"}


@dataclass
class TravelingWaveSolution:
    """A steady profile, its speed, and solver diagnostics.

    A profile the grid does not resolve, its ``spectral_tail`` above
    MAX_SPECTRAL_TAIL or NaN, is refused with UnresolvedWaveError when the
    solution is built, so no solver hands one back.  So is a nonzero
    profile that does not decay on the domain: |zeta| at node 0, the edge
    farthest from the centred crest, at half of max |zeta| or more.  Every
    profile the test suite accepts reads at most 0.0151 there; a domain a
    few decay lengths long reads 0.63 (kdv) to 1 (the flat state
    4H(c - c0)/(3 c0) of the Petviashvili solvers).
    """

    profile_zeta: SpectralField
    profile_u: SpectralField | None
    speed: float
    residual: float
    iterations: int
    normalization_history: list = field(default_factory=list)  # M per sweep
    physical: PhysicalParams = field(kw_only=True, repr=False)

    def __post_init__(self):
        tail = self.spectral_tail
        if not tail <= MAX_SPECTRAL_TAIL:  # a NaN tail, from a non-finite profile, fails too
            raise UnresolvedWaveError(
                f"grid does not resolve the wave at speed {self.speed}: spectral tail "
                f"{tail:.3g} exceeds {MAX_SPECTRAL_TAIL:g}; use more nodes"
            )
        zeta = np.abs(self.profile_zeta.values)
        peak = float(np.max(zeta))
        if peak > 0.0 and zeta[0] >= 0.5 * peak:  # the zero profile at c = c0 is exempt
            length = self.profile_zeta.grid.length[0]
            raise UnresolvedWaveError(
                f"the wave at speed {self.speed} does not decay on a domain of length "
                f"{length:g}: |zeta| at its edge is {zeta[0] / peak:.3g} of its peak; use a "
                f"length of about {suggested_domain_length(self.speed, self.physical):.6g}"
            )

    @property
    def amplitude(self) -> float:
        return float(np.max(self.profile_zeta.values))

    @property
    def spectral_tail(self) -> float:
        """``spectral.spectral_tail`` of the zeta profile."""
        return spectral_tail(self.profile_zeta)


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


def suggested_domain_length(speed: float, p: PhysicalParams) -> float:
    """40 decay lengths 1/kappa: periodic tail interactions fall below tolerance (c > c0 only)."""
    if speed <= p.c0:
        raise ValueError(f"a solitary-wave domain length needs a speed above c0 = {p.c0}; "
                         f"got speed {speed}")
    return 40.0 / _decay_rate(speed, p)


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
    if speed == p.c0:
        return TravelingWaveSolution(SpectralField.zeros(grid), None, speed, 0.0, 0, physical=p)
    zeta = SpectralField(grid, _sech2_profile(speed, p, grid))
    res = float(np.max(np.abs(kdv_steady_residual(zeta, speed, p))))
    return TravelingWaveSolution(zeta, None, speed, res, 0, physical=p)


def _sech2_profile(speed: float, p: PhysicalParams, grid: Grid) -> np.ndarray:
    """The nodes of ``kdv_soliton``'s profile for c > c0, also the solvers' first guess."""
    amp = 2.0 * p.H * (speed / p.c0 - 1.0)
    return amp / np.cosh(_decay_rate(speed, p) * grid.axis_coordinates(0)) ** 2


def _steady_linear_symbol(model: str, speed: float, kk: np.ndarray, p: PhysicalParams):
    if model not in ("kdv", "whitham"):
        raise ValueError(f"unsupported traveling-wave model {model!r}")
    return speed - scalar_phase_speed(model, kk, p)


def _scalar_operator(model: str, speed: float, p: PhysicalParams, grid: Grid):
    """(L, N) of the once-integrated steady scalar equation L zeta = (3 c0/(4 H)) zeta^2."""
    lin = _steady_linear_symbol(model, speed, grid.wavenumbers(0), p)
    nl_coeff = 3.0 * p.c0 / (4.0 * p.H)
    return lin[None, None], lambda v: nl_coeff * np.fft.rfft(v * v)


def _boussinesq_operator(params: AbcdParams, speed: float, p: PhysicalParams, grid: Grid):
    """(L, N) of the once-integrated steady abcd system for v = (zeta, u).

    The mode-wise 2x2 symbol is
    L = [[-c (1 + b mu^2), H (1 - a mu^2)], [g (1 - c_param mu^2), -c (1 + d mu^2)]]
    with mu = H k, and the quadratic term is N = -(zeta u, u^2 / 2), zero
    integration constants (decay gauge).
    """
    fa, fb, fc, fd = _abcd_factors(grid.wavenumbers(0), params, p)
    lin = np.array([[-speed * fb, p.H * fa], [p.g * fc, -speed * fd]])
    return lin, lambda v: -np.fft.rfft(np.stack((v[0] * v[1], 0.5 * v[1] ** 2)))


def _residual(lin: np.ndarray, term_hat, v: np.ndarray) -> np.ndarray:
    """L v - N(v) at the nodes for a stacked state v of shape (m, N)."""
    lv_hat = np.einsum("ijk,jk->ik", lin, np.fft.rfft(v))
    return np.fft.irfft(lv_hat - term_hat(v), v.shape[-1])


def kdv_steady_residual(zeta: SpectralField, speed: float, p: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the once-integrated steady KdV equation."""
    return _residual(*_scalar_operator("kdv", speed, p, zeta.grid), zeta.values[None])[0]


def whitham_steady_residual(zeta: SpectralField, speed: float, p: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the once-integrated steady Whitham equation."""
    return _residual(*_scalar_operator("whitham", speed, p, zeta.grid), zeta.values[None])[0]


def _symmetrize_centered(v_hat: np.ndarray, n: int):
    """The iterate with real-FFT modes v_hat, every component rolled so the
    maximum of the first sits at node N/2 (x = 0), then averaged with its
    even reflection; returns (nodes, modes, rolled), ``rolled`` telling
    whether the centring moved the iterate.

    A roll by s nodes multiplies mode k by e^{-2 pi i k s / N}; the even
    reflection j -> -j is the slice v[:, :0:-1] at the nodes and the
    conjugate in the modes, so the average keeps Re v_hat.
    """
    v = np.fft.irfft(v_hat, n)
    shift = n // 2 - int(np.argmax(v[0]))
    if shift:
        v = np.roll(v, shift, axis=-1)
        v_hat = v_hat * np.exp(-2j * np.pi * shift / n * np.arange(v_hat.shape[-1]))
    v[:, 1:] = 0.5 * (v[:, 1:] + v[:, :0:-1])
    return v, np.ascontiguousarray(v_hat.real), shift != 0


def _petviashvili(lin: np.ndarray, term_hat, v: np.ndarray, weights: np.ndarray, tol: float,
                  max_iter: int):
    """Petviashvili iteration for L v = N(v) on a stacked state v of shape (m, N).

    ``lin`` is the linear symbol on the N/2 + 1 real-FFT modes, shape
    (m, m, N/2 + 1); ``term_hat`` maps v to the real-FFT modes of its
    quadratic term N(v), shape (m, N/2 + 1).  A sweep maps v to
    g = M^2 L^{-1} N(v) with the stabilizing factor
    M = sum_j <v_j, (L v)_j> / sum_j <v_j, N_j>; the exponent 2 is the
    standard optimal choice for a quadratic term.  The inner products weight
    the modes with ``weights``, the grid's ``parseval_weights``, which makes
    them equal to the full-spectrum ones.  L^{-1} = adj L / det L is formed
    once per solve, mode by mode; a scalar symbol (m = 1) is applied as a
    plain product, a 2x2 one through einsum.  Every g is centered on the
    maximum of its first component and averaged with its even reflection
    (``_symmetrize_centered``), which pins the translation mode.

    The next iterate is a depth-1 Anderson mix (Walker & Ni 2011): with
    f = g - v and df its change since the last sweep, v <- g - gamma (g - g_last)
    with gamma = <df, f> / <df, df> over the node values, and the modes mix
    alike, so no transform is added.  The plain step v <- g is taken on the
    first sweep, on a sweep whose centring rolled the iterate (which also
    forgets the last sweep: differences across a roll mean nothing), when
    df = 0, and when max |f| did not fall since the last sweep (restart on growth).

    A sweep carries the contiguous modes v_hat of the iterate with its node
    values, weights v_hat once for both inner products, and makes two
    half-size transforms: the rfft of N(v) and the irfft of the new modes.
    The first sweep takes the rfft of the guess.  Stops when max |f| falls
    below ``tol`` and returns (g, iterations, residual, M values), the
    residual the sup-norm of ``_residual`` at g.  Divergence raises
    ConvergenceError whose ``history`` holds the trace of M values.
    """
    if v.shape[0] == 1:
        det, adj = lin[0, 0], np.ones((1, 1, 1))
        apply = lambda symbol, x: symbol[0] * x
    else:
        det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
        adj = np.array([[lin[1, 1], -lin[0, 1]], [-lin[1, 0], lin[0, 0]]])
        apply = lambda symbol, x: np.einsum("ijk,jk->ik", symbol, x)
    if np.any(det == 0.0):
        raise ResonanceError("steady linear symbol is singular at a grid wavenumber")
    inverse = adj / det

    n = v.shape[-1]
    v_hat = np.fft.rfft(v)
    m_history = []
    last = None  # (g, g_hat, f, |f|) of the previous sweep, for the Anderson step
    for it in range(1, max_iter + 1):
        n_hat = term_hat(v)
        weighted = v_hat * weights
        denom = float(np.vdot(weighted, n_hat).real)
        numer = float(np.vdot(weighted, apply(lin, v_hat)).real)
        if denom == 0.0 or not np.isfinite(denom) or not np.isfinite(numer):
            raise ConvergenceError(
                f"normalization factor broke down at iteration {it}", m_history
            )
        m_factor = numer / denom
        m_history.append(m_factor)
        g, g_hat, rolled = _symmetrize_centered(apply(inverse, m_factor**2 * n_hat), n)
        f = g - v
        delta = float(np.abs(f).max())
        if not np.isfinite(delta) or float(np.abs(g).max()) > 1e6:
            raise ConvergenceError(f"iteration diverged at step {it}", m_history)
        if delta < tol:
            return g, it, float(np.max(np.abs(_residual(lin, term_hat, g)))), m_history
        v, v_hat = g, g_hat
        if last is not None and not rolled and delta < last[3]:
            df = f - last[2]
            df_df = float(np.vdot(df, df))
            if df_df > 0.0:
                gamma = float(np.vdot(df, f)) / df_df
                v = g - gamma * (g - last[0])
                v_hat = g_hat - gamma * (g_hat - last[1])
        last = None if rolled else (g, g_hat, f, delta)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (last update {delta})", m_history
    )


def _check_iteration(tol: float, max_iter: int) -> None:
    """ValueError unless ``tol`` is finite and positive and ``max_iter`` is an integer >= 1."""
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1; got {max_iter!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive; got {tol!r}")


def petviashvili_solve(
    model: str,
    speed: float,
    p: PhysicalParams,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 500,
    initial_guess: SpectralField | None = None,
) -> TravelingWaveSolution:
    """Petviashvili iteration for steady profiles of the scalar models.

    Solves L zeta = (3 c0 / (4 H)) zeta^2 with L the steady symbol of
    ``model``; ``tol`` bounds the sup-norm update at exit, and ``residual``
    is the sup-norm of L zeta - N(zeta).  Divergence raises
    ConvergenceError whose ``history`` holds the trace of M values.
    """
    _check_iteration(tol, max_iter)
    if speed <= p.c0:
        raise ValueError(f"supercritical speed required; got {speed} <= c0 = {p.c0}")
    lin, term_hat = _scalar_operator(model, speed, p, grid)
    z = _sech2_profile(speed, p, grid) if initial_guess is None else initial_guess.values
    v, it, res, history = _petviashvili(lin, term_hat, z[None], grid.parseval_weights, tol,
                                        max_iter)
    return TravelingWaveSolution(SpectralField(grid, v[0]), None, speed, res, it, history,
                                 physical=p)


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
    stage diverges (ConvergenceError), or converges to a profile the grid
    does not resolve (UnresolvedWaveError), the result records that speed
    and returns the stages solved so far; it does not raise.  Any other
    error, such as a start speed at or below c0, is raised.
    """
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1; got {steps!r}")
    _check_iteration(tol, max_iter)
    start = 1.05 * p.c0 if start_speed is None else start_speed
    ratio = (target_speed / start) ** (1.0 / steps)
    speeds = [start * ratio**j for j in range(steps + 1)]
    speeds[-1] = target_speed
    solutions: list[TravelingWaveSolution] = []
    for s in speeds:
        guess = solutions[-1].profile_zeta if solutions else None
        try:
            sol = petviashvili_solve(
                model, s, p, grid, tol=tol, max_iter=max_iter, initial_guess=guess
            )
        except (ConvergenceError, UnresolvedWaveError):
            return ContinuationResult(speeds[: len(solutions)], solutions, diverged_at=s)
        solutions.append(sol)
    return ContinuationResult(speeds, solutions, diverged_at=None)


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
    return tuple(_residual(*_boussinesq_operator(params, speed, p, zeta.grid),
                           np.stack((zeta.values, u.values))))


def boussinesq_solitary_solve(
    params: AbcdParams,
    speed: float,
    p: PhysicalParams,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> TravelingWaveSolution:
    """Petviashvili iteration for solitary waves (zeta, u) of the abcd system.

    In Fourier space the once-integrated steady system is L v = N(v) for
    v = (zeta, u), with L and N from ``_boussinesq_operator``.  ``tol``
    bounds the sup-norm update at exit, ``iterations`` counts the sweeps,
    ``residual`` is the sup-norm of L v - N(v), and a ConvergenceError
    carries the trace of the normalization factor M in its ``history``.
    The initial guess is the closed-form sech^2 profile with the
    leading-order closure u = c zeta / (H + zeta).
    """
    _check_iteration(tol, max_iter)
    require_well_posed(params, p)
    if not 1.0 <= speed / p.c0 <= 1.3:
        raise ValueError(
            f"supported speeds have 0 <= c/c0 - 1 <= 0.3; got c/c0 - 1 = {speed / p.c0 - 1.0}"
        )
    if speed == p.c0:
        zeros = SpectralField.zeros(grid)
        return TravelingWaveSolution(zeros, SpectralField.zeros(grid), speed, 0.0, 0, physical=p)

    lin, term_hat = _boussinesq_operator(params, speed, p, grid)
    guess_z = _sech2_profile(speed, p, grid)
    guess_u = speed * guess_z / (p.H + guess_z)
    v, it, res, history = _petviashvili(lin, term_hat, np.stack((guess_z, guess_u)),
                                        grid.parseval_weights, tol, max_iter)
    return TravelingWaveSolution(
        SpectralField(grid, v[0]), SpectralField(grid, v[1]), speed, res, it, history, physical=p
    )


def solitary_wave(
    model: str, speed: float, p: PhysicalParams, grid: Grid, abcd: AbcdParams | None = None
) -> TravelingWaveSolution:
    """The solitary wave of a model in SOLITARY_METHODS, boussinesq with
    ``abcd``; UnresolvedWaveError if the grid does not resolve it."""
    if model not in SOLITARY_METHODS:
        raise ValueError(f"no solitary-wave solver for model {model!r}")
    return {"boussinesq": lambda: boussinesq_solitary_solve(abcd, speed, p, grid),
            "kdv": lambda: kdv_soliton(speed, p, grid),
            "whitham": lambda: petviashvili_solve("whitham", speed, p, grid)}[model]()

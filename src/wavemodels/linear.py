"""Exact linear propagators and dispersion analysis.

Covers the non-dispersive long-wave equation d_t^2 zeta = g H Lap(zeta),
the linearized surface-wave system (zeta, psi) with dispersion relation
omega^2 = g |xi| tanh(H |xi|), phase/group velocities, and the large-time
ray classification with its stationary-phase decay laws.  All evolutions
are mode-wise exact: each mode obeys d/dt (x, y) = [[0, a], [b, 0]] (x, y)
with omega^2 = -ab, and ``mode_propagator`` is its one exponential, also
for the linearized abcd systems.  There is no time-stepping error, which
makes these operators the reference oracle for the nonlinear modules.
omega' and omega'' share one scaffold: a Taylor series in H|xi| below
_SERIES_THRESHOLD, the closed form above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .physics import PhysicalParams
from .spectral import Grid, SpectralField

__all__ = [
    "AiryState",
    "RayAsymptotics",
    "omega",
    "omega_prime",
    "omega_double_prime",
    "phase_velocity",
    "group_velocity",
    "mode_propagator",
    "acoustic_evolve",
    "airy_propagator",
    "airy_evolve",
    "airy_quadratic_energy",
    "ray_asymptotics",
    "sample_ray_envelope",
]

# Below this value of mu = H*|xi| the closed forms for omega'' suffer
# catastrophic cancellation; Taylor series in mu are used instead.
_SERIES_THRESHOLD = 0.01


@dataclass
class AiryState:
    """Surface deformation and surface potential trace at one time."""

    zeta: SpectralField
    psi: SpectralField
    time: float = 0.0

    def __post_init__(self):
        if not self.zeta.same_grid(self.psi):
            raise GridMismatchError("zeta and psi must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.zeta.grid


def omega(xi_mag, p: PhysicalParams):
    """Dispersion relation omega(|xi|) = sqrt(g |xi| tanh(H |xi|))."""
    xi = np.asarray(xi_mag, dtype=float)
    return np.sqrt(p.g * xi * np.tanh(p.H * xi))


def _times_sech2(a, s):
    """a * s for s >= 0 a multiple of sech^2 mu; a zero of a's sign where s is 0.

    The product tends to 0 as mu grows, but where s rounds to 0, mu may be
    inf, and inf * 0 is nan.  For finite a the bits are those of a * s.
    """
    return np.multiply(a, s, out=np.copysign(np.zeros_like(s), a), where=s != 0.0)


def _series_or_closed_form(xi_mag, p: PhysicalParams, series, closed):
    """A function of |xi|: series(mu) where mu = H|xi| < _SERIES_THRESHOLD,
    closed(mu, tanh mu, sech^2 mu, omega) elsewhere; a float for a scalar."""
    xi = np.abs(np.atleast_1d(np.asarray(xi_mag, dtype=float)))
    mu = p.H * xi
    out = np.empty_like(xi)
    small = mu < _SERIES_THRESHOLD
    out[small] = series(mu[small])
    big = ~small
    if np.any(big):
        mu_b = mu[big]
        T = np.tanh(mu_b)
        out[big] = closed(mu_b, T, 1.0 - T * T, omega(xi[big], p))
    return out if np.ndim(xi_mag) else float(out[0])


def omega_prime(xi_mag, p: PhysicalParams):
    """d omega / d|xi|, analytic and even in xi, with a series branch for H|xi| << 1."""
    return _series_or_closed_form(
        xi_mag, p,
        lambda mu: p.c0 * (1.0 - mu**2 / 2.0 + 19.0 * mu**4 / 72.0 - 55.0 * mu**6 / 432.0),
        lambda mu, T, S2, w: p.g * (T + _times_sech2(mu, S2)) / (2.0 * w))


def omega_double_prime(xi_mag, p: PhysicalParams):
    """d^2 omega / d|xi|^2, analytic and even in xi, with a series branch for H|xi| << 1."""
    def closed(mu, T, S2, w):
        P = T + _times_sech2(mu, S2)
        Q = _times_sech2(1.0 - mu * T, 2.0 * p.H * S2)
        return p.g * Q / (2.0 * w) - p.g**2 * P**2 / (4.0 * w**3)

    return _series_or_closed_form(
        xi_mag, p, lambda mu: p.c0 * p.H * (-mu + 19.0 * mu**3 / 18.0 - 55.0 * mu**5 / 72.0),
        closed)


def phase_velocity(xi_mag, p: PhysicalParams):
    """cp = sqrt(gH) (tanh(H|xi|)/(H|xi|))^(1/2); equal to c0 at xi = 0."""
    xi = np.atleast_1d(np.asarray(xi_mag, dtype=float))
    mu = p.H * xi
    out = np.full_like(xi, p.c0)
    nz = mu != 0.0
    out[nz] = p.c0 * np.sqrt(np.tanh(mu[nz]) / mu[nz])
    return out if np.ndim(xi_mag) else float(out[0])


def group_velocity(xi_mag, p: PhysicalParams):
    """Group velocity cg = omega'(|xi|) of surface gravity waves; c0 at xi = 0."""
    return omega_prime(xi_mag, p)


def mode_propagator(w: np.ndarray, a, b, t: float):
    """Entries (cos wt, a sin(wt)/w, b sin(wt)/w) of exp(t [[0, a], [b, 0]]), w^2 = -ab.

    Both diagonal entries are cos wt.  sin(wt)/w is written t sinc(wt/pi),
    so its w = 0 limit t needs no branch.
    """
    theta = w * t
    sin_over_w = t * np.sinc(theta / np.pi)
    return np.cos(theta), a * sin_over_w, b * sin_over_w


def acoustic_evolve(
    zeta0: SpectralField, zeta_t0: SpectralField, p: PhysicalParams, t: float
) -> SpectralField:
    """Exact solution of d_t^2 zeta = g H Lap(zeta) at time t.

    Mode-wise: zhat(t) = cos(wt) zhat0 + sin(wt)/w zthat0, w = c0|xi| (a = 1,
    b = -w^2), and the xi = 0 mode evolves linearly as zhat0 + t*zthat0.
    """
    if not zeta0.same_grid(zeta_t0):
        raise GridMismatchError("zeta0 and zeta_t0 must live on the same grid")
    if t == 0.0:
        return zeta0.copy()
    w = p.c0 * zeta0.grid.wavenumber_magnitude()
    cos_wt, sin_over_w, _ = mode_propagator(w, 1.0, -w * w, t)
    return SpectralField.from_hat(zeta0.grid, cos_wt * zeta0.hat + sin_over_w * zeta_t0.hat)


def airy_propagator(xi_mag: float, p: PhysicalParams, t: float) -> np.ndarray:
    """The 2x2 mode propagator exp(L(xi) t) acting on (zhat, phat).

    [[ cos(wt),        (w/g) sin(wt) ],
     [ -(g/w) sin(wt),  cos(wt)      ]]   with w = omega(xi) (a = w^2/g, b = -g);
    at xi = 0 the limit [[1, 0], [-g t, 1]].
    """
    w = omega(np.atleast_1d(np.asarray(xi_mag, dtype=float)), p)
    m11, m12, m21 = mode_propagator(w, w * w / p.g, -p.g, t)
    return np.array([[m11[0], m12[0]], [m21[0], m11[0]]])


def airy_evolve(s: AiryState, p: PhysicalParams, t: float) -> AiryState:
    """Advance an AiryState by t with the exact mode-wise propagator."""
    if t == 0.0:
        return AiryState(s.zeta.copy(), s.psi.copy(), s.time)
    w = omega(s.grid.wavenumber_magnitude(), p)
    m11, m12, m21 = mode_propagator(w, w * w / p.g, -p.g, t)
    zhat, phat = s.zeta.hat, s.psi.hat
    return AiryState(SpectralField.from_hat(s.grid, m11 * zhat + m12 * phat),
                     SpectralField.from_hat(s.grid, m21 * zhat + m11 * phat), s.time + t)


def airy_quadratic_energy(s: AiryState, p: PhysicalParams) -> float:
    """Conserved quadratic form (1/2) sum_k g|zhat|^2 + (omega^2/g)|phat|^2.

    The sum runs over every mode of the full spectrum: over the real-FFT
    modes of ``SpectralField.hat`` with the grid's ``parseval_weights``.
    Coefficients are weighted by cell_volume/prod(N) so the zeta part matches
    the physical integral g/2 * int zeta^2 dx.
    """
    grid = s.grid
    w2 = omega(grid.wavenumber_magnitude(), p) ** 2
    density = p.g * np.abs(s.zeta.hat) ** 2 + (w2 / p.g) * np.abs(s.psi.hat) ** 2
    weight = grid.cell_volume / float(np.prod(grid.nodes))
    return 0.5 * weight * float(np.sum(grid.parseval_weights * density))


@dataclass(frozen=True)
class RayAsymptotics:
    """Large-time behaviour of |zeta(t, c t)| along the ray x = c t.

    ``decay_exponent`` is the power of t (``-inf`` marks super-polynomial
    decay outside the wave cone).  For the interior and edge regimes,
    ``amplitude_coefficient`` multiplies t**decay_exponent in the leading
    asymptotics, and ``stationary_wavenumber`` is the dominant wavenumber.
    """

    regime: str
    decay_exponent: float
    amplitude_coefficient: float | None = None
    stationary_wavenumber: float | None = None


def _find_stationary_wavenumber(c_abs: float, p: PhysicalParams) -> float:
    """Solve omega'(xi_c) = |c| for 0 < |c| < c0 by bracketed bisection."""
    lo = 1e-12 / p.H
    hi = 1.0 / p.H
    for _ in range(200):
        if omega_prime(hi, p) < c_abs:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the stationary wavenumber")
    # omega' falls from c0 at xi = 0 towards 0, so it crosses |c| once.
    for _ in range(200):
        if hi - lo <= 1e-14 + 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if omega_prime(mid, p) > c_abs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ray_asymptotics(c: float, zeta0_hat, psi0_hat, p: PhysicalParams) -> RayAsymptotics:
    """Classify the ray x = c t and report its decay law.

    ``zeta0_hat`` and ``psi0_hat`` are the initial spectra as callables of
    the (signed) wavenumber, using the convention
    fhat(xi) = int f(x) exp(-i xi x) dx.

    Rays with |c| > c0 decay faster than any power; 0 < |c| < c0 gives the
    t^(-1/2) law with amplitude read off at the stationary wavenumber; on
    the cone edge |c| = c0 the law is t^(-1/3).  The ray c = 0 is not
    classified and raises ValueError.
    """
    if c == 0.0:
        raise ValueError("the ray c = 0 is not classified; see module docs")
    c_abs = abs(c)
    sign = 1.0 if c > 0 else -1.0

    def amplitude(xi: float) -> complex:
        return complex(zeta0_hat(xi)) + sign * 1j * (omega(xi, p) / p.g) * complex(
            psi0_hat(xi)
        )

    if c_abs > p.c0 * (1.0 + 1e-12):
        return RayAsymptotics(regime="outside_cone", decay_exponent=-math.inf)

    if abs(c_abs - p.c0) <= 1e-9 * p.c0:
        a0 = abs(amplitude(1e-9 / p.H))
        coeff = (
            (1.0 / (4.0 * math.pi))
            * 6.0 ** (1.0 / 3.0)
            * math.gamma(4.0 / 3.0)
            * a0
            * (p.H**2 * p.c0) ** (-1.0 / 3.0)
        )
        return RayAsymptotics(
            regime="edge",
            decay_exponent=-1.0 / 3.0,
            amplitude_coefficient=coeff,
            stationary_wavenumber=0.0,
        )

    xi_c = _find_stationary_wavenumber(c_abs, p)
    coeff = (
        (1.0 / (4.0 * math.pi))
        * math.sqrt(2.0)
        * math.gamma(1.5)
        * abs(amplitude(xi_c))
        * abs(omega_double_prime(xi_c, p)) ** -0.5
    )
    return RayAsymptotics(
        regime="interior",
        decay_exponent=-0.5,
        amplitude_coefficient=coeff,
        stationary_wavenumber=xi_c,
    )


def sample_ray_envelope(
    state0: AiryState,
    p: PhysicalParams,
    c: float,
    times,
    window_halfwidth: float,
    n_eval: int = 257,
) -> np.ndarray:
    """Envelope of |zeta| along the ray x = c t at the given times.

    For each time the state is propagated exactly and |zeta| is maximized
    over a dense band-limited evaluation of the window [ct - W, ct + W],
    which suppresses the oscillating phase factor.
    """
    out = np.empty(len(times))
    L = state0.grid.length[0]
    for i, t in enumerate(times):
        st = airy_evolve(state0, p, t)
        center = math.remainder(c * t, L)
        pts = np.linspace(center - window_halfwidth, center + window_halfwidth, n_eval)
        out[i] = float(np.max(np.abs(st.zeta.evaluate(pts))))
    return out

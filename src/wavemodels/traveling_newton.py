"""Dense spectral Newton solver for the coupled steady traveling-wave system.

The unknown pair (zeta, u) is restricted to fields even about x = 0, which
excludes the odd translation mode that would otherwise make the Jacobian
singular at the solution.  Second derivatives enter through a dense
collocation matrix built by Fourier transform of the identity, so each
Jacobian block is an explicit matrix and the Newton step is a direct solve.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .physics import PhysicalParams
from .spectral import Grid


def steady_residual(z, u, params, speed: float, p: PhysicalParams, grid: Grid):
    """Residuals (r1, r2) of the once-integrated steady system at (z, u)."""
    zxx = np.fft.ifft(-grid.k2 * np.fft.fft(z)).real
    uxx = np.fft.ifft(-grid.k2 * np.fft.fft(u)).real
    r1 = -speed * (z - params.b * p.H**2 * zxx) + (p.H + z) * u + params.a * p.H**3 * uxx
    r2 = (
        -speed * (u - params.d * p.H**2 * uxx)
        + p.g * (z + params.c * p.H**2 * zxx)
        + 0.5 * u**2
    )
    return r1, r2


def _second_derivative_matrix(grid: Grid) -> np.ndarray:
    n = grid.nodes[0]
    eye_hat = np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft(-grid.k2[:, None] * eye_hat, axis=0).real


def _fold_columns(block: np.ndarray, n: int) -> np.ndarray:
    """Collapse columns of an (M+1, N) block onto the even-subspace basis."""
    m = n // 2
    out = np.empty((block.shape[0], m + 1))
    out[:, 0] = block[:, 0]
    out[:, m] = block[:, m]
    out[:, 1:m] = block[:, 1:m] + block[:, : m : -1]
    return out


def newton_even_coupled(
    guess_z: np.ndarray,
    guess_u: np.ndarray,
    params,
    speed: float,
    p: PhysicalParams,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 40,
):
    """Solve the once-integrated steady system for even (zeta, u).

    Returns (zeta, u, residual_inf, iterations).  Raises ConvergenceError
    on a singular Jacobian, stagnating line search, or iteration cap.
    """
    n = grid.nodes[0]
    m = n // 2
    fold = np.minimum(np.arange(n), n - np.arange(n))

    d2 = _second_derivative_matrix(grid)
    eye = np.eye(n)
    const11 = -speed * (eye - params.b * p.H**2 * d2)
    const12 = params.a * p.H**3 * d2
    const21 = p.g * (eye + params.c * p.H**2 * d2)
    const22 = -speed * (eye - params.d * p.H**2 * d2)
    rows = slice(0, m + 1)

    vz = guess_z[: m + 1].copy()
    vu = guess_u[: m + 1].copy()

    for it in range(1, max_iter + 1):
        z, u = vz[fold], vu[fold]
        r1, r2 = steady_residual(z, u, params, speed, p, grid)
        res_inf = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        if res_inf < tol:
            return z, u, res_inf, it - 1

        a11 = const11 + np.diag(u)
        a12 = const12 + np.diag(p.H + z)
        a21 = const21
        a22 = const22 + np.diag(u)
        top = np.hstack([_fold_columns(a11[rows], n), _fold_columns(a12[rows], n)])
        bot = np.hstack([_fold_columns(a21[rows], n), _fold_columns(a22[rows], n)])
        jac = np.vstack([top, bot])
        rhs = -np.concatenate([r1[: m + 1], r2[: m + 1]])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"singular Jacobian at iteration {it}") from err

        dz, du = delta[: m + 1], delta[m + 1 :]
        step = 1.0
        while True:
            z_try = (vz + step * dz)[fold]
            u_try = (vu + step * du)[fold]
            t1, t2 = steady_residual(z_try, u_try, params, speed, p, grid)
            res_try = max(float(np.max(np.abs(t1))), float(np.max(np.abs(t2))))
            if res_try < res_inf or res_try < tol:
                vz = vz + step * dz
                vu = vu + step * du
                break
            step *= 0.5
            if step < 1.0 / 256.0:
                raise ConvergenceError(
                    f"line search stagnated at iteration {it} (residual {res_inf})"
                )

    z, u = vz[fold], vu[fold]
    r1, r2 = steady_residual(z, u, params, speed, p, grid)
    res_inf = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    if res_inf < tol:
        return z, u, res_inf, max_iter
    raise ConvergenceError(f"no convergence in {max_iter} iterations (residual {res_inf})")

"""Residual of the once-integrated steady Boussinesq (abcd) system.

This is the one Boussinesq steady residual: ``traveling`` checks its
solitary waves with it and wraps it as ``boussinesq_steady_residual``.
It lives in its own module because ``benchmarks/tracing.py`` imports
every module it lists, this one included, by name.
"""

from __future__ import annotations

import numpy as np

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

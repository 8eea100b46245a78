"""Periodic grids, Fourier transforms, grid symbols, and spectral derivatives.

Everything downstream (propagators, time steppers, traveling-wave solvers)
is built on the symbols a ``Grid`` caches: wavenumbers, i*k with the Nyquist
mode zeroed, |xi|^2, |xi|, the 2/3-rule dealiasing mask and the Parseval
weights.  Grids are uniform and periodic, with nodes x_j = -L/2 + j*dx so
that x = 0 is the grid point N/2.  Fields are real, so every spectrum and
symbol has the real-FFT (``rfftn``) layout, which only this module knows:
wavenumbers 2*pi*k/L with k = 0 .. N/2 on the last axis and
k = 0 .. N/2-1, -N/2 .. -1 on the others.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["Grid", "SpectralField", "derivative"]


def _as_tuple(value, dim, cast):
    if np.isscalar(value):
        return (cast(value),) * dim
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis values, got {len(out)}")
    return out


def _node_count(value) -> int:
    """An integral node count; 16.0 passes, 16.7, NaN and strings do not."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"node count must be an integer, got {value!r}")
    return int(value)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in one or two dimensions.

    Parameters
    ----------
    length : float or sequence of float
        Domain extent per axis [m].
    nodes : int or sequence of int
        Node count per axis; must be even and at least 4 so the Nyquist
        mode is well-defined.
    dim : int
        1 or 2.  Scalars for ``length``/``nodes`` broadcast to all axes.
    """

    length: tuple[float, ...]
    nodes: tuple[int, ...]
    dim: int = 1

    def __init__(self, length, nodes, dim=1):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "length", _as_tuple(length, dim, float))
        object.__setattr__(self, "nodes", _as_tuple(nodes, dim, _node_count))
        for L in self.length:
            if not (L > 0.0 and math.isfinite(L)):
                raise ValueError(f"grid length must be positive, got {L}")
        for n in self.nodes:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"node count must be even and >= 4, got {n}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.length, self.nodes))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes

    def axis_coordinates(self, axis: int = 0) -> np.ndarray:
        """Node coordinates along one axis, centered: -L/2 + j*dx."""
        L, n = self.length[axis], self.nodes[axis]
        dx = L / n
        return -0.5 * L + dx * np.arange(n)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    # Spectral symbols, built once per grid and shared read-only by every
    # operator on it.

    def _frequencies(self, axis: int, d: float) -> np.ndarray:
        """rfftfreq on the last axis and fftfreq on the others, sample spacing d."""
        freq = np.fft.rfftfreq if axis == self.dim - 1 else np.fft.fftfreq
        return freq(self.nodes[axis], d=d)

    @cached_property
    def _axis_wavenumbers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _read_only(2.0 * np.pi * self._frequencies(a, L / n))
            for a, (L, n) in enumerate(zip(self.length, self.nodes))
        )

    def wavenumbers(self, axis: int = 0) -> np.ndarray:
        """Wavenumbers 2*pi*k/L along one axis on the rfftn layout:
        k = 0 .. N/2 on the last axis, k = 0 .. N/2-1, -N/2 .. -1 on the others."""
        return self._axis_wavenumbers[axis]

    def wavenumber_mesh(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumber arrays broadcast to the shape of a spectrum."""
        return tuple(np.meshgrid(*self._axis_wavenumbers, indexing="ij"))

    @cached_property
    def ik(self) -> np.ndarray:
        """Symbols i*xi_a of d/dx_a, stacked over axes: shape (dim, *spectrum shape).

        The Nyquist mode of each axis is zeroed (real-output convention for
        odd derivatives).
        """
        out = 1j * np.stack(self.wavenumber_mesh())
        for a, n in enumerate(self.nodes):
            out[a].swapaxes(0, a)[n // 2] = 0.0
        return _read_only(out)

    @cached_property
    def k2(self) -> np.ndarray:
        """|xi|^2 on the grid: the symbol of -Laplacian."""
        return _read_only(sum(k * k for k in self.wavenumber_mesh()))

    @cached_property
    def _magnitude(self) -> np.ndarray:
        return _read_only(np.sqrt(self.k2))

    def wavenumber_magnitude(self) -> np.ndarray:
        """|xi| on the grid."""
        return self._magnitude

    @cached_property
    def _dealias_mask(self) -> np.ndarray:
        keep = [np.abs(self._frequencies(a, 1.0 / n)) <= n // 3  # integer mode numbers
                for a, n in enumerate(self.nodes)]
        return _read_only(np.logical_and.reduce(np.meshgrid(*keep, indexing="ij")))

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes |k| <= floor(N/3) per axis."""
        return self._dealias_mask

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Weights along the last axis that make sum(weights * conj(a_hat) * b_hat).real
        the full-spectrum inner product of two real fields: the interior columns
        count twice, for their conjugates, and columns 0 and N/2 once."""
        weights = np.full(self.nodes[-1] // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        return _read_only(weights)

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.spacing:
            out *= h
        return out


class SpectralField:
    """Real field sampled on a periodic grid, with a Fourier-coefficient view.

    ``values`` is the physical-space array; ``hat`` returns its (cached)
    ``rfftn`` on the layout of the grid symbols, and ``from_hat`` inverts
    it.  Every operation returns a new field; nothing mutates.
    """

    __slots__ = ("grid", "values", "_hat", "_modes")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values
        self._hat = None
        self._modes = None

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "SpectralField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    @classmethod
    def from_hat(cls, grid: Grid, hat: np.ndarray) -> "SpectralField":
        return cls(grid, np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(grid.dim))))

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape))

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = _read_only(np.fft.rfftn(self.values))
        return self._hat

    def evaluate(self, points) -> np.ndarray:
        """Band-limited evaluation at arbitrary 1D coordinates.

        Sums the trigonometric interpolant of the samples over the K = N/2 + 1
        real-FFT modes: interior modes count twice (for their conjugates)
        and the Nyquist mode once, as a pure cosine.  The mode numbers are
        integers, so the sum factors exactly: with theta = 2 pi (x + L/2) / L,
        B = ceil(sqrt(K)) and k = k1*B + k0, sum_k c_k e^{ik theta} equals
        sum_k1 e^{i k1 B theta} sum_k0 c_{k1 B + k0} e^{i k0 theta}.
        M points cost M*(B + ceil(K/B)) complex exponentials, one
        (M x B)(B x ceil(K/B)) matrix product and a row-wise dot, where the
        direct sum costs M*K exponentials.  The zero-padded B x ceil(K/B)
        coefficient block is built on the first call and cached, as ``hat``
        is: fields do not change.
        """
        if self.grid.dim != 1:
            raise NotImplementedError("off-grid evaluation only supported in 1D")
        points = np.atleast_1d(np.asarray(points, dtype=float))
        L = self.grid.length[0]
        if self._modes is None:
            coef = self.hat * self.grid.parseval_weights / self.grid.nodes[0]
            width = math.isqrt(coef.size - 1) + 1  # ceil(sqrt(K))
            padded = np.pad(coef, (0, -coef.size % width))
            self._modes = padded.reshape(-1, width).T  # [k0, k1] = c_{k1 B + k0}
        width, rows = self._modes.shape
        dxi = 2.0 * np.pi / L
        fine = dxi * np.arange(width)
        coarse = dxi * (width * np.arange(rows))
        out = np.empty(points.size)
        for start in range(0, points.size, 1024):  # cap the phase-matrix sizes
            shifted = points[start : start + 1024, None] + 0.5 * L
            inner = np.exp(1j * (shifted * fine)) @ self._modes
            outer = np.exp(1j * (shifted * coarse))
            out[start : start + 1024] = np.einsum("mr,mr->m", outer, inner).real
        return out

    def upsample(self, nodes: int) -> "SpectralField":
        """The trigonometric interpolant sampled on ``nodes`` points per period.

        Zero-pads the real-FFT spectrum, so the values agree with
        ``evaluate`` at the finer nodes.  The Nyquist coefficient is halved
        because the finer grid splits that cosine between modes +-N/2.
        """
        if self.grid.dim != 1:
            raise NotImplementedError("upsampling only supported in 1D")
        n = self.grid.nodes[0]
        if nodes < n:
            raise ValueError(f"cannot upsample {n} nodes to {nodes}")
        padded = np.zeros(nodes // 2 + 1, dtype=complex)
        padded[: n // 2 + 1] = self.hat
        if nodes > n:
            padded[n // 2] *= 0.5
        fine = np.fft.irfft(padded, nodes) * (nodes / n)
        return SpectralField(Grid(self.grid.length[0], nodes), fine)

    def same_grid(self, other: "SpectralField") -> bool:
        return self.grid == other.grid

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.values.copy())


def derivative(f: SpectralField, axis: int = 0, order: int = 1) -> SpectralField:
    """Spectral derivative (i xi)^order along ``axis``.

    The Nyquist mode is zeroed for odd orders (real-output convention).
    Orders above 4 are outside the supported range.
    """
    grid = f.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if not 1 <= order <= 4:
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    if order % 2 == 1:
        factor = grid.ik[axis] ** order
    else:
        factor = (-grid.wavenumber_mesh()[axis] ** 2) ** (order // 2)
    return SpectralField.from_hat(grid, factor * f.hat)

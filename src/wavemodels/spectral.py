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

from .errors import GridMismatchError

__all__ = ["Grid", "SpectralField", "derivative", "evaluate_fields", "spectral_tail",
           "translate_fields"]


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
                raise ValueError(f"grid length must be positive and finite, got {L}")
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
        return math.prod(self.spacing)


class SpectralField:
    """Real field sampled on a periodic grid, with a Fourier-coefficient view.

    ``values`` is the physical-space array; ``hat`` returns its (cached)
    ``rfftn`` on the layout of the grid symbols, and ``from_hat`` inverts
    it; a ``derivative`` keeps the spectrum it was built from, in 1D with
    its Nyquist sine.  Every operation returns a new field; nothing mutates.
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
        """Band-limited evaluation at arbitrary 1D coordinates: the one-field
        case of ``evaluate_fields``, with the same values bit for bit."""
        return evaluate_fields(points, self)[0]

    def _mode_block(self) -> tuple:
        """(coefficient block, fine rates, coarse rates) of the mode sum of
        ``evaluate_fields``, built on the first call and cached, as ``hat``
        is: fields do not change.  Interior modes count twice (for their
        conjugates) and the Nyquist mode c once, as Re(c e^{iK theta})."""
        if self._modes is None:
            coef = self.hat * self.grid.parseval_weights / self.grid.nodes[0]
            width = math.isqrt(coef.size - 1) + 1  # ceil(sqrt(K))
            padded = np.pad(coef, (0, -coef.size % width))
            block = padded.reshape(-1, width).T  # [k0, k1] = c_{k1 B + k0}
            dxi = 2.0 * np.pi / self.grid.length[0]
            self._modes = (block, dxi * np.arange(width),
                           dxi * (width * np.arange(block.shape[1])))
        return self._modes

    def same_grid(self, other: "SpectralField") -> bool:
        return self.grid == other.grid

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.values.copy())


def derivative(f: SpectralField, axis: int = 0, order: int = 1) -> SpectralField:
    """Spectral derivative (i xi)^order along ``axis``, with that spectrum as
    its ``hat``.  Orders above 4 are outside the supported range.

    In 1D it is the derivative of the interpolant ``evaluate_fields`` sums:
    the Nyquist cosine keeps its slope, a sine that vanishes at the nodes
    (``irfft`` reads only the real part of its bin).  In 2D odd orders zero
    each axis's Nyquist mode, as ``Grid.ik`` does.
    """
    grid = f.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if not 1 <= order <= 4:
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    if order % 2 == 0:
        factor = (-grid.wavenumber_mesh()[axis] ** 2) ** (order // 2)
    elif grid.dim == 1:
        factor = (1j * grid.wavenumbers(0)) ** order
    else:
        factor = grid.ik[axis] ** order
    hat = _read_only(factor * f.hat)
    out = SpectralField.from_hat(grid, hat)
    out._hat = hat
    return out


def spectral_tail(f: SpectralField) -> float:
    """max |f-hat| over the top third of a 1D field's real-FFT modes, over max |f-hat|.

    A resolution check: near round-off for a field the grid resolves,
    order one for one it cannot carry.  0 for the zero field.
    """
    coef = np.abs(f.hat)
    peak = float(np.max(coef))
    return float(np.max(coef[coef.size - coef.size // 3 :])) / peak if peak != 0.0 else 0.0


def evaluate_fields(points, *fields: SpectralField) -> np.ndarray:
    """Trigonometric interpolants of 1D fields on one grid, at arbitrary
    coordinates: row i of the (len(fields), M) result holds field i.

    Each is the real part of a sum over the K = N/2 + 1 modes of its ``hat``.
    The mode numbers are integers, so the sum factors exactly: with
    theta = 2 pi (x + L/2) / L, B = ceil(sqrt(K)) and k = k1*B + k0,
    sum_k c_k e^{ik theta} equals sum_k1 e^{i k1 B theta}
    sum_k0 c_{k1 B + k0} e^{i k0 theta}, over a zero-padded B x ceil(K/B)
    coefficient block [k0, k1].  M points cost M*(B + ceil(K/B)) complex
    exponentials, shared by every field, and per field one
    (M x B)(B x ceil(K/B)) matrix product and a row-wise dot, where the
    direct sum costs M*K exponentials per field.  Each field's product has
    the shape it has alone, so its values do not depend on the other fields.
    A point 4L or more out of [-L/2, L/2) is wrapped.
    """
    grid = fields[0].grid
    if grid.dim != 1:
        raise NotImplementedError("off-grid evaluation only supported in 1D")
    if not all(f.same_grid(fields[0]) for f in fields):
        raise GridMismatchError("fields evaluated together must share one grid")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    shifted = points + 0.5 * grid.length[0]
    far = np.abs(points) >= 4.5 * grid.length[0]  # a phase there may overflow
    shifted[far] = np.remainder(shifted[far], grid.length[0])
    blocks = [f._mode_block() for f in fields]
    _, fine, coarse = blocks[0]
    out = np.empty((len(fields), points.size))
    for start in range(0, points.size, 1024):  # cap the phase-matrix sizes
        block = shifted[start : start + 1024, None]
        fine_phase = np.exp(1j * (block * fine))
        coarse_phase = np.exp(1j * (block * coarse))
        for row, (modes, _, _) in zip(out, blocks):
            row[start : start + 1024] = np.einsum("mr,mr->m", coarse_phase,
                                                  fine_phase @ modes).real
    return out


def translate_fields(shift: float, *fields: SpectralField) -> np.ndarray:
    """Row i of the (len(fields), N) result holds f_i(x_j - shift) at the nodes of the
    fields' one 1D grid, from one batched inverse real FFT of f-hat e^{-i k shift}.  That
    keeps the real part of the Nyquist bin: the mode is the Re(c e^{iK theta}) that
    ``evaluate_fields`` sums, a derivative's Nyquist sine included."""
    grid = fields[0].grid
    if grid.dim != 1:
        raise ValueError(f"translated fields must live on a 1D grid, got dim {grid.dim}")
    if not all(f.same_grid(fields[0]) for f in fields):
        raise GridMismatchError("translated fields must share one 1D grid")
    # whole periods drop out exactly, so no phase k*shift exceeds pi N/2
    shift = math.remainder(shift, grid.length[0])
    hats = np.stack([f.hat for f in fields])
    return np.fft.irfft(hats * np.exp(-1j * grid.wavenumbers(0) * shift), n=grid.nodes[0])

"""Physical constants of the water column."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalParams:
    """Gravity and still-water depth, with the derived long-wave speed.

    g H must be positive and finite, so that c0 = sqrt(g H) is too.

    Parameters
    ----------
    g : float
        Gravity acceleration [m s^-2], strictly positive.
    H : float
        Still-water depth [m], strictly positive.
    """

    g: float = 9.81
    H: float = 1.0

    def __post_init__(self):
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ValueError(f"gravity must be positive, got {self.g}")
        if not (self.H > 0.0 and math.isfinite(self.H)):
            raise ValueError(f"depth must be positive, got {self.H}")
        if not 0.0 < self.g * self.H < math.inf:
            raise ValueError(f"g H must be positive and finite, got {self.g * self.H}")

    @property
    def c0(self) -> float:
        """Long-wave speed sqrt(g H) [m s^-1]."""
        return math.sqrt(self.g * self.H)

"""Exception types shared across the solver modules.

Every class derives from WavemodelsError, so a caller can catch all of the
library's errors at once, and also from ValueError or RuntimeError, so
handlers written for those still apply.
"""


class WavemodelsError(Exception):
    """Base class of every error the library raises on purpose."""


class GridMismatchError(WavemodelsError, ValueError):
    """Two fields that must share a grid do not."""


class CavitationError(WavemodelsError, RuntimeError):
    """A given state, such as initial data, has no positive depth H + zeta;
    a run whose depth reaches zero returns a ``cavitation`` halt instead."""


class BreakingError(WavemodelsError, RuntimeError):
    """A wavebreaking time was reached (characteristics cross)."""


class SingularSymbolError(WavemodelsError, ValueError):
    """A dispersion-relation denominator vanishes at a real wavenumber."""


class IllPosedError(WavemodelsError, ValueError):
    """Model parameters fail the linear well-posedness screen."""


class ResonanceError(WavemodelsError, RuntimeError):
    """The traveling-wave linear symbol is singular at a grid wavenumber."""


class UnresolvedWaveError(WavemodelsError, ValueError):
    """A traveling-wave profile's spectral tail shows the grid cannot carry it."""


class ConvergenceError(WavemodelsError, RuntimeError):
    """An iterative solver failed to converge.

    ``history`` holds per-iteration diagnostics (e.g. the Petviashvili
    normalization factors) for post-mortem inspection.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class StepSizeUnderflowError(WavemodelsError, RuntimeError):
    """Time-step refinement hit the minimum step without meeting tolerance."""

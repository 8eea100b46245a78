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
    """The water column depth H + zeta reached zero: hyperbolicity is lost.

    Carries ``partial_trajectory`` when raised mid-run so callers can
    inspect the states computed before the halt.
    """

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory


class BreakingError(WavemodelsError, RuntimeError):
    """A wavebreaking time was reached (characteristics cross)."""


class RiemannOrderingError(WavemodelsError, ValueError):
    """r_plus <= r_minus at some node: no water state corresponds."""


class SingularSymbolError(WavemodelsError, ValueError):
    """A dispersion-relation denominator vanishes at a real wavenumber."""


class IllPosedError(WavemodelsError, ValueError):
    """Model parameters fail the linear well-posedness screen."""


class ResonanceError(WavemodelsError, RuntimeError):
    """The traveling-wave linear symbol is singular at a grid wavenumber."""


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

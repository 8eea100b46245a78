"""Numerical library for the shallow-water wave-model hierarchy.

Exact linear propagators, hyperbolic and dispersive time steppers,
traveling-wave solvers, and dispersion analysis on periodic domains,
plus a CLI for reproducible desk-scale experiments.
"""

from .dispersive import (
    AbcdParams,
    BoussinesqState,
    ScalarWaveState,
    WellPosednessVerdict,
    abcd_evolve,
    abcd_linear_evolve,
    abcd_symbol,
    classify_abcd,
    scalar_evolve,
)
from .errors import (
    BreakingError,
    CavitationError,
    ConvergenceError,
    GridMismatchError,
    IllPosedError,
    ResonanceError,
    SingularSymbolError,
    StepSizeUnderflowError,
    UnresolvedWaveError,
    WavemodelsError,
)
from .hyperbolic import (
    RiemannPair,
    SVState,
    breaking_time,
    hopf_characteristic_solve,
    hopf_evolve,
    simple_wave_elevation,
    simple_wave_velocity,
    sv_evolve,
    to_riemann,
)
from .linear import (
    AiryState,
    RayAsymptotics,
    acoustic_evolve,
    airy_evolve,
    airy_propagator,
    airy_quadratic_energy,
    group_velocity,
    omega,
    omega_double_prime,
    omega_prime,
    phase_velocity,
    ray_asymptotics,
    sample_ray_envelope,
)
from .physics import PhysicalParams
from .spectral import Grid, SpectralField, derivative
from .stepping import DtControl, HaltEvent, Trajectory
from .traveling import (
    ContinuationResult,
    TravelingWaveSolution,
    boussinesq_solitary_solve,
    boussinesq_steady_residual,
    kdv_soliton,
    kdv_steady_residual,
    petviashvili_continuation,
    petviashvili_solve,
    suggested_domain_length,
    whitham_steady_residual,
)

__version__ = "0.1.0"

"""Tests for the one RK4 driver shared by every evolution model."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from wavemodels import (
    AbcdParams,
    BoussinesqState,
    CavitationError,
    DtControl,
    Grid,
    HaltEvent,
    PhysicalParams,
    ScalarWaveState,
    SpectralField,
    SVState,
    abcd_evolve,
    abcd_linear_evolve,
    phase_velocity,
    scalar_evolve,
    sv_evolve,
)
from wavemodels.dispersive import _abcd_symbols
from wavemodels.stepping import integrate, integrate_pair, intervals

LAMBDAS = np.array([-1.0, -0.5 + 2.0j, 3.0j, 0.3, -2.5 - 0.4j])


class Kept(NamedTuple):
    """A stored state of the bare-array runs: its time and a copy of y."""

    time: float
    y: np.ndarray


def keep(y, t):
    return Kept(t, y.copy())


def test_explicit_step_is_the_rk4_stability_polynomial():
    h = 0.7
    y0 = np.ones_like(LAMBDAS)
    traj = integrate(y0, keep(y0, 0.0), [0.0, h], lambda y: h, lambda y: LAMBDAS * y, keep,
                     np.zeros_like(y0))
    z = LAMBDAS * h
    expect = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    assert len(traj) == 2 and traj.halt is None
    assert np.max(np.abs(traj.final_state[1] - expect)) < 1e-14


def test_factor_with_zero_nonlinearity_propagates_exactly():
    y0 = np.array([1.0, 0.5 - 0.25j, -2.0, 0.1j, 3.0])
    times = [0.0, 0.9, 1.8, 2.7]
    traj = integrate(y0, keep(y0, 5.0), times, lambda y: 0.1, np.zeros_like, keep, factor=LAMBDAS)
    for (t, y), t_out in zip(traj.states, times):
        assert t == pytest.approx(5.0 + t_out, abs=1e-14)
        exact = y0 * np.exp(LAMBDAS * t_out)
        assert np.max(np.abs(y - exact)) < 1e-14 * np.max(np.abs(exact))


def test_non_finite_state_halts_and_is_not_kept():
    # y' = y^2 from y(0) = 1 blows up at t = 1; at h = 0.5 RK4 overflows
    # only in the third interval
    y0 = np.array([1.0])
    traj = integrate(y0, keep(y0, 0.0), [0.0, 0.5, 1.5, 2.5, 3.5], lambda y: 0.5,
                     lambda y: y * y, keep, np.zeros_like(y0))
    assert traj.halt is not None and traj.halt.reason == "non_finite"
    assert traj.halt.time == pytest.approx(2.5)
    assert [t for t, _ in traj.states] == pytest.approx([0.0, 0.5, 1.5])
    assert all(np.all(np.isfinite(y)) for _, y in traj.states)


def test_halt_from_check_keeps_the_halting_state():
    def check(y, t):
        return HaltEvent("breaking", t, 0.0, float(y[0])) if y[0] > 2.0 else None

    y0 = np.array([1.0])
    traj = integrate(y0, keep(y0, 0.0), [0.0, 1.0, 2.0], lambda y: 0.1,
                     lambda y: y, keep, np.zeros_like(y0), check=check)
    assert traj.halt.reason == "breaking"
    t_halt, y_halt = traj.final_state
    assert t_halt == traj.halt.time and y_halt[0] > 2.0
    assert 0.6 < t_halt < 0.8  # e^t passes 2 at t = ln 2


def test_cavitation_check_halts_without_keeping_its_state():
    def check(y, t):
        return HaltEvent("cavitation", t, 0.0, 0.0) if y[0] < 0.5 else None

    y0 = np.array([1.0])
    traj = integrate(y0, keep(y0, 0.0), [0.0, 0.5, 1.0], lambda y: 0.05,
                     lambda y: -y, keep, np.zeros_like(y0), check=check)
    assert [t for t, _ in traj.states] == pytest.approx([0.0, 0.5])
    assert traj.halt.reason == "cavitation"
    assert traj.halt.time == pytest.approx(np.log(2.0), abs=0.05)


def test_cavitation_in_a_stage_records_the_step_start():
    def rhs(y):
        if y[0] < 0.5:
            raise CavitationError("depth H + zeta reached zero")
        return -y

    y0 = np.array([1.0])
    traj = integrate(y0, keep(y0, 2.0), [0.0, 0.5, 1.0], lambda y: 0.05, rhs, keep,
                     np.zeros_like(y0))
    assert traj.halt.reason == "cavitation"
    assert 2.5 - 1e-12 < traj.halt.time < 2.0 + np.log(2.0)
    assert traj.final_state[0] == pytest.approx(2.5)


def test_intervals_yield_one_trajectory_per_interval_and_stop_at_a_halt():
    # the y' = y^2 blow-up above: one yield for the initial state, one per
    # interval, and none after the interval that halts
    y0 = np.array([1.0])
    run = intervals(y0, keep(y0, 0.0), [0.0, 0.5, 1.5, 2.5, 3.5], lambda y: 0.5,
                    lambda y: y * y, keep, np.zeros_like(y0))
    seen = [(len(traj), traj.halt) for traj in run]
    assert seen[:3] == [(1, None), (2, None), (3, None)]
    assert len(seen) == 4 and seen[3][0] == 3 and seen[3][1].reason == "non_finite"


def test_a_suspended_run_holds_no_errstate_of_its_own():
    y0 = np.array([1.0])
    run = intervals(y0, keep(y0, 0.0), [0.0, 0.5, 1.0], lambda y: 0.1, lambda y: -y, keep,
                    np.zeros_like(y0))
    with np.errstate(all="raise"):
        for traj in run:
            assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    assert len(traj) == 3 and traj.halt is None


# The steppers work on the real-FFT half spectrum.  The references below
# redo one pinned-dt output interval on the full complex spectrum with
# np.fft.fft/ifft, their own symbols and their own integrating-factor RK4 loop.

P = PhysicalParams()
N = 64
GRID = Grid(64.0, N)
DT, T_END = 0.05, 0.2  # one output interval of four steps
GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)
fft, ifft = np.fft.fft, np.fft.ifft
K = 2.0 * np.pi * np.fft.fftfreq(N, d=GRID.spacing[0])
IK = np.where(np.arange(N) == N // 2, 0.0, 1j * K)  # odd derivatives drop the Nyquist mode
K2 = K * K
MASK = np.abs(np.fft.fftfreq(N, d=1.0 / N)) <= N // 3


def every_mode(seed, amplitude):
    """Real samples with energy in every mode, the Nyquist mode included."""
    rng = np.random.default_rng(seed)
    coef = (0.5 + 0.5 * rng.random(N // 2 + 1)) * np.exp(2j * np.pi * rng.random(N // 2 + 1))
    coef[[0, -1]] = np.abs(coef[[0, -1]])  # irfft keeps only their real parts
    values = np.fft.irfft(coef, N)
    assert np.min(np.abs(np.fft.rfft(values))) > 0.1 * np.max(np.abs(np.fft.rfft(values)))
    return amplitude * values / np.max(np.abs(values))


def rk4_reference(y, rhs, lin=0.0):
    """Integrating-factor RK4 over T_END in steps DT; classical RK4 when lin = 0."""
    steps = round(T_END / DT)
    h = T_END / steps
    e_half = np.exp(0.5 * h * lin)
    e = e_half * e_half
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(e_half * (y + 0.5 * h * k1))
        k3 = rhs(e_half * y + 0.5 * h * k2)
        k4 = rhs(e * y + h * e_half * k3)
        y = e * y + (h / 6.0) * (e * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return y


def pair_reference(z0, u0, params):
    """IF-RK4 of the abcd system (Saint-Venant for params None) in w+- = zhat +- s uhat."""
    mu2 = P.H**2 * K2
    if params is None:
        alpha, beta, inv_b, inv_d = P.H, P.g, 1.0, 1.0
    else:
        inv_b, inv_d = 1.0 / (1.0 + params.b * mu2), 1.0 / (1.0 + params.d * mu2)
        alpha = P.H * (1.0 - params.a * mu2) * inv_b
        beta = P.g * (1.0 - params.c * mu2) * inv_d
    s = np.sqrt(alpha / beta)
    lin = IK * s * beta

    def physical(w):
        u_hat = (w[0] - w[1]) / (2.0 * s)
        return ifft((w[0] + w[1]) / 2.0).real, ifft(u_hat).real, ifft(IK * u_hat).real

    def rhs(w):
        z, u, ux = physical(w)
        nz = -IK * inv_b * MASK * fft(z * u)
        nu = -inv_d * MASK * fft(u * ux)
        return np.stack([nz + s * nu, nz - s * nu])

    w0 = np.stack([fft(z0) + s * fft(u0), fft(z0) - s * fft(u0)])
    return np.stack(physical(rk4_reference(w0, rhs, np.stack([-lin, lin])))[:2])


def scalar_lin(model):
    if model == "kdv":
        return -P.c0 * IK * (1.0 - P.H**2 * K2 / 6.0)
    return -IK * phase_velocity(np.sqrt(K2), P)


def scalar_rhs(model):
    def rhs(zhat):
        z = ifft(zhat).real
        if model == "whitham2":
            coeff = 3.0 * np.sqrt(P.g * (P.H + z)) - 3.0 * math.sqrt(P.g * P.H)
            return -(MASK * fft(coeff * ifft(IK * zhat).real))
        return -(3.0 * P.c0 / (4.0 * P.H)) * IK * MASK * fft(z * z)
    return rhs


def assert_close(got, want):
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("model", ["saint_venant", "boussinesq"])
def test_system_steppers_match_full_spectrum_rk4(model):
    z0, u0 = every_mode(1, 0.05), every_mode(2, 0.05)
    state = (SVState if model == "saint_venant" else BoussinesqState)(
        SpectralField(GRID, z0), SpectralField(GRID, u0))
    if model == "saint_venant":
        traj = sv_evolve(state, P, T_END, DtControl(dt=DT), n_out=1)
        want = pair_reference(z0, u0, None)
    else:
        traj = abcd_evolve(state, GOOD, P, T_END, DtControl(dt=DT), n_out=1)
        want = pair_reference(z0, u0, GOOD)
    assert traj.halt is None and len(traj) == 2
    got = np.stack([traj.final_state.zeta.values, traj.final_state.u.values])
    assert_close(got, want)


@pytest.mark.parametrize("model", ["kdv", "whitham", "whitham2"])
def test_scalar_steppers_match_full_spectrum_if_rk4(model):
    z0 = every_mode(3, 0.05)
    state = ScalarWaveState(SpectralField(GRID, z0), 0.0, model)
    traj = scalar_evolve(state, P, T_END, DtControl(dt=DT), n_out=1)
    want = ifft(rk4_reference(fft(z0), scalar_rhs(model), scalar_lin(model))).real
    assert traj.halt is None and len(traj) == 2
    assert_close(traj.final_state.zeta.values, want)


# a = c: alpha and beta vanish together at H k = 4, a mode of any grid on 2 pi m
SIXTEENTH = AbcdParams(1.0 / 16.0, 5.0 / 48.0, 1.0 / 16.0, 5.0 / 48.0)
TWELFTH = AbcdParams(1.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0)


@pytest.mark.parametrize("params", [GOOD, TWELFTH, SIXTEENTH])
@pytest.mark.parametrize("ctrl", [DtControl(cfl=1.0), DtControl(dt=0.01)])
def test_pair_stepper_without_nonlinearity_is_the_linear_flow(params, ctrl):
    grid = Grid(2.0 * np.pi, N)
    assert np.any(1.0 - SIXTEENTH.a * (P.H * grid.wavenumbers(0)) ** 2 == 0.0)
    state = BoussinesqState(SpectralField(grid, every_mode(4, 0.05)),
                            SpectralField(grid, every_mode(5, 0.05)))
    _, beta, s, _, _ = _abcd_symbols(grid.wavenumbers(0), params, P)
    # zero elliptic inverses switch the quadratic terms off
    traj = integrate_pair(state, P.H, 1.4, 2, ctrl, lambda z, u: P.c0, s * beta, s, 0.0, 0.0)
    assert len(traj) == 3 and traj.halt is None
    for got in traj.states:
        exact = abcd_linear_evolve(state, params, P, got.time)
        assert np.max(np.abs(got.zeta.values - exact.zeta.values)) < 1e-14
        assert np.max(np.abs(got.u.values - exact.u.values)) < 1e-14


@pytest.mark.parametrize("params", [TWELFTH, SIXTEENTH])
def test_equal_a_c_system_follows_the_linear_flow_at_small_amplitude(params):
    grid = Grid(32.0 * np.pi, 512)
    assert np.any(1.0 - SIXTEENTH.a * (P.H * grid.wavenumbers(0)) ** 2 == 0.0)
    eps = 1e-5
    z0 = SpectralField.from_function(grid, lambda x: eps * np.exp(-0.5 * x**2))
    state = BoussinesqState(z0, SpectralField.zeros(grid))
    traj = abcd_evolve(state, params, P, 5.0, n_out=2)
    final = np.stack([traj.final_state.zeta.values, traj.final_state.u.values])
    linear = abcd_linear_evolve(state, params, P, 5.0)
    assert traj.halt is None and np.all(np.isfinite(final))
    gap = np.max(np.abs(final - np.stack([linear.zeta.values, linear.u.values])))
    assert gap < 1e-4 * eps

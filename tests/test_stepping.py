"""Tests for the one RK4 driver shared by every evolution model."""

import numpy as np
import pytest

from wavemodels import CavitationError, HaltEvent
from wavemodels.stepping import integrate

LAMBDAS = np.array([-1.0, -0.5 + 2.0j, 3.0j, 0.3, -2.5 - 0.4j])


def keep(y, t):
    return (t, y.copy())


def test_explicit_step_is_the_rk4_stability_polynomial():
    h = 0.7
    traj = integrate(np.ones_like(LAMBDAS), 0.0, [0.0, h], lambda y: h,
                     lambda y: LAMBDAS * y, keep)
    z = LAMBDAS * h
    expect = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    assert len(traj) == 2 and traj.halt is None
    assert np.max(np.abs(traj.final_state[1] - expect)) < 1e-14


def test_factor_with_zero_nonlinearity_propagates_exactly():
    y0 = np.array([1.0, 0.5 - 0.25j, -2.0, 0.1j, 3.0])
    times = [0.0, 0.9, 1.8, 2.7]
    traj = integrate(y0, 5.0, times, lambda y: 0.1, np.zeros_like, keep, factor=LAMBDAS)
    for (t, y), t_out in zip(traj.states, times):
        assert t == pytest.approx(5.0 + t_out, abs=1e-14)
        exact = y0 * np.exp(LAMBDAS * t_out)
        assert np.max(np.abs(y - exact)) < 1e-14 * np.max(np.abs(exact))


def test_non_finite_state_halts_and_is_not_kept():
    # y' = y^2 from y(0) = 1 blows up at t = 1; at h = 0.5 RK4 overflows
    # only in the third interval
    traj = integrate(np.array([1.0]), 0.0, [0.0, 0.5, 1.5, 2.5, 3.5], lambda y: 0.5,
                     lambda y: y * y, keep)
    assert traj.halt is not None and traj.halt.reason == "non_finite"
    assert traj.halt.time == pytest.approx(2.5)
    assert [t for t, _ in traj.states] == pytest.approx([0.0, 0.5, 1.5])
    assert all(np.all(np.isfinite(y)) for _, y in traj.states)


def test_halt_from_check_keeps_the_halting_state():
    def check(y, t):
        return HaltEvent("breaking", t, 0.0, float(y[0])) if y[0] > 2.0 else None

    traj = integrate(np.array([1.0]), 0.0, [0.0, 1.0, 2.0], lambda y: 0.1,
                     lambda y: y, keep, check=check)
    assert traj.halt.reason == "breaking"
    t_halt, y_halt = traj.final_state
    assert t_halt == traj.halt.time and y_halt[0] > 2.0
    assert 0.6 < t_halt < 0.8  # e^t passes 2 at t = ln 2


def test_cavitation_check_raises_with_partial_trajectory():
    def check(y, t):
        return HaltEvent("cavitation", t, 0.0, 0.0) if y[0] < 0.5 else None

    with pytest.raises(CavitationError, match="cavitation at t") as info:
        integrate(np.array([1.0]), 0.0, [0.0, 0.5, 1.0], lambda y: 0.05,
                  lambda y: -y, keep, check=check)
    traj = info.value.partial_trajectory
    assert [t for t, _ in traj.states] == pytest.approx([0.0, 0.5])
    assert traj.halt.reason == "cavitation"
    assert traj.halt.time == pytest.approx(np.log(2.0), abs=0.05)


def test_cavitation_in_a_stage_records_the_step_start():
    def rhs(y):
        if y[0] < 0.5:
            raise CavitationError("depth H + zeta reached zero")
        return -y

    with pytest.raises(CavitationError) as info:
        integrate(np.array([1.0]), 2.0, [0.0, 0.5, 1.0], lambda y: 0.05, rhs, keep)
    traj = info.value.partial_trajectory
    assert traj.halt.reason == "cavitation"
    assert 2.5 - 1e-12 < traj.halt.time < 2.0 + np.log(2.0)
    assert traj.final_state[0] == pytest.approx(2.5)

"""Tests for the dispersive model family and its well-posedness screen."""

import math

import numpy as np
import pytest
from scipy.signal import argrelmax

from wavemodels import (
    AbcdParams,
    BoussinesqState,
    CavitationError,
    DtControl,
    Grid,
    HaltEvent,
    IllPosedError,
    PhysicalParams,
    ScalarWaveState,
    SingularSymbolError,
    SpectralField,
    StepSizeUnderflowError,
    SVState,
    Trajectory,
    abcd_evolve,
    abcd_linear_evolve,
    abcd_symbol,
    boussinesq_solitary_solve,
    classify_abcd,
    scalar_evolve,
)
from wavemodels import dispersive, stepping
from wavemodels.dispersive import require_well_posed
from wavemodels.scenarios import Scenario, ScenarioError

P = PhysicalParams(9.81, 1.0)

GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)
BAD = AbcdParams(1.0 / 3.0, 0.0, 0.0, 0.0)
ALT = AbcdParams(0.0, 1.0 / 6.0, 0.0, 1.0 / 6.0)


def test_boussinesq_state_is_the_saint_venant_state():
    assert BoussinesqState is SVState


class TestAbcdParams:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError, match="1/3"):
            AbcdParams(0.1, 0.1, 0.1, 0.1)

    def test_constraint_tolerance(self):
        AbcdParams(1.0 / 3.0 - 1e-13, 0.0, 0.0, 1e-13)  # within 1e-12


class TestAbcdSymbol:
    def test_zero_mode(self):
        assert abcd_symbol(0.0, GOOD, P) == 0.0

    def test_reference_value(self):
        # gH (1 - a)(1 - c) / ((1 + b)(1 + d)) at k = H = 1:
        # 9.81 * (4/3) / ((4/3)(4/3)) = 9.81 * 3/4 = 7.3575
        assert abcd_symbol(1.0, GOOD, P) == pytest.approx(7.3575, abs=1e-12)

    def test_negative_value_for_bad_parameters(self):
        # 9.81 * 4 * (1 - 4/3) = -13.08 at k = 2
        assert abcd_symbol(2.0, BAD, P) == pytest.approx(-13.08, abs=1e-12)

    def test_singular_denominator(self):
        # 1 + b (Hk)^2 vanishes exactly at k = 2 for b = -1/4
        params = AbcdParams(0.25, -0.25, 0.0, 1.0 / 3.0)
        with pytest.raises(SingularSymbolError):
            abcd_symbol(2.0, params, P)


class TestClassify:
    def test_reference_system_well_posed(self):
        assert classify_abcd(GOOD, P).verdict == "well_posed"

    def test_single_positive_a_ill_posed_with_witness_near_sqrt3(self):
        verdict = classify_abcd(BAD, P)
        assert verdict.verdict == "ill_posed"
        assert verdict.witness_wavenumber == pytest.approx(math.sqrt(3.0), rel=0.05)
        assert abcd_symbol(verdict.witness_wavenumber, BAD, P) < 0.0
        assert verdict.omega_squared_min < 0.0

    def test_symmetric_sixth_system_well_posed(self):
        assert classify_abcd(ALT, P).verdict == "well_posed"

    def test_negative_b_is_singular_hence_ill_posed(self):
        params = AbcdParams(1.0 / 6.0, -1.0 / 6.0, 0.0, 1.0 / 3.0)
        verdict = classify_abcd(params, P)
        assert verdict.verdict == "ill_posed"

    def test_sign_change_beyond_scan_range(self):
        # a tiny positive a pushes the sign change past the default grid
        eps = 1e-8
        params = AbcdParams(eps, 1.0 / 3.0 - eps, 0.0, 0.0)
        verdict = classify_abcd(params, P)
        assert verdict.verdict == "ill_posed"
        assert verdict.witness_wavenumber > 1e3
        assert abcd_symbol(verdict.witness_wavenumber, params, P) < 0.0

    @pytest.mark.parametrize(
        "params",
        [
            # the band starts at mu = 1e50, far past the scan
            AbcdParams(1e-100, 0.3333333333333333, 0.0, 0.0),
            # the band mu in (3.1607, 3.1623) is narrower than a scan step
            AbcdParams(0.1, 0.06661666666666667, 0.1001, 0.06661666666666667),
        ],
        ids=["far_band", "narrow_band"],
    )
    def test_band_missed_by_scan_ill_posed(self, params):
        verdict = classify_abcd(params, P)
        assert verdict.verdict == "ill_posed"
        assert abcd_symbol(verdict.witness_wavenumber, params, P) < 0.0
        assert verdict.omega_squared_min < 0.0

    def test_equal_a_and_c_well_posed(self):
        # (1 - a mu^2)^2 >= 0: omega^2 never turns negative
        params = AbcdParams(1.0 / 8.0, 1.0 / 24.0, 1.0 / 8.0, 1.0 / 24.0)
        verdict = classify_abcd(params, P)
        assert verdict.verdict == "well_posed"
        assert verdict.witness_wavenumber is None


class TestAbcdEvolve:
    def test_rest_state_is_equilibrium(self):
        g = Grid(50.0, 128)
        state = BoussinesqState(SpectralField.zeros(g), SpectralField.zeros(g))
        traj = abcd_evolve(state, GOOD, P, 1.0, n_out=2)
        assert np.max(np.abs(traj.final_state.zeta.values)) < 1e-14

    def test_mass_conserved_exactly(self):
        g = Grid(200.0, 512)
        z0 = SpectralField.from_function(g, lambda x: 0.1 * np.exp(-0.1 * x**2))
        traj = abcd_evolve(BoussinesqState(z0, SpectralField.zeros(g)), GOOD, P, 4.0, n_out=4)
        dx = g.spacing[0]
        mass0 = np.sum(traj.states[0].zeta.values) * dx
        for s in traj.states:
            assert abs(np.sum(s.zeta.values) * dx - mass0) <= 1e-12 * max(abs(mass0), 1.0)

    def test_gaussian_disintegrates_and_amplitude_drops(self):
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.25 * np.exp(-0.1 * x**2))
        traj = abcd_evolve(BoussinesqState(z0, SpectralField.zeros(g)), GOOD, P, 10.0, n_out=5)
        final = traj.final_state.zeta
        assert np.max(np.abs(final.values)) < 0.25
        # counter-propagating wave trains: energy on both sides of the origin
        x = g.axis_coordinates(0)
        left = np.sum(final.values[x < -5.0] ** 2)
        right = np.sum(final.values[x > 5.0] ** 2)
        assert left > 0.1 * right and right > 0.1 * left

    def test_ill_posed_parameters_rejected(self):
        g = Grid(50.0, 128)
        state = BoussinesqState(SpectralField.zeros(g), SpectralField.zeros(g))
        with pytest.raises(IllPosedError):
            abcd_evolve(state, BAD, P, 1.0)

    @pytest.mark.parametrize(
        "params", [AbcdParams(0.1, -0.1, 0.0, 1.0 / 3.0), BAD], ids=["negative_b", "witness"]
    )
    def test_every_caller_raises_the_gate_message(self, params):
        # (0.1, -0.1, 0, 1/3): 1 - a mu^2 cancels 1 + b mu^2, so omega^2 is nowhere
        # negative and the message names b; BAD has a witness wavenumber
        witness = classify_abcd(params, P).witness_wavenumber
        reason = ("b = -0.1: a negative b or d makes the symbol singular" if witness is None
                  else f"omega^2 < 0 at k = {witness}")
        message = f"abcd parameters are ill-posed: {reason}"
        g = Grid(50.0, 128)
        state = BoussinesqState(SpectralField.zeros(g), SpectralField.zeros(g))
        for call in (lambda: require_well_posed(params, P),
                     lambda: abcd_evolve(state, params, P, 1.0),
                     lambda: abcd_linear_evolve(state, params, P, 1.0),
                     lambda: boussinesq_solitary_solve(params, 3.3, P, g)):
            with pytest.raises(IllPosedError) as err:
                call()
            assert str(err.value) == message
        with pytest.raises(ScenarioError) as err:
            Scenario(model="boussinesq", abcd=params)
        assert str(err.value) == message

    def test_cavitating_data_rejected(self):
        g = Grid(50.0, 128)
        z0 = SpectralField(g, np.full(g.shape, -2.0))
        with pytest.raises(CavitationError):
            abcd_evolve(BoussinesqState(z0, SpectralField.zeros(g)), GOOD, P, 1.0)

    def test_explicit_dt_must_respect_stability_bound(self):
        g = Grid(50.0, 128)
        z0 = SpectralField.from_function(g, lambda x: 0.01 * np.exp(-0.1 * x**2))
        state = BoussinesqState(z0, SpectralField.zeros(g))
        with pytest.raises(ValueError, match="stability"):
            abcd_evolve(state, GOOD, P, 1.0, DtControl(dt=1.0))

    def test_linear_propagator_matches_matrix_exponential(self):
        # independent oracle for the modal solution used by the consistency
        # probe: expm of [[0, -ik alpha], [-ik beta, 0]]
        from scipy.linalg import expm

        g = Grid(50.0, 64)
        z0 = SpectralField.from_function(g, lambda x: 1e-3 * np.exp(-0.2 * x**2))
        u0 = SpectralField.from_function(g, lambda x: 5e-4 * np.exp(-0.3 * x**2))
        state = BoussinesqState(z0, u0)
        t = 2.7
        out = abcd_linear_evolve(state, GOOD, P, t)
        kk = g.wavenumbers(0)
        zh, uh = z0.hat, u0.hat
        expect_z = np.empty_like(zh)
        expect_u = np.empty_like(uh)
        for i, k in enumerate(kk):
            mu2 = (P.H * k) ** 2
            alpha = P.H * (1 - GOOD.a * mu2) / (1 + GOOD.b * mu2)
            beta = P.g * (1 - GOOD.c * mu2) / (1 + GOOD.d * mu2)
            m = expm(np.array([[0.0, -1j * k * alpha], [-1j * k * beta, 0.0]]) * t)
            expect_z[i] = m[0, 0] * zh[i] + m[0, 1] * uh[i]
            expect_u[i] = m[1, 0] * zh[i] + m[1, 1] * uh[i]
        # the Nyquist mode follows the real-output convention (its odd-symbol
        # coupling is dropped), so compare away from it
        keep = np.arange(kk.size) != g.nodes[0] // 2
        assert np.max(np.abs(out.zeta.hat - expect_z)[keep]) < 1e-10 * np.max(np.abs(zh))
        assert np.max(np.abs(out.u.hat - expect_u)[keep]) < 1e-10 * np.max(np.abs(uh))

    def test_linearization_consistency(self):
        # halving the data amplitude cuts the gap to the exact linear flow
        # by at least 3.5x (quadratic remainder)
        g = Grid(200.0, 512)
        errs = []
        for eps in (1e-3, 5e-4):
            z0 = SpectralField.from_function(g, lambda x: eps * np.exp(-0.1 * x**2))
            state = BoussinesqState(z0, SpectralField.zeros(g))
            nonlinear = abcd_evolve(state, GOOD, P, 5.0, n_out=1)
            linear = abcd_linear_evolve(state, GOOD, P, 5.0)
            errs.append(
                np.max(np.abs(nonlinear.final_state.zeta.values - linear.zeta.values))
            )
        assert errs[0] / errs[1] > 3.5


class TestScalarEvolve:
    def test_zero_state_stays_zero(self):
        g = Grid(100.0, 256)
        traj = scalar_evolve(ScalarWaveState(SpectralField.zeros(g), 0.0, "kdv"), P, 1.0)
        assert np.max(np.abs(traj.final_state.zeta.values)) == 0.0

    @pytest.mark.parametrize("model", ["kdv", "whitham"])
    def test_mass_and_l2_invariants(self, model):
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.05 * np.exp(-0.01 * x**2))
        traj = scalar_evolve(ScalarWaveState(z0, 0.0, model), P, 20.0 / P.c0, n_out=4)
        dx = g.spacing[0]
        m0 = np.sum(z0.values) * dx
        e0 = np.sum(z0.values**2) * dx
        for s in traj.states:
            assert abs(np.sum(s.zeta.values) * dx - m0) <= 1e-12 * abs(m0)
            assert abs(np.sum(s.zeta.values**2) * dx - e0) <= 1e-8 * e0

    def test_whitham_linear_phase_speed_matches_dispersion(self):
        kk = np.linspace(0.0, 20.0, 2001)
        speed = dispersive.scalar_phase_speed("whitham", kk, P)
        # c0 sqrt(tanh(Hk) / (Hk)), with c0 at k = 0
        mu = P.H * kk[1:]
        linear = np.concatenate([[P.c0], P.c0 * np.sqrt(np.tanh(mu) / mu)])
        assert np.max(np.abs(speed - linear)) < 1e-13

    def test_whitham2_requires_non_cavitation(self):
        g = Grid(100.0, 256)
        z0 = SpectralField.from_function(g, lambda x: -1.2 * np.exp(-((0.5 * x) ** 2)))
        with pytest.raises(CavitationError):
            scalar_evolve(ScalarWaveState(z0, 0.0, "whitham2"), P, 1.0)

    def test_whitham2_matches_whitham_for_small_data(self):
        # both share the full linear dispersion; the advection coefficients
        # agree to O(zeta^2)
        g = Grid(200.0, 512)
        z0 = SpectralField.from_function(g, lambda x: 0.02 * np.exp(-((0.1 * x) ** 2)))
        t1 = scalar_evolve(ScalarWaveState(z0, 0.0, "whitham"), P, 5.0, n_out=1)
        t2 = scalar_evolve(ScalarWaveState(z0, 0.0, "whitham2"), P, 5.0, n_out=1)
        gap = np.max(np.abs(t1.final_state.zeta.values - t2.final_state.zeta.values))
        assert gap < 1e-4

    def test_explicit_dt_control(self):
        g = Grid(100.0, 256)
        z0 = SpectralField.from_function(g, lambda x: 0.01 * np.exp(-0.1 * x**2))
        traj = scalar_evolve(ScalarWaveState(z0, 0.0, "kdv"), P, 1.0, DtControl(dt=1e-3), n_out=2)
        assert traj.final_state.time == pytest.approx(1.0)

    def test_non_finite_run_halts_without_keeping_the_state(self):
        # dt = 0.5 is far beyond what the nonlinear term tolerates here
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.5 * np.exp(-(x**2)))
        traj = scalar_evolve(ScalarWaveState(z0, 0.0, "whitham"), P, 10.0,
                             DtControl(dt=0.5), n_out=10)
        assert traj.halt is not None and traj.halt.reason == "non_finite"
        assert traj.halt.time > traj.final_state.time
        assert all(np.all(np.isfinite(s.zeta.values)) for s in traj.states)

    def test_model_name_validated(self):
        g = Grid(100.0, 256)
        with pytest.raises(ValueError, match="model"):
            ScalarWaveState(SpectralField.zeros(g), 0.0, "airy")

    @staticmethod
    def cfl_step(g, z0):
        """The advective CFL step dt0 of scalar_evolve at the default cfl 0.4."""
        zmax = float(np.max(np.abs(z0.values)))
        return 0.4 * g.spacing[0] / (P.c0 + 1.5 * (P.c0 / P.H) * zmax)

    @pytest.mark.parametrize("amplitude, t_end, n_out, start", [
        (0.1, 1.0, 10, 1.0),  # the interval 0.1 caps the start at dt0 = 0.087
        (0.01, 15.0, 1, 128.0),  # h_stab = 14.8 caps it at 128 dt0 = 12.6
        (2.0, 15.0, 1, 4.0),  # h_stab = 0.074 is below 4 dt0 = 0.10, so 4 dt0
        (0.0, 15.0, 1, 128.0),  # no advection, no h_stab: the interval caps it
    ])
    def test_refinement_starts_at_its_capped_coarsest_step_and_stops_at_its_floor(
            self, amplitude, t_end, n_out, start, monkeypatch):
        g = Grid(50.0, 64)
        z0 = SpectralField.from_function(g, lambda x: amplitude * np.exp(-(x**2)))
        dt0 = self.cfl_step(g, z0)
        tried = []

        def fake_run(state, p, t_end, dt, n_out):
            # every run sits a unit away from the last, so no two ever agree
            tried.append(dt)
            yield from constant_run(state, float(len(tried)), t_end, n_out)

        monkeypatch.setattr(dispersive, "_scalar_run", fake_run)
        with pytest.raises(StepSizeUnderflowError, match="did not reach tolerance 1e-08"):
            scalar_evolve(ScalarWaveState(z0, 0.0, "kdv"), P, t_end, n_out=n_out)
        # the coarsest 4 dt0 2^j within the interval and max(h_stab, 4 dt0)
        h_stab = 2.8 * g.spacing[0] / (math.pi * 1.5 * P.c0 * amplitude) if amplitude else math.inf
        cap = min(t_end / n_out, max(h_stab, stepping.PAIR_STEP_MULTIPLE * dt0))
        assert tried[0] == start * dt0 <= cap < 2.0 * tried[0]
        assert tried == [tried[0] * 0.5**j for j in range(len(tried))]
        assert tried[-1] == dt0 * 2.0**-14

    @pytest.mark.parametrize("model", ["kdv", "whitham"])
    @pytest.mark.parametrize("t_end, n_out", [(15.0, 87), (15.0, 90), (0.2, 10)])
    def test_no_two_levels_take_the_same_steps(self, model, t_end, n_out, monkeypatch):
        # an output interval at most 2 dt0 once made the 4 dt0 and 2 dt0 runs
        # one step per interval each: identical, so accepted with a diff of 0
        g = Grid(50.0, 64)
        z0 = SpectralField.from_function(g, lambda x: 0.1 * np.exp(-(x**2)))
        dt0 = self.cfl_step(g, z0)
        run, resolve = dispersive._scalar_run, stepping.resolve_substeps
        taken = {}  # dt of each run -> the substep count of each of its intervals

        def recording_run(state, p, t_end, dt, n_out):
            taken[dt] = []
            return run(state, p, t_end, dt, n_out)

        def recording_resolve(interval, dt_raw):
            m, h = resolve(interval, dt_raw)
            taken[dt_raw].append(m)
            return m, h

        monkeypatch.setattr(dispersive, "_scalar_run", recording_run)
        monkeypatch.setattr(stepping, "resolve_substeps", recording_resolve)
        state = ScalarWaveState(z0, 0.0, model)
        refined = scalar_evolve(state, P, t_end, n_out=n_out)
        levels = refined.refinement["levels"]
        assert [level["dt"] for level in levels] == list(taken)
        # a dropped level stops stepping: each level steps some intervals, the returned one all
        assert all(set(steps) == {level["substeps"]} for level, steps in zip(levels, taken.values()))
        assert len(taken[levels[-1]["dt"]]) == n_out
        assert len({level["substeps"] for level in levels}) == len(levels) >= 2
        assert levels[0]["dt"] <= t_end / n_out
        monkeypatch.undo()
        *_, reference = run(state, P, t_end, dt0 / 16.0, 1)
        gap = np.max(np.abs(refined.final_state.zeta.values - reference.final_state.zeta.values))
        assert gap < dispersive.REFINE_TOL

    @pytest.mark.parametrize("t_end, n_out, message", [
        (-1.0, 10, "t_end must be nonnegative"), (1.0, 0, "at least one output interval")])
    def test_bad_horizons_raise_before_the_ladder(self, t_end, n_out, message):
        z0 = SpectralField.from_function(Grid(50.0, 64), lambda x: 0.1 * np.exp(-(x**2)))
        with pytest.raises(ValueError, match=message):
            scalar_evolve(ScalarWaveState(z0, 0.0, "kdv"), P, t_end, n_out=n_out)

    def test_an_interval_below_two_floor_steps_raises(self):
        g = Grid(50.0, 64)
        z0 = SpectralField.from_function(g, lambda x: 0.1 * np.exp(-(x**2)))
        floor = self.cfl_step(g, z0) * 2.0**-14
        with pytest.raises(StepSizeUnderflowError, match="did not reach tolerance"):
            scalar_evolve(ScalarWaveState(z0, 0.0, "kdv"), P, 1.5 * floor, n_out=1)

    @pytest.mark.parametrize("n_out", [1, 10])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_start_keeps_below_the_nonlinear_stability_step(self, sign, n_out):
        # h_stab = 0.25 lies between 4 dt0 = 0.14 and 8 dt0, so the ladder
        # starts at 4 dt0; a start capped by the interval alone (64 dt0 for
        # n_out 1, 8 dt0 for n_out 10) cavitates at its first level
        g = Grid(200.0, 512)
        z0 = SpectralField.from_function(g, lambda x: sign * 0.3 * np.exp(-0.05 * x**2))
        dt0 = self.cfl_step(g, z0)
        traj = scalar_evolve(ScalarWaveState(z0, 0.0, "whitham2"), P, 15.0, n_out=n_out)
        levels = traj.refinement["levels"]
        assert traj.halt is None and traj.final_state.time == pytest.approx(15.0)
        assert [level["dt"] for level in levels] == [
            4.0 * dt0 * 0.5**j for j in range(7 if sign > 0 else 5)]
        assert levels[-1]["diff"] < dispersive.REFINE_TOL

    @pytest.mark.parametrize("amplitude", [0.02, 0.2])
    @pytest.mark.parametrize("model", ["kdv", "whitham", "whitham2"])
    def test_refined_run_matches_a_fine_fixed_step_run(self, model, amplitude, monkeypatch):
        g = Grid(50.0, 128)
        z0 = SpectralField.from_function(g, lambda x: amplitude * np.exp(-(x**2)))
        dt0 = self.cfl_step(g, z0)
        tried = []
        run = dispersive._scalar_run

        def recording_run(state, p, t_end, dt, n_out):
            tried.append(dt)
            return run(state, p, t_end, dt, n_out)

        monkeypatch.setattr(dispersive, "_scalar_run", recording_run)
        refined = scalar_evolve(ScalarWaveState(z0, 0.0, model), P, 1.0, n_out=1)
        if amplitude == 0.2:  # the steep case halves below the CFL step
            assert tried[-1] < dt0
        *_, reference = run(ScalarWaveState(z0, 0.0, model), P, 1.0, dt0 / 32.0, 1)
        gap = np.max(np.abs(refined.final_state.zeta.values - reference.final_state.zeta.values))
        assert gap < 1e-8


def constant_run(state, value, t_end, n_out):
    """A stand-in for ``dispersive._scalar_run`` whose snapshots all equal ``value``."""
    traj = Trajectory([state])
    yield traj
    for t in stepping.snapshot_times(t_end, n_out)[1:]:
        traj.states.append(ScalarWaveState(SpectralField(state.grid, np.full(state.grid.nodes[0],
                                                                             value)), t))
        yield traj


class TestLockstepRefinement:
    """The ladder steps two levels together, one output interval at a time,
    and drops the coarser at the first snapshot where they part."""

    @staticmethod
    def steep(model, amplitude=0.2):
        g = Grid(50.0, 128)
        z0 = SpectralField.from_function(g, lambda x: amplitude * np.exp(-(x**2)))
        return ScalarWaveState(z0, 0.0, model)

    def test_two_levels_cavitating_in_one_interval_end_the_ladder(self):
        # the -0.9 Gaussian cavitates in its second interval; the ladder ends
        # once two levels cavitate there having agreed at t = 0.5, so the last
        # snapshot before the halt agrees with the next finer level
        state = self.steep("whitham2", amplitude=-0.9)
        traj = scalar_evolve(state, P, 3.0, n_out=6)
        levels = traj.refinement["levels"]
        finer = scalar_evolve(state, P, 3.0, DtControl(dt=0.5 * levels[-1]["dt"]), n_out=6)
        assert len(traj) == len(finer) == 2
        gap = np.max(np.abs(finer.states[1].zeta.values - traj.states[1].zeta.values))
        assert gap < dispersive.REFINE_TOL  # it read 7.5e-5 with the final-time rule
        assert traj.halt.reason == finer.halt.reason == "cavitation"
        assert traj.halt.time == pytest.approx(0.7122, abs=1e-4)
        assert traj.refinement["error_estimate"] is None
        assert [level["dropped_at"] for level in levels] == [1] * (len(levels) - 2) + [None] * 2
        assert levels[0]["diff"] is None and levels[-1]["diff"] < dispersive.REFINE_TOL

    @staticmethod
    def scripted(monkeypatch, scripts, n_out):
        """Run the ladder on stand-in runs: level k's snapshots 1, 2, ... hold
        the values scripts[k][0], and then it halts for the reason scripts[k][1]
        (None for no halt).  Return the trajectory and the intervals each level stepped."""
        g = Grid(50.0, 64)
        stepped = []

        def run(state, p, t_end, dt, n_out):
            k = len(stepped)
            values, reason = scripts[k]
            stepped.append(0)
            traj = Trajectory([state])
            yield traj
            for j, value in enumerate(values, 1):
                stepped[k] += 1
                traj.states.append(ScalarWaveState(SpectralField(g, np.full(64, value)), j))
                yield traj
            if reason is not None:
                stepped[k] += 1
                traj.halt = HaltEvent(reason, len(values) + 0.5, math.nan, math.nan)
                yield traj

        monkeypatch.setattr(dispersive, "_scalar_run", run)
        state = ScalarWaveState(SpectralField(g, np.zeros(64)), 0.0, "whitham2")
        return scalar_evolve(state, P, float(n_out), n_out=n_out), stepped

    @staticmethod
    def records(traj):
        return [(level["diff"], level["dropped_at"]) for level in traj.refinement["levels"]]

    def test_a_new_level_catches_up_against_the_stored_snapshots(self, monkeypatch):
        # levels 0 and 1 part at snapshot 3; level 2 is compared with level 1's
        # stored snapshots 1-3, and then both step interval 4
        traj, stepped = self.scripted(monkeypatch, [
            ([0.0, 0.0, 0.0, 0.0], None), ([0.0, 0.0, 1.0, 1.0], None),
            ([0.0, 0.0, 1.0, 1.0], None)], 4)
        assert traj.halt is None and len(traj) == 5
        assert self.records(traj) == [(None, 3), (1.0, None), (0.0, None)]
        assert stepped == [3, 4, 4]

    def test_a_shared_cavitation_after_a_disagreement_does_not_end_the_ladder(self, monkeypatch):
        # levels 0 and 1 part at snapshot 1 and both cavitate in interval 2;
        # level 2 agrees with level 1 at snapshot 1 and cavitates in interval 2
        traj, stepped = self.scripted(monkeypatch, [
            ([0.0], "cavitation"), ([1.0], "cavitation"), ([1.0], "cavitation")], 6)
        assert traj.halt.reason == "cavitation" and len(stepped) == 3
        assert traj.refinement["error_estimate"] is None
        assert self.records(traj) == [(None, 1), (1.0, None), (0.0, None)]

    @pytest.mark.parametrize("reason", ["cavitation", "non_finite"])
    def test_only_a_shared_cavitation_ends_the_ladder(self, reason, monkeypatch):
        # levels 0 and 1 agree at snapshot 1 and both halt in interval 2
        full = ([0.0] * 6, None)
        traj, stepped = self.scripted(monkeypatch, [([0.0], reason)] * 2 + [full] * 2, 6)
        if reason == "cavitation":
            assert traj.halt.reason == "cavitation" and len(traj) == 2
            assert self.records(traj) == [(None, None), (0.0, None)]
        else:  # a level that halts where the next does not is dropped there
            assert traj.halt is None and len(traj) == 7
            assert self.records(traj) == [(None, 2), (0.0, 2), (0.0, None), (0.0, None)]
            assert traj.refinement["error_estimate"] == 0.0
        assert stepped == ([2, 2] if reason == "cavitation" else [2, 2, 6, 6])

    def test_the_floor_raises_after_fifteen_levels(self, monkeypatch):
        g = Grid(50.0, 64)
        state = ScalarWaveState(SpectralField.zeros(g), 0.0, "kdv")
        dt0 = TestScalarEvolve.cfl_step(g, state.zeta)
        started = []

        def never_agreeing(state, p, t_end, dt, n_out):
            # a run sits at the value dt: successive runs differ by dt/2 >> REFINE_TOL
            started.append(dt)
            yield from constant_run(state, dt, t_end, n_out)

        monkeypatch.setattr(dispersive, "_scalar_run", never_agreeing)
        with pytest.raises(StepSizeUnderflowError) as info:
            scalar_evolve(state, P, 1.0)
        # the output interval 0.1 is just above dt0 = 0.0998: the ladder starts there
        assert started == [dt0 * 0.5**j for j in range(15)]
        assert str(info.value) == (f"step refinement did not reach tolerance 1e-08 "
                                   f"(last dt = {dt0 * 2.0**-14})")

    def test_refinement_records_the_levels_started(self, monkeypatch):
        run = dispersive._scalar_run
        started = []

        def second_run_halts(state, p, t_end, dt, n_out):
            started.append(dt)
            if len(started) != 2:
                yield from run(state, p, t_end, dt, n_out)
                return
            traj = Trajectory([state])
            yield traj
            traj.halt = HaltEvent("non_finite", t_end / n_out, math.nan, math.nan)
            yield traj

        monkeypatch.setattr(dispersive, "_scalar_run", second_run_halts)
        traj = scalar_evolve(self.steep("kdv"), P, 1.0, n_out=3)
        levels = traj.refinement["levels"]
        assert [level["dt"] for level in levels] == started
        # the halted level and the ones on either side of it compare no snapshot
        assert levels[0]["diff"] is levels[1]["diff"] is levels[2]["diff"] is None
        assert levels[0]["dropped_at"] == levels[1]["dropped_at"] == 1
        assert all(level["diff"] >= dispersive.REFINE_TOL for level in levels[3:-1])
        assert levels[-1]["diff"] < dispersive.REFINE_TOL
        assert scalar_evolve(self.steep("kdv"), P, 1.0, DtControl(dt=0.01)).refinement is None

    def test_every_snapshot_of_the_accepted_pair_agrees(self):
        # the benchmark's evolve whitham run: with the final-time rule it
        # accepted a pair whose first snapshot differs by 1.24e-8
        g = Grid(200.0, 2048)
        state = ScalarWaveState(SpectralField.from_function(g, lambda x: 0.01 * np.exp(-(x**2))),
                                0.0, "whitham")
        traj = scalar_evolve(state, P, 15.0, n_out=10)
        coarse = scalar_evolve(state, P, 15.0, DtControl(dt=traj.refinement["levels"][-2]["dt"]),
                               n_out=10)
        gaps = [np.max(np.abs(a.zeta.values - b.zeta.values))
                for a, b in zip(traj.states, coarse.states, strict=True)]
        assert max(gaps) < dispersive.REFINE_TOL


class TestDispersiveShockWave:
    def test_oscillation_count_grows(self):
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.25 * np.exp(-0.1 * x**2))
        traj = abcd_evolve(BoussinesqState(z0, SpectralField.zeros(g)), GOOD, P, 16.0, n_out=4)

        def count(state):
            v = state.zeta.values
            peaks = argrelmax(v)[0]
            return int(np.sum(v[peaks] > 1e-4))

        counts = [count(s) for s in traj.states]
        assert counts[-1] > counts[1] >= 1
        assert counts == sorted(counts)

"""Tests for the traveling-wave solvers."""

import math

import numpy as np
import pytest

from wavemodels import (
    AbcdParams,
    BoussinesqState,
    ConvergenceError,
    Grid,
    IllPosedError,
    PhysicalParams,
    ScalarWaveState,
    SpectralField,
    abcd_evolve,
    boussinesq_solitary_solve,
    boussinesq_steady_residual,
    kdv_soliton,
    kdv_steady_residual,
    petviashvili_continuation,
    petviashvili_solve,
    scalar_evolve,
    suggested_domain_length,
    whitham_steady_residual,
)
from wavemodels.stepping import DtControl
from wavemodels.traveling import _steady_linear_symbol, solitary_wave

P = PhysicalParams(9.81, 1.0)
GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)

# Grid-converged Petviashvili amplitude of the full-dispersion solitary wave
# at c = 1.05 c0 (regression baseline; stable across L in {200,300,400} and
# N in {1024,1536,2048} to 14 digits).
WHITHAM_AMPLITUDE_AT_105 = 0.1026833864710825


def translate_spectrally(field, shift):
    phase = np.exp(-1j * field.grid.wavenumbers(0) * shift)
    return np.fft.ifft(phase * field.hat).real


class TestClosedFormSoliton:
    def test_amplitude(self):
        # 2 H (c/c0 - 1) = 0.1 at c = 1.05 c0
        sol = kdv_soliton(1.05 * P.c0, P, Grid(200.0, 1024))
        assert sol.amplitude == pytest.approx(0.1, abs=1e-13)

    def test_profile_matches_formula(self):
        grid = Grid(200.0, 1024)
        sol = kdv_soliton(1.05 * P.c0, P, grid)
        x = grid.axis_coordinates(0)
        kappa = math.sqrt(1.5 * 0.05)  # 0.27386127875258306 per meter
        exact = 0.1 / np.cosh(kappa * x) ** 2
        assert np.max(np.abs(sol.profile_zeta.values - exact)) < 1e-15

    def test_substitution_residual_tiny(self):
        sol = kdv_soliton(1.05 * P.c0, P, Grid(200.0, 1024))
        assert sol.residual < 1e-10

    def test_speed_at_c0_gives_zero_profile(self):
        sol = kdv_soliton(P.c0, P, Grid(200.0, 256))
        assert np.all(sol.profile_zeta.values == 0.0)

    def test_subcritical_speed_rejected(self):
        with pytest.raises(ValueError, match="below c0"):
            kdv_soliton(0.9 * P.c0, P, Grid(200.0, 256))

    def test_suggested_domain_covers_decay(self):
        L = suggested_domain_length(1.05 * P.c0, P)
        assert L == pytest.approx(40.0 / math.sqrt(0.075), rel=1e-12)


class TestPetviashvili:
    def test_recovers_closed_form_from_gaussian_guess(self):
        grid = Grid(200.0, 1024)
        guess = SpectralField.from_function(grid, lambda x: 0.08 * np.exp(-0.05 * x**2))
        sol = petviashvili_solve("kdv", 1.05 * P.c0, P, grid, tol=1e-12, initial_guess=guess)
        exact = kdv_soliton(1.05 * P.c0, P, grid)
        assert np.max(np.abs(sol.profile_zeta.values - exact.profile_zeta.values)) < 1e-8
        assert sol.iterations > 5  # the iteration actually ran

    def test_normalization_factor_near_one_at_exit(self):
        grid = Grid(200.0, 1024)
        tol = 1e-12
        sol = petviashvili_solve("whitham", 1.05 * P.c0, P, grid, tol=tol)
        z = sol.profile_zeta.values
        zhat = np.fft.fft(z)
        lin = _steady_linear_symbol("whitham", 1.05 * P.c0, grid.wavenumbers(0), P)
        n_hat = (3.0 * P.c0 / (4.0 * P.H)) * np.fft.fft(z * z)
        m_factor = np.real(np.vdot(zhat, lin * zhat)) / np.real(np.vdot(zhat, n_hat))
        assert abs(m_factor - 1.0) < 10 * tol

    def test_whitham_amplitude_regression(self):
        grid = Grid(200.0, 1024)
        sol = petviashvili_solve("whitham", 1.05 * P.c0, P, grid, tol=1e-13, max_iter=800)
        assert sol.residual < 1e-10
        assert sol.amplitude == pytest.approx(WHITHAM_AMPLITUDE_AT_105, abs=1e-9)
        # distinct from the closed-form cubic-dispersion amplitude 0.1
        assert abs(sol.amplitude - 0.1) > 1e-3

    def test_translation_gauge(self):
        grid = Grid(200.0, 1024)
        exact = kdv_soliton(1.05 * P.c0, P, grid)
        shifted = SpectralField(grid, np.roll(exact.profile_zeta.values, 37))
        sol = petviashvili_solve("kdv", 1.05 * P.c0, P, grid, tol=1e-12, initial_guess=shifted)
        assert np.max(np.abs(sol.profile_zeta.values - exact.profile_zeta.values)) < 1e-10

    def test_subcritical_speed_rejected(self):
        with pytest.raises(ValueError, match="supercritical"):
            petviashvili_solve("whitham", P.c0, P, Grid(200.0, 256))

    def test_divergence_reports_normalization_history(self):
        grid = Grid(200.0, 256)
        with pytest.raises(ConvergenceError) as err:
            petviashvili_solve("kdv", 1.05 * P.c0, P, grid, tol=1e-12, max_iter=2)
        assert len(err.value.history) == 2


class TestContinuation:
    def test_speed_ramp_structure(self):
        grid = Grid(200.0, 1024)
        res = petviashvili_continuation(
            "whitham", 1.12 * P.c0, P, grid, start_speed=1.05 * P.c0, steps=4, tol=1e-10
        )
        assert res.diverged_at is None
        assert res.reached_speed == pytest.approx(1.12 * P.c0)
        amps = [s.amplitude for s in res.solutions]
        assert amps == sorted(amps)  # amplitude grows with speed

    def test_divergence_is_reported_not_raised(self):
        # an absurd target far beyond the extreme wave must not raise
        grid = Grid(200.0, 512)
        res = petviashvili_continuation(
            "whitham", 3.0 * P.c0, P, grid, steps=5, tol=1e-12, max_iter=60
        )
        assert res.diverged_at is not None


class TestPropagation:
    def test_kdv_soliton_shape_preserved_by_evolution(self):
        grid = Grid(200.0, 1024)
        sol = kdv_soliton(1.05 * P.c0, P, grid)
        t_end = 3.0 / P.c0
        traj = scalar_evolve(ScalarWaveState(sol.profile_zeta, 0.0, "kdv"), P, t_end, n_out=1)
        expected = translate_spectrally(sol.profile_zeta, sol.speed * t_end)
        assert np.max(np.abs(traj.final_state.zeta.values - expected)) < 1e-7

    def test_whitham_solitary_wave_shape_preserved(self):
        grid = Grid(200.0, 1024)
        sol = petviashvili_solve("whitham", 1.05 * P.c0, P, grid, tol=1e-12)
        t_end = 3.0 / P.c0
        traj = scalar_evolve(ScalarWaveState(sol.profile_zeta, 0.0, "whitham"), P, t_end, n_out=1)
        expected = translate_spectrally(sol.profile_zeta, sol.speed * t_end)
        assert np.max(np.abs(traj.final_state.zeta.values - expected)) < 1e-7

    def test_boussinesq_solitary_wave_shape_preserved(self):
        grid = Grid(200.0, 512)
        sol = boussinesq_solitary_solve(GOOD, 1.05 * P.c0, P, grid, tol=1e-12)
        t_end = 1.0
        state = BoussinesqState(sol.profile_zeta, sol.profile_u)
        traj = abcd_evolve(state, GOOD, P, t_end, DtControl(cfl=0.2), n_out=1)
        expected = translate_spectrally(sol.profile_zeta, sol.speed * t_end)
        assert np.max(np.abs(traj.final_state.zeta.values - expected)) < 1e-7


class TestBoussinesqSolitary:
    def test_converges_with_tiny_residual(self):
        grid = Grid(200.0, 512)
        sol = boussinesq_solitary_solve(GOOD, 1.05 * P.c0, P, grid, tol=1e-12)
        r1, r2 = boussinesq_steady_residual(sol.profile_zeta, sol.profile_u, GOOD, sol.speed, P)
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-10

    def test_amplitude_grows_with_speed(self):
        amps = []
        for ratio, length in ((1.01, 400.0), (1.05, 200.0)):
            grid = Grid(length, 1024)
            sol = boussinesq_solitary_solve(GOOD, ratio * P.c0, P, grid, tol=1e-12)
            amps.append(sol.amplitude)
        assert amps[1] > amps[0] > 0.0

    def test_monotone_amplitude_sweep(self):
        grid = Grid(200.0, 512)
        amps = [
            boussinesq_solitary_solve(GOOD, r * P.c0, P, grid, tol=1e-10).amplitude
            for r in (1.03, 1.05, 1.08)
        ]
        assert amps == sorted(amps)

    def test_speed_c0_returns_zero_profile(self):
        sol = boussinesq_solitary_solve(GOOD, P.c0, P, Grid(200.0, 256))
        assert np.all(sol.profile_zeta.values == 0.0)
        assert sol.residual == 0.0

    def test_speed_range_enforced(self):
        with pytest.raises(ValueError, match="0 <= c/c0 - 1 <= 0.3"):
            boussinesq_solitary_solve(GOOD, 1.5 * P.c0, P, Grid(200.0, 256))

    def test_ill_posed_parameters_rejected(self):
        with pytest.raises(IllPosedError):
            boussinesq_solitary_solve(
                AbcdParams(1.0 / 3.0, 0.0, 0.0, 0.0), 1.05 * P.c0, P, Grid(200.0, 256)
            )

    @pytest.mark.parametrize("ratio, grid", [(1.01, Grid(400.0, 1024)), (1.3, Grid(200.0, 512))],
                             ids=["c1.01", "c1.30"])
    @pytest.mark.parametrize(
        "params",
        [
            AbcdParams(0.0, 1.0 / 6.0, 0.0, 1.0 / 6.0),
            AbcdParams(1.0 / 6.0, 0.0, 1.0 / 6.0, 0.0),
            AbcdParams(-1.0 / 6.0, 1.0 / 3.0, 0.0, 1.0 / 6.0),
        ],
        ids=["bbm_bbm", "a_c_sixth", "mixed"],
    )
    def test_other_well_posed_systems(self, params, ratio, grid):
        sol = boussinesq_solitary_solve(params, ratio * P.c0, P, grid)
        r1, r2 = boussinesq_steady_residual(sol.profile_zeta, sol.profile_u, params, sol.speed, P)
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-10
        z = sol.profile_zeta.values
        assert np.array_equal(z, z[(-np.arange(z.size)) % z.size])  # even about x = 0
        # a wave of elevation peaked at x = 0; (1/6, 0, 1/6, 0) has dips below zero
        # in its tails at c = 1.3 c0, so positivity is asked of the crest
        assert sol.amplitude > 0.0 and z[z.size // 2] == sol.amplitude

    def test_fine_grid(self):
        # N = 8192: one dense N x N matrix would take 0.5 GB; the iteration builds none
        grid = Grid(suggested_domain_length(3.3, P), 8192)
        sol = boussinesq_solitary_solve(GOOD, 3.3, P, grid)
        r1, r2 = boussinesq_steady_residual(sol.profile_zeta, sol.profile_u, GOOD, sol.speed, P)
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-10

    def test_velocity_profile_sign_matches_propagation(self):
        # rightward wave of elevation carries positive velocity
        sol = boussinesq_solitary_solve(GOOD, 1.05 * P.c0, P, Grid(200.0, 512))
        peak = int(np.argmax(sol.profile_zeta.values))
        assert sol.profile_u.values[peak] > 0.0


class TestSteadyResiduals:
    def test_residual_detects_wrong_speed(self):
        grid = Grid(200.0, 1024)
        sol = kdv_soliton(1.05 * P.c0, P, grid)
        wrong = np.max(np.abs(kdv_steady_residual(sol.profile_zeta, 1.06 * P.c0, P)))
        right = np.max(np.abs(kdv_steady_residual(sol.profile_zeta, 1.05 * P.c0, P)))
        assert wrong > 1e3 * max(right, 1e-16)

    def test_whitham_residual_nonzero_for_kdv_profile(self):
        grid = Grid(200.0, 1024)
        sol = kdv_soliton(1.05 * P.c0, P, grid)
        res = np.max(np.abs(whitham_steady_residual(sol.profile_zeta, 1.05 * P.c0, P)))
        assert res > 1e-6


class TestSolitaryWaveDispatch:
    @pytest.mark.parametrize("speed", [1.0, P.c0])
    def test_domain_length_needs_speed_above_c0(self, speed):
        # the tails do not decay at or below c0, so there is no length to suggest
        with pytest.raises(ValueError, match=r"above c0 = 3\.13"):
            suggested_domain_length(speed, P)

    @pytest.mark.parametrize("model", ["kdv", "whitham", "boussinesq"])
    def test_matches_the_model_solver(self, model):
        grid = Grid(100.0, 256)
        sol = solitary_wave(model, 3.3, P, grid, GOOD)
        if model == "kdv":
            ref = kdv_soliton(3.3, P, grid)
        elif model == "whitham":
            ref = petviashvili_solve("whitham", 3.3, P, grid)
        else:
            ref = boussinesq_solitary_solve(GOOD, 3.3, P, grid)
        assert np.array_equal(sol.profile_zeta.values, ref.profile_zeta.values)
        assert (sol.profile_u is None) == (model != "boussinesq")

    def test_rejects_unresolved_wave_and_unknown_model(self):
        with pytest.raises(ValueError, match="grid does not resolve the wave"):
            solitary_wave("boussinesq", 3.3, P, Grid(100.0, 8), GOOD)
        with pytest.raises(ValueError, match="no solitary-wave solver for model 'whitham2'"):
            solitary_wave("whitham2", 3.3, P, Grid(100.0, 256))

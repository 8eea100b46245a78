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
    TravelingWaveSolution,
    UnresolvedWaveError,
    abcd_evolve,
    boussinesq_solitary_solve,
    boussinesq_steady_residual,
    derivative,
    kdv_soliton,
    kdv_steady_residual,
    petviashvili_continuation,
    petviashvili_solve,
    scalar_evolve,
    suggested_domain_length,
    whitham_steady_residual,
)
from wavemodels.dispersive import _abcd_factors
from wavemodels.spectral import spectral_tail
from wavemodels.stepping import DtControl
from wavemodels.traveling import (
    MAX_SPECTRAL_TAIL,
    _boussinesq_operator,
    _petviashvili,
    _scalar_operator,
    _steady_linear_symbol,
    _symmetrize_centered,
    solitary_wave,
)

P = PhysicalParams(9.81, 1.0)
GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)

# Grid-converged Petviashvili amplitude of the full-dispersion solitary wave
# at c = 1.05 c0 (regression baseline; stable across L in {200,300,400} and
# N in {1024,1536,2048} to 14 digits).
WHITHAM_AMPLITUDE_AT_105 = 0.1026833864710825


# a = c with b != d (GOOD has a != c and b = d), so swapping a with c or b with d
# in an operator changes one of the two residuals
EQUAL_AC = AbcdParams(1.0 / 12.0, 1.0 / 24.0, 1.0 / 12.0, 1.0 / 8.0)


def kdv_pde_residual(zeta, speed, p):
    """(c - c0) zeta - (c0 H^2 / 6) zeta'' - (3 c0 / (4 H)) zeta^2, term by term."""
    zxx = derivative(zeta, 0, 2).values
    z = zeta.values
    return (speed - p.c0) * z - (p.c0 * p.H**2 / 6.0) * zxx - (3.0 * p.c0 / (4.0 * p.H)) * z**2


def boussinesq_pde_residual(zeta, u, params, speed, p):
    """The once-integrated steady abcd system, term by term in physical space.

    r1 = -c (zeta - b H^2 zeta'') + (H + zeta) u + a H^3 u''
    r2 = -c (u - d H^2 u'') + g (zeta + c_param H^2 zeta'') + u^2 / 2
    """
    z, v = zeta.values, u.values
    zxx, vxx = derivative(zeta, 0, 2).values, derivative(u, 0, 2).values
    r1 = -speed * (z - params.b * p.H**2 * zxx) + (p.H + z) * v + params.a * p.H**3 * vxx
    r2 = -speed * (v - params.d * p.H**2 * vxx) + p.g * (z + params.c * p.H**2 * zxx) + 0.5 * v**2
    return r1, r2


def random_even_field(grid, rng, modes=12):
    """A smooth even field that solves no steady equation: random cosine modes."""
    x, L = grid.axis_coordinates(0), grid.length[0]
    amps = 0.05 * rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    return SpectralField(grid, sum(a * np.cos(2.0 * np.pi * j * x / L) for j, a in enumerate(amps)))


def full_wavenumbers(grid):
    """2 pi k / L for k = 0 .. N/2-1, -N/2 .. -1: the full complex spectrum."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.nodes[0], d=grid.spacing[0])


def translate_spectrally(field, shift):
    phase = np.exp(-1j * full_wavenumbers(field.grid) * shift)
    return np.fft.ifft(phase * np.fft.fft(field.values)).real


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
        lin = _steady_linear_symbol("whitham", 1.05 * P.c0, full_wavenumbers(grid), P)
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


class TestAndersonStep:
    """The sweep mixes each output with the previous one; the plain sweep
    counts in the comments are the iteration without the mix."""

    GRID = Grid(suggested_domain_length(3.3, P), 1024)

    def test_whitham_converges_in_few_sweeps(self):
        sol = petviashvili_solve("whitham", 3.3, P, self.GRID)
        assert sol.iterations <= 30 and sol.residual < 1e-10  # plain: 51

    def test_boussinesq_converges_in_few_sweeps(self):
        sol = boussinesq_solitary_solve(GOOD, 3.3, P, self.GRID)
        assert sol.iterations <= 20 and sol.residual < 1e-10  # plain: 43

    def test_near_extreme_stage_converges(self):
        # The last stage of the continuation toward 1.2290408 c0 on 2048
        # nodes, seeded from the stage before it.  Without the restart on a
        # growing update the mix stalls there (its update is still ~1e-3
        # after 3000 sweeps); with it, it converges (the plain sweep takes 246).
        # The peaked profile it converges to has a spectral tail of ~0.14, so
        # petviashvili_solve refuses it as unresolved.
        grid, target = Grid(200.0, 2048), 1.2290408 * P.c0
        before = 1.05 * P.c0 * (target / (1.05 * P.c0)) ** (19 / 20)
        ramp = petviashvili_continuation("whitham", before, P, grid, steps=19, tol=1e-10,
                                         max_iter=3000)
        assert ramp.diverged_at is None
        guess = ramp.solutions[-1].profile_zeta
        v, _, residual, _ = _petviashvili(*_scalar_operator("whitham", target, P, grid),
                                          guess.values[None], grid.parseval_weights, 1e-10, 3000)
        assert residual < 1e-9
        assert spectral_tail(SpectralField(grid, v[0])) > MAX_SPECTRAL_TAIL
        with pytest.raises(UnresolvedWaveError, match="grid does not resolve the wave at speed"):
            petviashvili_solve("whitham", target, P, grid, tol=1e-10, max_iter=3000,
                               initial_guess=guess)


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

    @pytest.mark.parametrize("start", [P.c0, 0.9 * P.c0])
    def test_start_speed_not_above_c0_raises(self, start):
        # only divergence and an unresolved profile end a ramp quietly
        with pytest.raises(ValueError, match="supercritical speed required"):
            petviashvili_continuation("whitham", 1.12 * P.c0, P, Grid(200.0, 256),
                                      start_speed=start, steps=2)

    def test_unresolved_stage_is_reported(self):
        # Every stage from 1.295 c0 on converges, but to a profile the grid
        # cannot carry (spectral tail 0.20 to 0.77): the ramp stops at the first.
        grid = Grid(200.0, 512)
        res = petviashvili_continuation(
            "whitham", 3.0 * P.c0, P, grid, steps=5, tol=1e-12, max_iter=500
        )
        assert res.diverged_at == pytest.approx(1.05 * P.c0 * (3.0 / 1.05) ** 0.2)
        assert res.reached_speed == pytest.approx(1.05 * P.c0)
        assert all(s.spectral_tail <= MAX_SPECTRAL_TAIL for s in res.solutions)

    def test_a_stage_that_does_not_decay_is_reported(self):
        # on 5 m the first stage converges to the flat state 4H(c - c0)/(3 c0)
        res = petviashvili_continuation("whitham", 3.4, P, Grid(5.0, 256))
        assert res.diverged_at == 1.05 * P.c0
        assert res.solutions == [] and res.speeds == []


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


class TestResidualsAgainstThePde:
    """The public residuals and the solvers' ``residual`` come from the same
    (L, N) pair the iteration solves; these checks hold L against the PDE
    written out in physical space."""

    @pytest.mark.parametrize("depth", [1.0, 0.7])
    def test_kdv_residual_on_random_fields(self, depth):
        p = PhysicalParams(9.81, depth)
        grid = Grid(60.0 * depth, 256)
        rng = np.random.default_rng(7)
        for _ in range(3):
            zeta = random_even_field(grid, rng)
            ref = kdv_pde_residual(zeta, 1.1 * p.c0, p)
            got = kdv_steady_residual(zeta, 1.1 * p.c0, p)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("depth", [1.0, 0.7])
    @pytest.mark.parametrize("params", [GOOD, EQUAL_AC], ids=["good", "equal_a_c"])
    def test_boussinesq_residual_on_random_fields(self, params, depth):
        p = PhysicalParams(9.81, depth)
        grid = Grid(60.0 * depth, 256)
        rng = np.random.default_rng(11)
        for _ in range(3):
            zeta, u = random_even_field(grid, rng), random_even_field(grid, rng)
            for got, ref in zip(boussinesq_steady_residual(zeta, u, params, 1.1 * p.c0, p),
                                boussinesq_pde_residual(zeta, u, params, 1.1 * p.c0, p)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("depth", [1.0, 0.7])
    def test_reported_residuals_are_small_pde_residuals(self, depth):
        p = PhysicalParams(9.81, depth)
        grid = Grid(200.0 * depth, 512)
        kdv = petviashvili_solve("kdv", 1.05 * p.c0, p, grid)
        ref = np.max(np.abs(kdv_pde_residual(kdv.profile_zeta, kdv.speed, p)))
        assert kdv.residual < 1e-11 and abs(kdv.residual - ref) < 1e-13
        sol = boussinesq_solitary_solve(GOOD, 1.05 * p.c0, p, grid)
        r1, r2 = boussinesq_pde_residual(sol.profile_zeta, sol.profile_u, GOOD, sol.speed, p)
        ref = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert sol.residual < 1e-10 and abs(sol.residual - ref) < 1e-13


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

    def test_solution_refuses_unresolved_profile(self):
        # kdv_soliton on 8 nodes has a spectral tail of 0.99; a NaN profile has a NaN tail
        with pytest.raises(UnresolvedWaveError, match="does not resolve the wave at speed 3.3"):
            kdv_soliton(3.3, P, Grid(100.0, 8))
        grid = Grid(100.0, 64)
        with pytest.raises(UnresolvedWaveError, match="spectral tail nan exceeds 0.01"):
            TravelingWaveSolution(SpectralField(grid, np.full(64, np.nan)), None, 3.3, 0.0, 0,
                                  physical=P)

    def test_rejects_unresolved_wave_and_unknown_model(self):
        with pytest.raises(ValueError, match="grid does not resolve the wave"):
            solitary_wave("boussinesq", 3.3, P, Grid(100.0, 8), GOOD)
        with pytest.raises(ValueError, match="no solitary-wave solver for model 'whitham2'"):
            solitary_wave("whitham2", 3.3, P, Grid(100.0, 256))


def full_fft_petviashvili(lin, term_hat, v, tol=1e-12, max_iter=500):
    """Reference Petviashvili loop on the full complex spectrum.

    ``lin`` has shape (m, m, N) and ``term_hat`` returns the full ``fft`` of
    N(v).  Each sweep transforms v, forms M from full-spectrum ``vdot``s,
    inverts L through its adjugate, rolls the maximum of the first
    component to node N/2 and averages with the even reflection.  Returns
    (iterates, sweeps): every iterate up to one sweep past the first whose
    sup-norm update is below ``tol``, and the number of that sweep.
    """
    n = v.shape[-1]
    if v.shape[0] == 1:
        det, adj = lin[0, 0], np.ones((1, 1, 1))
    else:
        det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
        adj = np.array([[lin[1, 1], -lin[0, 1]], [-lin[1, 0], lin[0, 0]]])
    iterates, sweeps = [], None
    for it in range(1, max_iter + 1):
        vhat, n_hat = np.fft.fft(v), term_hat(v)
        numer = np.real(np.vdot(vhat, np.einsum("ijk,jk->ik", lin, vhat)))
        m_factor = numer / np.real(np.vdot(vhat, n_hat))
        w = np.fft.ifft(np.einsum("ijk,jk->ik", adj, m_factor**2 * n_hat) / det).real
        w = np.roll(w, n // 2 - int(np.argmax(w[0])), axis=-1)
        w = 0.5 * (w + w[:, (-np.arange(n)) % n])
        delta, v = np.max(np.abs(w - v)), w
        iterates.append(v)
        if sweeps is None and delta < tol:
            sweeps = it
        if sweeps is not None and it == sweeps + 1:
            return iterates, sweeps
    raise AssertionError("reference loop did not converge")


def reference_operator(model, speed, grid):
    """(L, N) on the full spectrum, for ``full_fft_petviashvili``."""
    k = full_wavenumbers(grid)
    if model == "whitham":
        nl = 3.0 * P.c0 / (4.0 * P.H)
        lin = _steady_linear_symbol("whitham", speed, k, P)[None, None]
        return lin, lambda v: nl * np.fft.fft(v * v)
    fa, fb, fc, fd = _abcd_factors(k, GOOD, P)
    lin = np.array([[-speed * fb, P.H * fa], [P.g * fc, -speed * fd]])
    return lin, lambda v: -np.fft.fft(np.stack((v[0] * v[1], 0.5 * v[1] ** 2)))


class TestHalfSpectrumSweep:
    """The solvers sweep on the N/2 + 1 real-FFT modes; these checks hold
    them against the full-spectrum loop written out above."""

    @pytest.mark.parametrize("speed", [1.05 * P.c0, 3.3], ids=["c1.05c0", "c3.3"])
    @pytest.mark.parametrize("nodes", [256, 1024, 2048])
    @pytest.mark.parametrize("model", ["whitham", "boussinesq"])
    def test_matches_full_spectrum_loop(self, model, nodes, speed):
        grid = Grid(max(suggested_domain_length(speed, P), 100.0), nodes)
        z = kdv_soliton(speed, P, grid).profile_zeta.values
        if model == "whitham":
            sol = petviashvili_solve("whitham", speed, P, grid)
            guess, got = z[None], sol.profile_zeta.values[None]
            operator = _scalar_operator("whitham", speed, P, grid)
        else:
            sol = boussinesq_solitary_solve(GOOD, speed, P, grid)
            guess = np.stack((z, speed * z / (P.H + z)))
            got = np.stack((sol.profile_zeta.values, sol.profile_u.values))
            operator = _boussinesq_operator(GOOD, speed, P, grid)
        iterates, sweeps = full_fft_petviashvili(*reference_operator(model, speed, grid), guess)
        # the first sweep, which is never mixed, agrees with the loop's to round-off
        first, _, _, _ = _petviashvili(*operator, guess, grid.parseval_weights, math.inf, 1)
        assert np.max(np.abs(first - iterates[0])) <= 1e-13 * np.max(np.abs(iterates[0][0]))
        # Both stop on an update below tol = 1e-12, so each stands within a
        # few tol of the fixed point: the plain loop, contracting at ~0.6 a
        # sweep, up to 0.6 / 0.4 * tol.  The measured gap is <= 1.7e-12.
        assert np.max(np.abs(got - iterates[sweeps - 1])) <= 4e-12

    @pytest.mark.parametrize("nodes", [4, 6, 64, 1024])
    def test_half_dot_equals_full_vdot(self, nodes):
        rng = np.random.default_rng(nodes)
        a, b = rng.standard_normal((2, 2, nodes))
        weights = Grid(1.0, nodes).parseval_weights
        for x, y in ((a, b), (a, a), (b[:1], a[:1])):
            full = np.real(np.vdot(np.fft.fft(x), np.fft.fft(y)))
            half = np.vdot(np.fft.rfft(x) * weights, np.fft.rfft(y)).real
            assert abs(half - full) <= 1e-13 * abs(full)

    def test_boussinesq_off_centre_iterate_is_centred(self):
        # The first sweep rolls the iterate and turns the phase of its modes.
        # A translate of the solution is a fixed point, so M stays 1 while the
        # modes the next sweep reads match the rolled nodes.
        grid = Grid(suggested_domain_length(3.3, P), 1024)
        sol = boussinesq_solitary_solve(GOOD, 3.3, P, grid)
        state = np.stack((sol.profile_zeta.values, sol.profile_u.values))
        lin, term_hat = _boussinesq_operator(GOOD, 3.3, P, grid)
        v, sweeps, residual, history = _petviashvili(
            lin, term_hat, np.roll(state, -37, axis=-1), grid.parseval_weights, 1e-12, 500)
        assert int(np.argmax(v[0])) == grid.nodes[0] // 2
        assert np.max(np.abs(v - state)) < 1e-10
        assert residual < 1e-10 and sweeps > 1
        assert max(abs(m - 1.0) for m in history) < 1e-9

    @pytest.mark.parametrize("shift", [0, 5, -200])
    def test_centring_keeps_nodes_and_modes_together(self, shift):
        grid = Grid(100.0, 256)
        x = grid.axis_coordinates(0)
        bump = np.exp(-((x - 0.1 * shift) ** 2)) + 0.1 * np.exp(-((x - 0.1 * shift - 3.0) ** 2))
        modes = np.fft.rfft(np.stack((bump, 0.5 * bump**2)))
        v, v_hat, rolled = _symmetrize_centered(modes, grid.nodes[0])
        assert rolled == (shift != 0)
        assert int(np.argmax(v[0])) == grid.nodes[0] // 2
        assert np.array_equal(v[:, 1:], v[:, :0:-1])  # even about x = 0
        assert np.max(np.abs(np.fft.rfft(v) - v_hat)) < 1e-13 * np.max(np.abs(v_hat))


class TestSolverArguments:
    GRID = Grid(200.0, 256)

    @pytest.mark.parametrize("solve", [
        lambda **kw: petviashvili_solve("whitham", 1.05 * P.c0, P, TestSolverArguments.GRID, **kw),
        lambda **kw: petviashvili_continuation("whitham", 1.1 * P.c0, P,
                                               TestSolverArguments.GRID, **kw),
        lambda **kw: boussinesq_solitary_solve(GOOD, 1.05 * P.c0, P, TestSolverArguments.GRID,
                                               **kw),
    ], ids=["petviashvili_solve", "petviashvili_continuation", "boussinesq_solitary_solve"])
    @pytest.mark.parametrize("kwargs, name", [
        ({"max_iter": 0}, "max_iter"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 0.0}, "tol"),
    ], ids=["max_iter_0", "tol_nan", "tol_inf", "tol_0"])
    def test_bad_iteration_arguments_rejected(self, solve, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            solve(**kwargs)

    def test_continuation_needs_a_step(self):
        with pytest.raises(ValueError, match="^steps must be"):
            petviashvili_continuation("whitham", 1.1 * P.c0, P, self.GRID, steps=0)

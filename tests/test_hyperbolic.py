"""Tests for the Saint-Venant system, characteristics, and wavebreaking."""

import math

import numpy as np
import pytest

from wavemodels import (
    BreakingError,
    CavitationError,
    DtControl,
    Grid,
    PhysicalParams,
    SpectralField,
    SVState,
    breaking_time,
    hopf_characteristic_solve,
    hopf_evolve,
    simple_wave_elevation,
    simple_wave_velocity,
    sv_evolve,
    to_riemann,
)
from wavemodels import hyperbolic, spectral
from wavemodels.spectral import evaluate_fields

P = PhysicalParams(9.81, 1.0)
RNG = np.random.default_rng(42)
C0 = math.sqrt(9.81)


class TestRiemannInvariants:
    def test_rest_values(self):
        g = Grid(10.0, 64)
        state = SVState(SpectralField.zeros(g), SpectralField.zeros(g))
        r = to_riemann(state, P)
        # r_pm(rest) = +- 2 sqrt(gH) = +-6.26418390534633
        assert np.max(np.abs(r.r_plus.values - 2 * C0)) < 1e-13
        assert np.max(np.abs(r.r_minus.values + 2 * C0)) < 1e-13

    def test_round_trip_on_random_states(self):
        g = Grid(10.0, 128)
        zeta = SpectralField(g, 0.4 * RNG.uniform(-1.0, 1.0, g.shape))
        u = SpectralField(g, RNG.uniform(-1.0, 1.0, g.shape))
        r = to_riemann(SVState(zeta, u), P)
        celerity = 2.0 * np.sqrt(P.g * (P.H + zeta.values))
        assert np.max(np.abs(r.r_plus.values - (u.values + celerity))) < 1e-13
        assert np.max(np.abs(r.r_minus.values - (u.values - celerity))) < 1e-13
        assert r.r_plus.same_grid(zeta) and r.r_minus.same_grid(zeta)

    def test_cavitating_state_is_refused(self):
        g = Grid(10.0, 64)
        zeta = SpectralField.from_function(g, lambda x: -2.0 * P.H * np.exp(-(x**2)))
        with pytest.raises(CavitationError, match="non-cavitation violated: min depth"):
            to_riemann(SVState(zeta, SpectralField.zeros(g)), P)

    def test_simple_wave_freezes_r_minus(self):
        g = Grid(2 * np.pi, 128)
        zeta = SpectralField.from_function(g, lambda x: 0.1 * np.sin(x))
        u = simple_wave_velocity(zeta, P)
        r = to_riemann(SVState(zeta, u), P)
        assert np.max(np.abs(r.r_minus.values + 2 * C0)) < 1e-13

    def test_simple_wave_relations_are_inverse(self):
        u = np.linspace(-0.5, 0.5, 11)
        zeta = simple_wave_elevation(u, P)
        assert np.max(np.abs(simple_wave_velocity(zeta, P) - u)) < 1e-13


class TestBreakingTime:
    def test_minus_sine_exact(self):
        g = Grid(2 * np.pi, 256)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        assert breaking_time(u0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_nondecreasing_ramp_never_breaks(self):
        # a constant profile: u0' = 0 everywhere, so no characteristics cross
        g = Grid(80.0, 512)
        assert breaking_time(SpectralField(g, np.full(g.shape, 0.25))) == math.inf

    def test_gaussian_bump(self):
        # independent oracle: inf d/dx [0.1 exp(-x^2)] = -0.1 sqrt(2) e^(-1/2)
        # at x = 1/sqrt(2), so T* = 2 / (3 * 0.1 * sqrt(2) * e^(-1/2))
        g = Grid(80.0, 1024)
        u0 = SpectralField.from_function(g, lambda x: 0.1 * np.exp(-(x**2)))
        exact = 2.0 / (3.0 * 0.1 * math.sqrt(2.0) * math.exp(-0.5))
        assert breaking_time(u0) == pytest.approx(exact, rel=1e-9)

    def test_scaling_with_amplitude(self):
        g = Grid(2 * np.pi, 256)
        u0 = SpectralField.from_function(g, lambda x: -0.05 * np.sin(x))
        assert breaking_time(u0) == pytest.approx(2.0 / (3.0 * 0.05), rel=1e-10)

    def test_refinement_makes_few_small_off_grid_calls(self, monkeypatch):
        # the minimum of u0' sits between nodes, so the refinement iterates
        # on the few of its 2N sample points that bracket it
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x - 0.3 * g.spacing[0]))
        sizes = []

        def counted(points, *fields):
            sizes.append(np.size(points))
            return evaluate_fields(points, *fields)

        # SpectralField.evaluate calls spectral.evaluate_fields: count both routes
        monkeypatch.setattr(hyperbolic, "evaluate_fields", counted)
        monkeypatch.setattr(spectral, "evaluate_fields", counted)
        assert breaking_time(u0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert 1 <= len(sizes) <= 10 and max(sizes) <= 4

    def test_nyquist_cosine_keeps_its_slope(self):
        # the interpolant 0.01 cos(32 (x + pi)) of 0.01 (-1)^j has inf u0' = -0.01 * 32,
        # although its spectral derivative, read at the nodes, is zero
        g = Grid(2 * np.pi, 64)
        u0 = SpectralField(g, 0.01 * (-1.0) ** np.arange(64))
        t_star = 2.0 / (3.0 * 0.01 * 32)
        assert breaking_time(u0) == pytest.approx(t_star, rel=1e-12)
        traj = hopf_evolve(SVState(simple_wave_elevation(u0, P), u0), P, 3.0)
        assert traj.halt.reason == "breaking"
        assert traj.halt.time == breaking_time(u0)
        assert traj.times[-1] < t_star

    def test_unresolved_profiles_break_no_later_than_their_interpolant(self):
        # white noise, Gaussians a few nodes wide and random spectra, against a
        # 2^16-node scan of u0', whose values lie at most (pi N / 2^16)^2 / 8 max|u0'|
        # above inf u0' (Bernstein); the Hopf guard reads the same time
        rng = np.random.default_rng(34)
        for trial in range(60):
            n, length = int(rng.choice([16, 32, 64])), float(rng.choice([2 * np.pi, 50.0, 200.0]))
            g = Grid(length, n)
            x = g.axis_coordinates(0)
            if trial % 3 == 0:
                values = rng.standard_normal(n)
            elif trial % 3 == 1:
                width = rng.uniform(0.3, 3.0) * g.spacing[0]
                values = rng.uniform(-1, 1) * np.exp(-(((x - rng.uniform(-0.5, 0.5) * length)
                                                        / width) ** 2))
            else:
                modes = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
                values = np.fft.irfft(modes * rng.uniform(0, 1, n // 2 + 1) ** 3, n)
            u0 = SpectralField(g, values)
            # zero-padded to 2^16 nodes, where the Nyquist cosine is split between modes +-N/2
            padded = np.zeros(2**15 + 1, dtype=complex)
            padded[: n // 2 + 1] = u0.hat * (2**16 / n)
            padded[n // 2] *= 0.5
            scan = np.fft.irfft(1j * Grid(length, 2**16).wavenumbers(0) * padded, 2**16)
            below = (math.pi * n / 2**16) ** 2 / 8.0 * np.max(np.abs(scan))
            t_star = breaking_time(u0)
            assert t_star <= -2.0 / (3.0 * np.min(scan)) * (1.0 + 1e-9)
            assert t_star >= -2.0 / (3.0 * (np.min(scan) - below)) * (1.0 - 1e-9)
            assert hyperbolic._hopf_solver(u0)[1] == t_star


class TestHopfCharacteristics:
    def test_constant_profile_translates(self):
        # every foot carries the constant, off the nodes too, at any t
        g = Grid(2 * np.pi, 64)
        for value, t in ((0.3, 2.0), (0.0, 1e300), (0.3, 1e300)):
            u0 = SpectralField(g, np.full(g.shape, value))
            out = hopf_characteristic_solve(u0, P, t, np.linspace(-3, 3, 17))
            assert np.max(np.abs(out - value)) < 1e-10

    def test_implicit_relation_residual(self):
        # u = -sin(x - (c0 + 1.5 u) t) must hold along characteristics
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        t = 1.0 / 3.0  # half the breaking time
        q = np.linspace(-3.0, 3.0, 101)
        u = hopf_characteristic_solve(u0, P, t, q)
        residual = u + np.sin(q - (P.c0 + 1.5 * u) * t)
        assert np.max(np.abs(residual)) < 1e-8

    def test_implicit_relation_residual_at_half_breaking_time(self):
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        t = 0.5 * breaking_time(u0)
        q = np.linspace(-3.0, 3.0, 101)
        u = hopf_characteristic_solve(u0, P, t, q)
        residual = u + np.sin(q - (P.c0 + 1.5 * u) * t)
        assert np.max(np.abs(residual)) < 1e-12

    def test_feet_on_grid_nodes_take_few_sweeps(self, monkeypatch):
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        t = 0.5 * breaking_time(u0)
        q = g.axis_coordinates(0) + (P.c0 + 1.5 * u0.values) * t
        calls = []

        def counted(points, *fields):
            if fields[0] is u0:
                calls.append(np.size(points))
            return evaluate_fields(points, *fields)

        # u0 and u0' at the feet b = q - c0 t take one shared call, and so
        # does each Newton sweep
        monkeypatch.setattr(hyperbolic, "evaluate_fields", counted)
        u = hopf_characteristic_solve(u0, P, t, q)
        assert calls[0] == q.size and 1 <= len(calls) - 1 <= 5
        assert np.max(np.abs(u - u0.values)) < 1e-14

    def test_gradient_blows_up_near_breaking(self):
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        t = 2.0 / 3.0 - 5e-4
        x_front = P.c0 * t
        q = x_front + np.linspace(-2e-3, 2e-3, 4001)
        u = hopf_characteristic_solve(u0, P, t, q)
        grad = np.max(np.abs(np.diff(u) / np.diff(q)))
        assert grad > 1e3

    def test_raises_at_breaking_time(self):
        g = Grid(2 * np.pi, 256)
        u0 = SpectralField.from_function(g, lambda x: -np.sin(x))
        with pytest.raises(BreakingError):
            hopf_characteristic_solve(u0, P, 0.7, np.array([0.0]))

    def test_callable_profile(self):
        # u0 = 0.1 never breaks, and every characteristic carries 0.1
        g = Grid(2 * np.pi, 256)
        u0 = SpectralField(g, np.full(g.shape, 0.1))
        assert breaking_time(u0) == math.inf
        out = hopf_characteristic_solve(u0, P, 1.0, np.array([0.5]))
        assert out[0] == pytest.approx(0.1, abs=1e-10)

    def test_queries_beyond_one_period(self):
        # queries over three periods move into the sampled one by whole periods
        g = Grid(2 * np.pi, 256)
        u0 = SpectralField.from_function(g, lambda x: -0.5 * np.sin(x))
        t = 0.5 * breaking_time(u0)
        q = np.linspace(-10.0, 10.0, 301)
        u = hopf_characteristic_solve(u0, P, t, q)
        residual = u + 0.5 * np.sin(q - (P.c0 + 1.5 * u) * t)
        assert np.max(np.abs(residual)) < 1e-12

    def test_breaking_location_lies_in_the_domain(self):
        # the crossing point x_j + (c0 + 1.5 u0(x_j)) T* = 157.09 lies a period to the right
        g = Grid(200.0, 1024)
        zeta0 = SpectralField.from_function(g, lambda x: 0.005 * np.exp(-x * x))
        traj = hopf_evolve(SVState(zeta0, simple_wave_velocity(zeta0, P)), P, 200.0)
        assert traj.halt.time == breaking_time(traj.states[0].u) == pytest.approx(49.704, abs=1e-3)
        assert -100.0 <= traj.halt.location < 100.0
        assert traj.halt.location == pytest.approx(157.093 - 200.0, abs=1e-3)

    @pytest.mark.parametrize("sine", [0.0, 0.05])
    def test_nyquist_data_solves_the_foot_relation_of_its_interpolant(self, sine):
        # Newton's slope 1 + 1.5 t u0' is the derivative of its residual only if u0'
        # keeps the slope of u0's Nyquist cosine
        g = Grid(2 * np.pi, 64)
        x = g.axis_coordinates(0)
        u0 = SpectralField(g, 0.01 * (-1.0) ** np.arange(64) + sine * np.sin(x))
        scale = np.max(np.abs(u0.values))
        for t in (0.5 * breaking_time(u0), 0.9 * breaking_time(u0)):
            for q in (x, np.linspace(-3.05, 3.07, 37)):
                u = hopf_characteristic_solve(u0, P, t, q)
                residual = u - u0.evaluate(q - math.remainder(P.c0 * t, 2 * np.pi) - 1.5 * t * u)
                assert np.max(np.abs(residual)) <= 1e-12 * scale

    def test_feet_far_from_breaking_are_solved_at_any_c0_t(self):
        # T* ~ 1e22; at t = 1e19 c0 t ~ 3e19 is reduced by whole periods before
        # any difference, and the feet sit 1.5 t u0 ~ 1.5e-3 behind x - c0 t
        g = Grid(200.0, 256)
        u0 = SpectralField.from_function(g, lambda x: 1e-22 * np.exp(-((0.3 * x) ** 2)))
        t = 1e19
        assert breaking_time(u0) > 1e22
        for q in (g.axis_coordinates(0), np.linspace(-150.0, 150.0, 333)):
            u = hopf_characteristic_solve(u0, P, t, q)
            assert 0.99e-22 < np.max(u) <= 1e-22
            residual = u - u0.evaluate(q - math.remainder(P.c0 * t, 200.0) - 1.5 * u * t)
            assert np.max(np.abs(residual)) <= 1e-13 * 1e-22


def _seed_one_profile():
    """The initial velocity of the seed-1 ``characteristics`` benchmark run."""
    g = Grid(200.0, 1024)
    zeta0 = SpectralField.from_function(
        g, lambda x: 0.04878157876032271 * np.exp(-((x + 3.7732201878239494) ** 2)))
    return simple_wave_velocity(zeta0, P)


def _never_called(*args):
    raise AssertionError("called")


def _counted_newton(monkeypatch, u0):
    """Record the first guesses that ``_newton`` receives for feet of ``u0``, and its
    results; the refinement of the crossing time, on u0', passes through uncounted."""
    calls = []

    def counted(fields, residual, x, *args):
        guesses = x.copy()
        out = newton(fields, residual, x, *args)
        if fields[0] is u0:
            calls.append((guesses, out.copy()))
        return out

    newton = hyperbolic._newton
    monkeypatch.setattr(hyperbolic, "_newton", counted)
    return calls


class TestHopfTranslationSweep:
    """Queries settle where one Newton step from x - c0 t is within tolerance."""

    def test_negligible_profile_is_its_translation(self, monkeypatch):
        g = Grid(200.0, 1024)
        u0 = SpectralField.from_function(g, lambda x: 1e-12 * np.exp(-x * x))
        calls = _counted_newton(monkeypatch, u0)
        x, t = g.axis_coordinates(0), 4.5
        u = hopf_characteristic_solve(u0, P, t, x)
        assert calls == []
        # the feet sit 1.5 t u0 ~ 7e-12 behind x - c0 t: u differs from the bare
        # translation by ~4e-24 = 4e-12 max|u0|, and solves the implicit relation
        assert np.max(np.abs(u - u0.evaluate(x - P.c0 * t))) <= 1e-11 * np.max(u0.values)
        residual = u - u0.evaluate(x - (P.c0 + 1.5 * u) * t)
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(u0.values)

    def test_seed_one_profile_sends_only_the_wave_to_newton(self, monkeypatch):
        u0 = _seed_one_profile()
        x, t = u0.grid.axis_coordinates(0), 0.3 * 15.0
        calls = _counted_newton(monkeypatch, u0)
        u = hopf_characteristic_solve(u0, P, t, x)
        assert len(calls) == 1 and 0 < calls[0][0].size <= 64
        general = hopf_characteristic_solve(u0, P, t, np.append(x, 0.1 * u0.grid.spacing[0]))
        assert len(calls) == 2 and 0 < calls[1][0].size <= 64  # an off-grid query too
        # the two paths start Newton from u0 read by an FFT and by a mode sum, so
        # they agree to the rounding of evaluate_fields (1.6e-15 measured)
        assert np.max(np.abs(u - general[:-1])) <= 5e-15

    def test_profile_without_far_field_matches_general_path(self):
        g = Grid(2 * np.pi, 1024)
        u0 = SpectralField.from_function(g, lambda x: 0.2 * np.sin(x) + 0.1 * np.sin(3.0 * x))
        x, t = g.axis_coordinates(0), 0.5 * breaking_time(u0)
        u = hopf_characteristic_solve(u0, P, t, x)
        general = hopf_characteristic_solve(u0, P, t, np.append(x, 0.1 * u0.grid.spacing[0]))
        assert np.max(np.abs(u - general[:-1])) <= 1e-15

    def test_other_queries_send_only_the_wave_to_newton(self, monkeypatch):
        u0 = _seed_one_profile()
        calls = _counted_newton(monkeypatch, u0)
        solve = hyperbolic._hopf_solver(u0)[0]  # its crossing time reads translate_fields
        monkeypatch.setattr(hyperbolic, "translate_fields", _never_called)
        t = 4.5
        q = np.linspace(-300.0, 300.0, 1500)
        u = solve(P, t, q)
        # three periods of queries: only the ~8 m of each that the wave covers
        [(guesses, result)] = calls
        assert 0 < guesses.size <= 0.05 * q.size
        assert np.all(np.isin(result, u))
        residual = u - u0.evaluate(q - math.remainder(P.c0 * t, 200.0) - 1.5 * u * t)
        assert np.max(np.abs(residual)) <= 1e-14


class TestSVEvolve:
    def test_rest_state_is_equilibrium(self):
        g = Grid(10.0, 128)
        traj = sv_evolve(SVState(SpectralField.zeros(g), SpectralField.zeros(g)), P, 1.0, n_out=2)
        assert traj.halt is None
        assert np.max(np.abs(traj.final_state.zeta.values)) < 1e-14
        assert np.max(np.abs(traj.final_state.u.values)) < 1e-14

    def test_mass_conservation(self):
        g = Grid(2 * np.pi, 256)
        zeta = SpectralField.from_function(g, lambda x: 0.05 * np.cos(x))
        u = SpectralField.from_function(g, lambda x: 0.02 * np.sin(x))
        traj = sv_evolve(SVState(zeta, u), P, 1.0, n_out=4)
        dx = g.spacing[0]
        mass0 = np.sum(traj.states[0].zeta.values) * dx
        for s in traj.states:
            assert abs(np.sum(s.zeta.values) * dx - mass0) < 1e-12

    def test_initial_cavitation_rejected(self):
        g = Grid(10.0, 64)
        zeta = SpectralField(g, np.full(g.shape, -1.5))
        with pytest.raises(CavitationError):
            sv_evolve(SVState(zeta, SpectralField.zeros(g)), P, 1.0)

    def test_explicit_dt_must_respect_cfl(self):
        g = Grid(2 * np.pi, 128)
        zeta = SpectralField.from_function(g, lambda x: 0.01 * np.cos(x))
        state = SVState(zeta, SpectralField.zeros(g))
        with pytest.raises(ValueError, match="CFL"):
            sv_evolve(state, P, 1.0, DtControl(dt=1.0))

    def test_simple_wave_r_minus_frozen(self):
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -0.05 * np.sin(x))
        state = SVState(simple_wave_elevation(u0, P), u0)
        t_star = breaking_time(u0)
        traj = sv_evolve(state, P, 0.5 * t_star, DtControl(cfl=0.6), n_out=4)
        for s in traj.states:
            r = to_riemann(s, P)
            assert np.max(np.abs(r.r_minus.values + 2 * C0)) < 1e-4

    def test_agrees_with_characteristic_solution(self):
        g = Grid(2 * np.pi, 1024)
        u0 = SpectralField.from_function(g, lambda x: -0.05 * np.sin(x))
        state = SVState(simple_wave_elevation(u0, P), u0)
        t_star = breaking_time(u0)
        traj = sv_evolve(state, P, 0.5 * t_star, DtControl(cfl=0.6), n_out=2)
        exact = hopf_characteristic_solve(u0, P, 0.5 * t_star, g.axis_coordinates(0))
        assert np.max(np.abs(traj.final_state.u.values - exact)) < 1e-4

    def test_breaking_halt_with_resolvable_threshold(self):
        # larger-amplitude wave so the blow-up is resolvable on a small grid
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -0.2 * np.sin(x))
        state = SVState(simple_wave_elevation(u0, P), u0)
        t_star = breaking_time(u0)
        traj = sv_evolve(
            state, P, 1.3 * t_star, DtControl(cfl=0.6), n_out=13, blowup_threshold=5.0
        )
        assert traj.halt is not None
        assert traj.halt.reason == "breaking"
        assert abs(traj.halt.time - t_star) < 0.05 * t_star
        assert abs(traj.halt.breaking_time_estimate - t_star) < 0.03 * t_star

    def test_depth_stays_positive_along_smooth_run(self):
        g = Grid(2 * np.pi, 512)
        u0 = SpectralField.from_function(g, lambda x: -0.1 * np.sin(x))
        state = SVState(simple_wave_elevation(u0, P), u0)
        traj = sv_evolve(state, P, 0.8 * breaking_time(u0), DtControl(cfl=0.6), n_out=8)
        for s in traj.states:
            assert np.min(P.H + s.zeta.values) > 0.0


class TestRiemannTransport:
    def test_invariants_constant_along_characteristic_curves(self):
        # integrate x' = (3 r_pm + r_mp)/4 through stored snapshots and check
        # the interpolated invariant drifts below 1e-3
        g = Grid(2 * np.pi, 1024)
        zeta = SpectralField.from_function(g, lambda x: 0.02 * np.cos(x))
        u = SpectralField.from_function(g, lambda x: 0.01 * np.sin(2 * x))
        n_steps = 400
        traj = sv_evolve(SVState(zeta, u), P, 1.0, n_out=n_steps)
        pairs = [to_riemann(s, P) for s in traj.states]
        times = [s.time for s in traj.states]
        dt = times[1] - times[0]

        for sign in (+1, -1):
            x = 0.5
            r_of = lambda k, xq: (
                (pairs[k].r_plus if sign > 0 else pairs[k].r_minus).evaluate([xq])[0]
            )
            other_of = lambda k, xq: (
                (pairs[k].r_minus if sign > 0 else pairs[k].r_plus).evaluate([xq])[0]
            )
            r_start = r_of(0, x)
            for k in range(n_steps):
                speed = (3.0 * r_of(k, x) + other_of(k, x)) / 4.0
                x_mid = x + 0.5 * dt * speed
                speed_mid = (
                    3.0 * 0.5 * (r_of(k, x_mid) + r_of(k + 1, x_mid))
                    + 0.5 * (other_of(k, x_mid) + other_of(k + 1, x_mid))
                ) / 4.0
                x = x + dt * speed_mid
            drift = abs(r_of(n_steps, x) - r_start)
            assert drift < 1e-3

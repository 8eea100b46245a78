"""Tests for the exact linear propagators and dispersion analysis."""

import math

import numpy as np
import pytest

from wavemodels import (
    AbcdParams,
    AiryState,
    Grid,
    GridMismatchError,
    PhysicalParams,
    SpectralField,
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

from wavemodels.dispersive import _abcd_symbols
from wavemodels.linear import _SERIES_THRESHOLD, mode_propagator

P = PhysicalParams(9.81, 1.0)
RNG = np.random.default_rng(7)

C0 = math.sqrt(9.81)  # 3.1320919526731652


def gaussian_state(grid, amplitude, width):
    zeta = SpectralField.from_function(grid, lambda x: amplitude * np.exp(-((width * x) ** 2)))
    return AiryState(zeta, SpectralField.zeros(grid))


class TestAcoustic:
    def test_time_zero_identity(self):
        g = Grid(200.0, 256)
        z0 = SpectralField.from_function(g, lambda x: 0.01 * np.exp(-(x**2)))
        zt0 = SpectralField.zeros(g)
        out = acoustic_evolve(z0, zt0, P, 0.0)
        assert np.array_equal(out.values, z0.values)

    def test_single_mode_half_period(self):
        # cos(x) with c0 t = pi flips sign: the cos(c0 |xi| t) factor at |xi| = 1
        g = Grid(2 * np.pi, 128)
        z0 = SpectralField.from_function(g, np.cos)
        out = acoustic_evolve(z0, SpectralField.zeros(g), P, np.pi / P.c0)
        assert np.max(np.abs(out.values + z0.values)) < 1e-12

    def test_dalembert_split(self):
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.01 * np.exp(-((0.1 * x) ** 2)))
        out = acoustic_evolve(z0, SpectralField.zeros(g), P, 15.0)
        x = g.axis_coordinates(0)
        exact = 0.005 * np.exp(-((0.1 * (x - P.c0 * 15.0)) ** 2)) + 0.005 * np.exp(
            -((0.1 * (x + P.c0 * 15.0)) ** 2)
        )
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_mean_mode_grows_linearly(self):
        g = Grid(10.0, 64)
        z0 = SpectralField.zeros(g)
        zt0 = SpectralField(g, np.full(g.shape, 0.25))
        out = acoustic_evolve(z0, zt0, P, 3.0)
        assert np.max(np.abs(out.values - 0.75)) < 1e-13

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            acoustic_evolve(
                SpectralField.zeros(Grid(10.0, 64)), SpectralField.zeros(Grid(10.0, 128)), P, 1.0
            )


class TestModePropagator:
    """mode_propagator(w, a, b, t) against scipy's expm of t [[0, a], [b, 0]]."""

    @staticmethod
    def generators(xi):
        """(w, a, b) of the acoustic, Airy and linear abcd modes at |xi|."""
        wa, wy = P.c0 * xi, omega(xi, P)
        alpha, beta, _, _, _ = _abcd_symbols(xi, AbcdParams(-1 / 3, 1 / 3, 0.0, 1 / 3), P)
        return [(wa, 1.0, -wa * wa), (wy, wy * wy / P.g, -P.g),
                (xi * math.sqrt(alpha * beta), -1j * xi * alpha, -1j * xi * beta)]

    @pytest.mark.parametrize("kind", ["acoustic", "airy", "abcd"])
    def test_matches_matrix_exponential(self, kind):
        from scipy.linalg import expm

        index = ["acoustic", "airy", "abcd"].index(kind)
        rng = np.random.default_rng(3)  # |xi| <= 3, t <= 5 keep expm's own error below ~7e-13
        for xi, t in zip([0.0, *rng.uniform(0.0, 3.0, 40)], [2.0, *rng.uniform(0.0, 5.0, 40)]):
            w, a, b = self.generators(xi)[index]
            m11, m12, m21 = mode_propagator(np.array([w]), a, b, t)
            got = np.array([[m11[0], m12[0]], [m21[0], m11[0]]])
            want = expm(t * np.array([[0.0, a], [b, 0.0]]))
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestAiryPropagator:
    def test_identity_at_time_zero(self):
        m = airy_propagator(0.7, P, 0.0)
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_zero_mode_limit(self):
        m = airy_propagator(0.0, P, 2.5)
        assert np.allclose(m, [[1.0, 0.0], [-9.81 * 2.5, 1.0]], atol=1e-15)

    def test_determinant_one_on_samples(self):
        xis = RNG.uniform(0.0, 10.0, 200)
        ts = RNG.uniform(0.0, 100.0, 200)
        for xi, t in zip(xis, ts):
            m = airy_propagator(xi, P, t)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_semigroup_property(self):
        xis = RNG.uniform(0.0, 10.0, 50)
        t1s = RNG.uniform(0.0, 50.0, 50)
        t2s = RNG.uniform(0.0, 50.0, 50)
        for xi, t1, t2 in zip(xis, t1s, t2s):
            lhs = airy_propagator(xi, P, t1) @ airy_propagator(xi, P, t2)
            rhs = airy_propagator(xi, P, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_matches_generic_matrix_exponential(self):
        # independent oracle: expm of the mode generator [[0, G0], [-g, 0]]
        from scipy.linalg import expm

        for xi in (0.3, 1.0, 4.7):
            for t in (0.1, 2.0, 9.3):
                g0 = xi * math.tanh(xi)  # H = 1
                generator = np.array([[0.0, g0], [-P.g, 0.0]])
                assert np.max(np.abs(airy_propagator(xi, P, t) - expm(generator * t))) < 1e-12


class TestAiryEvolve:
    def test_time_zero_identity(self):
        s = gaussian_state(Grid(200.0, 256), 0.01, 1.0)
        out = airy_evolve(s, P, 0.0)
        assert np.max(np.abs(out.zeta.values - s.zeta.values)) < 1e-14

    def test_quadratic_invariant_conserved(self):
        s = gaussian_state(Grid(200.0, 512), 0.01, 1.0)
        e0 = airy_quadratic_energy(s, P)
        for t in np.linspace(0.0, 100.0, 11):
            drift = abs(airy_quadratic_energy(airy_evolve(s, P, t), P) - e0)
            assert drift < 1e-10 * e0

    @pytest.mark.parametrize("grid", [Grid(200.0, 512), Grid((60.0, 40.0), (64, 32), dim=2)],
                             ids=["1d", "2d"])
    def test_quadratic_energy_is_parseval(self, grid):
        # psi = 0: g/2 int zeta^2 dx; zeta = 0: (1/2g) int psi omega(|D|)^2 psi dx
        zeta = SpectralField(grid, RNG.standard_normal(grid.shape))
        psi = SpectralField(grid, RNG.standard_normal(grid.shape))
        zeros = SpectralField.zeros(grid)
        want = 0.5 * P.g * np.sum(zeta.values**2) * grid.cell_volume
        got = airy_quadratic_energy(AiryState(zeta, zeros), P)
        assert abs(got - want) <= 1e-12 * want
        w2_psi = SpectralField.from_hat(grid, omega(grid.wavenumber_magnitude(), P) ** 2 * psi.hat)
        want = 0.5 / P.g * np.sum(psi.values * w2_psi.values) * grid.cell_volume
        got = airy_quadratic_energy(AiryState(zeros, psi), P)
        assert abs(got - want) <= 1e-12 * want

    def test_wide_gaussian_close_to_acoustic(self):
        g = Grid(200.0, 1024)
        z0 = SpectralField.from_function(g, lambda x: 0.01 * np.exp(-((0.1 * x) ** 2)))
        zt0 = SpectralField.zeros(g)
        airy = airy_evolve(AiryState(z0, zt0), P, 15.0)
        acoustic = acoustic_evolve(z0, zt0, P, 15.0)
        rel = np.linalg.norm(airy.zeta.values - acoustic.values) / np.linalg.norm(acoustic.values)
        assert rel < 0.05

    def test_rotation_commutes_in_2d(self):
        g = Grid(100.0, 128, dim=2)
        x, y = g.meshgrid()
        z0 = SpectralField(g, 0.01 * np.exp(-(((x - 3) ** 2) + (y + 5) ** 2)))
        psi0 = SpectralField.zeros(g)
        evolved = airy_evolve(AiryState(z0, psi0), P, 5.0)
        rotated = SpectralField(g, np.rot90(z0.values).copy())
        evolved_rotated = airy_evolve(AiryState(rotated, psi0), P, 5.0)
        err = np.max(np.abs(np.rot90(evolved.zeta.values) - evolved_rotated.zeta.values))
        assert err < 1e-14


class TestVelocities:
    def test_long_wave_limit(self):
        assert phase_velocity(0.0, P) == pytest.approx(C0, abs=1e-12)
        assert group_velocity(0.0, P) == pytest.approx(C0, abs=1e-12)

    def test_phase_velocity_at_unit_depth_wavenumber(self):
        # independent oracle: cp(1) = sqrt(g tanh(1)) = 2.7333566671632985
        assert phase_velocity(1.0, P) == pytest.approx(math.sqrt(9.81 * math.tanh(1.0)), abs=1e-13)

    def test_deep_water_ratio_one_half(self):
        ratio = group_velocity(50.0, P) / phase_velocity(50.0, P)
        assert 0.49 <= ratio <= 0.51

    def test_ordering_on_dense_sample(self):
        xi = np.linspace(1e-8, 100.0, 10000)
        cp, cg = phase_velocity(xi, P), group_velocity(xi, P)
        assert np.all(cg <= cp + 1e-12)
        assert np.all(cp <= P.c0 + 1e-12)

    def test_group_velocity_is_omega_prime(self):
        # complex-step derivative of omega(xi) = sqrt(g xi tanh(H xi)): exact to round-off
        xi = np.linspace(1e-6, 60.0, 5000)
        h = 1e-30
        z = xi + 1j * h
        step = np.imag(np.sqrt(P.g * z * np.tanh(P.H * z))) / h
        assert np.max(np.abs(group_velocity(xi, P) - step)) < 1e-12

    def test_group_velocity_matches_closed_form_on_both_signs(self):
        # cg = c0 [ (1/2)(tanh mu/mu)^(1/2) + (sech^2 mu/2)(mu/tanh mu)^(1/2) ], mu = H|xi|
        xi = np.concatenate([np.linspace(-60.0, 60.0, 12001), np.linspace(-0.02, 0.02, 4001)])
        mu = P.H * np.abs(xi[xi != 0.0])
        T = np.tanh(mu)
        closed = np.full_like(xi, C0)
        closed[xi != 0.0] = C0 * (0.5 * np.sqrt(T / mu) + 0.5 * (1.0 - T * T) * np.sqrt(mu / T))
        assert np.max(np.abs(group_velocity(xi, P) - closed) / closed) < 1e-15


class TestOmegaDerivatives:
    """Closed-form derivatives cross-checked against central differences."""

    @pytest.mark.parametrize("xi", [1e-4, 5e-3, 0.02, 0.1, 1.0, 5.0, 50.0])
    def test_first_derivative(self, xi):
        h = 1e-6 * max(xi, 1e-2)
        fd = (omega(xi + h, P) - omega(xi - h, P)) / (2 * h)
        assert omega_prime(xi, P) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("xi", [1e-4, 5e-3, 0.02, 0.1, 1.0, 5.0, 50.0])
    def test_second_derivative(self, xi):
        h = 1e-5 * max(xi, 1e-2)
        fd = (omega_prime(xi + h, P) - omega_prime(xi - h, P)) / (2 * h)
        assert omega_double_prime(xi, P) == pytest.approx(fd, abs=1e-6)

    def test_second_derivative_finite_where_h_xi_overflows(self):
        # H xi = 1e350 overflows to inf; deep water gives -sqrt(g)/4 xi^(-3/2)
        with np.errstate(over="ignore"):
            assert omega_double_prime(1e150, PhysicalParams(H=1e200)) == pytest.approx(
                -0.25 * math.sqrt(9.81) * 1e150**-1.5, rel=1e-12)
            # the true value, -7.8e-451, underflows
            assert omega_double_prime(1e300, PhysicalParams(H=1e10)) == 0.0
            sweep = omega_double_prime(np.geomspace(1e-3, 1e308, 400), PhysicalParams(H=1e10))
        assert np.all(np.isfinite(sweep)) and np.all(sweep <= 0.0)

    @pytest.mark.parametrize("derivative", [omega_prime, omega_double_prime])
    def test_series_meets_closed_form_at_threshold(self, derivative):
        # the last series point and the first closed-form point, mu = H|xi| either side
        below, at = np.nextafter(_SERIES_THRESHOLD, 0.0) / P.H, _SERIES_THRESHOLD / P.H
        series, closed = derivative(below, P), derivative(at, P)
        assert abs(series - closed) <= 1e-10 * abs(closed)

    @pytest.mark.parametrize("derivative", [omega_prime, omega_double_prime])
    def test_even_in_xi(self, derivative):
        # both the series branch (H|xi| < 0.01) and the closed form
        xi = np.concatenate([np.geomspace(1e-8, 0.0099, 200), np.linspace(0.01, 60.0, 2000)])
        assert np.array_equal(derivative(-xi, P), derivative(xi, P))
        assert derivative(-2.5, P) == derivative(2.5, P)


class TestRayAsymptotics:
    @staticmethod
    def gaussian_hat(xi):
        # continuum transform of 0.01 exp(-x^2) under fhat = int f e^{-i xi x}
        return 0.01 * math.sqrt(math.pi) * math.exp(-(xi**2) / 4.0)

    @staticmethod
    def zero_hat(xi):
        return 0.0

    def test_outside_cone(self):
        r = ray_asymptotics(2.0 * P.c0, self.gaussian_hat, self.zero_hat, P)
        assert r.regime == "outside_cone"
        assert r.decay_exponent == -math.inf

    def test_edge(self):
        r = ray_asymptotics(P.c0, self.gaussian_hat, self.zero_hat, P)
        assert r.regime == "edge"
        assert r.decay_exponent == pytest.approx(-1.0 / 3.0)
        assert r.stationary_wavenumber == 0.0
        assert r.amplitude_coefficient > 0.0

    def test_interior_stationary_point_solves_group_condition(self):
        c = 0.5 * P.c0
        r = ray_asymptotics(c, self.gaussian_hat, self.zero_hat, P)
        assert r.regime == "interior"
        assert r.decay_exponent == pytest.approx(-0.5)
        assert abs(omega_prime(r.stationary_wavenumber, P) - c) < 1e-8

    def test_negative_speed_symmetric(self):
        r1 = ray_asymptotics(0.5 * P.c0, self.gaussian_hat, self.zero_hat, P)
        r2 = ray_asymptotics(-0.5 * P.c0, self.gaussian_hat, self.zero_hat, P)
        assert r2.regime == "interior"
        assert r1.stationary_wavenumber == pytest.approx(r2.stationary_wavenumber)

    def test_zero_speed_unsupported(self):
        with pytest.raises(ValueError, match="c = 0"):
            ray_asymptotics(0.0, self.gaussian_hat, self.zero_hat, P)


class TestLargeTimeDecay:
    """Envelope measurements along rays versus the stationary-phase laws."""

    def setup_method(self):
        self.times = np.arange(50.0, 201.0, 25.0)

    def measure_slope(self, grid_length, nodes, c, window):
        grid = Grid(grid_length, nodes)
        state = gaussian_state(grid, 0.01, 1.0)
        env = sample_ray_envelope(state, P, c, self.times, window)
        return np.polyfit(np.log(self.times), np.log(env), 1)[0]

    def test_interior_ray_slope(self):
        r = ray_asymptotics(0.5 * P.c0, TestRayAsymptotics.gaussian_hat,
                            TestRayAsymptotics.zero_hat, P)
        window = 2 * math.pi / r.stationary_wavenumber
        slope = self.measure_slope(1500.0, 2048, 0.5 * P.c0, window)
        assert abs(slope + 0.5) < 0.08

    def test_edge_ray_slope(self):
        slope = self.measure_slope(1500.0, 2048, P.c0, 25.0)
        assert abs(slope + 1.0 / 3.0) < 0.08

    def test_periodization_insensitivity(self):
        # doubling the domain at fixed spacing leaves the fitted slope alone
        r = ray_asymptotics(0.5 * P.c0, TestRayAsymptotics.gaussian_hat,
                            TestRayAsymptotics.zero_hat, P)
        window = 2 * math.pi / r.stationary_wavenumber
        s1 = self.measure_slope(1500.0, 2048, 0.5 * P.c0, window)
        s2 = self.measure_slope(3000.0, 4096, 0.5 * P.c0, window)
        assert abs(s1 - s2) < 0.02

    def test_interior_coefficient_ratio_is_time_stable(self):
        # The measured envelope tracks coeff * t^(-1/2) up to a fixed O(1)
        # factor from the Fourier convention (two conjugate stationary
        # points); the ratio must be constant in time.
        c = 0.5 * P.c0
        r = ray_asymptotics(c, TestRayAsymptotics.gaussian_hat,
                            TestRayAsymptotics.zero_hat, P)
        grid = Grid(1500.0, 2048)
        env = sample_ray_envelope(gaussian_state(grid, 0.01, 1.0), P, c,
                                  self.times, 2 * math.pi / r.stationary_wavenumber)
        ratio = env * np.sqrt(self.times) / r.amplitude_coefficient
        assert 1.0 < ratio.mean() < 8.0
        assert np.std(ratio) / np.mean(ratio) < 0.02

    def test_causality_energy_outside_cone(self):
        grid = Grid(1500.0, 2048)
        state = gaussian_state(grid, 0.01, 1.0)
        x = grid.axis_coordinates(0)
        for t in (50.0, 150.0):
            zt = airy_evolve(state, P, t).zeta.values
            outside = np.abs(x) > P.c0 * t + 30.0
            frac = np.sum(zt[outside] ** 2) / np.sum(zt**2)
            assert frac < 1e-6


class TestAcoustic2D:
    def test_amplitude_decay_and_causality(self):
        grid = Grid(100.0, 256, dim=2)
        x, y = grid.meshgrid()
        z0 = SpectralField(grid, 0.01 * np.exp(-(x**2 + y**2)))
        zt0 = SpectralField.zeros(grid)
        ts = np.linspace(4.0, 12.0, 9)
        amps = [np.max(np.abs(acoustic_evolve(z0, zt0, P, t).values)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(amps), 1)[0]
        assert abs(slope + 0.5) < 0.15

        zt = acoustic_evolve(z0, zt0, P, 12.0).values
        outside = np.sqrt(x**2 + y**2) > P.c0 * 12.0 + 8.0
        assert np.sum(zt[outside] ** 2) / np.sum(zt**2) < 1e-6

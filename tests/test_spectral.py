"""Tests for the spectral substrate: grids, their symbols, transforms, derivatives."""

import numpy as np
import pytest

from wavemodels import Grid, SpectralField, derivative
from wavemodels.spectral import evaluate_fields, spectral_tail, translate_fields

RNG = np.random.default_rng(20260808)


def random_field(grid):
    return SpectralField(grid, RNG.standard_normal(grid.shape))


def dealias(f):
    return SpectralField.from_hat(f.grid, f.grid.dealias_mask() * f.hat)


class TestGrid:
    def test_spacing_is_exact_ratio(self):
        g = Grid(200.0, 1024)
        assert g.spacing[0] == 200.0 / 1024

    def test_wavenumbers_form_symmetric_set(self):
        # rfftn layout: k = 0 .. N/2 on the last axis, the symmetric set on the others
        assert np.allclose(Grid(2 * np.pi, 16).wavenumbers(0), np.arange(9), atol=1e-14)
        g = Grid(2 * np.pi, (16, 8), dim=2)
        assert np.allclose(np.sort(g.wavenumbers(0)), np.arange(-8, 8), atol=1e-14)
        assert np.allclose(g.wavenumbers(1), np.arange(5), atol=1e-14)

    def test_coordinates_centered(self):
        g = Grid(10.0, 10)
        x = g.axis_coordinates(0)
        assert x[0] == -5.0
        assert x[g.nodes[0] // 2] == 0.0

    @pytest.mark.parametrize("nodes", [3, 7, 2, 0, -4])
    def test_rejects_bad_node_counts(self, nodes):
        with pytest.raises(ValueError):
            Grid(1.0, nodes)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(0.0, 16)

    def test_2d_per_axis_values(self):
        g = Grid((100.0, 50.0), (64, 32), dim=2)
        assert g.spacing == (100.0 / 64, 50.0 / 32)
        assert g.wavenumber_magnitude().shape == (64, 17)

    @pytest.mark.parametrize("nodes", [16.7, float("nan"), float("inf"), "16", True])
    def test_rejects_non_integral_node_counts(self, nodes):
        with pytest.raises(ValueError, match="integer"):
            Grid(1.0, nodes)

    def test_integral_float_node_count_accepted(self):
        assert Grid(1.0, 16.0).nodes == (16,)


class TestGridSymbols:
    def test_ik_is_read_only_and_matches_first_derivative(self):
        g = Grid(50.0, 256)
        f = random_field(g)
        assert not g.ik.flags.writeable
        with pytest.raises(ValueError):
            g.ik[0, 1] = 0.0
        # derivative keeps the Nyquist slope, a sine that changes no node value
        for order in (1, 3):
            out = SpectralField.from_hat(g, g.ik[0] ** order * f.hat)
            assert np.array_equal(out.values, derivative(f, order=order).values)

    def test_2d_ik_zeroes_each_axis_nyquist_only(self):
        g = Grid((2 * np.pi, 4.0), (32, 16), dim=2)
        kx, ky = g.wavenumber_mesh()
        expect_x, expect_y = 1j * kx, 1j * ky
        expect_x[16, :] = 0.0
        expect_y[:, 8] = 0.0
        assert g.ik.shape == (2, 32, 9)
        assert np.array_equal(g.ik[0], expect_x)
        assert np.array_equal(g.ik[1], expect_y)

    def test_symbols_cached_once_and_read_only(self):
        g = Grid((100.0, 50.0), (64, 32), dim=2)
        for get in (lambda: g.ik, lambda: g.k2, g.wavenumber_magnitude,
                    g.dealias_mask, lambda: g.wavenumbers(1)):
            assert get() is get()
            assert not get().flags.writeable
        kx, ky = g.wavenumber_mesh()
        assert np.array_equal(g.k2, kx**2 + ky**2)
        assert np.array_equal(g.wavenumber_magnitude(), np.sqrt(kx**2 + ky**2))

    def test_2d_symbols_mask_and_spectra_share_the_rfftn_shape(self):
        g = Grid((2 * np.pi, 4.0), (32, 16), dim=2)
        f = random_field(g)
        assert f.hat.shape == (32, 9)
        for symbol in (g.k2, g.wavenumber_magnitude(), g.dealias_mask()):
            assert symbol.shape == (32, 9)
        assert g.parseval_weights.shape == (9,)
        rows = np.abs(np.fft.fftfreq(32, d=1.0 / 32)) <= 10
        cols = np.arange(9) <= 5
        assert np.array_equal(g.dealias_mask(), rows[:, None] & cols[None, :])
        full = np.fft.fft2(f.values)
        assert np.max(np.abs(f.hat - full[:, :9])) <= 1e-13 * np.max(np.abs(full))


class TestTransformContract:
    def test_roundtrip_1d(self):
        f = random_field(Grid(200.0, 512))
        back = SpectralField.from_hat(f.grid, f.hat)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_roundtrip_2d(self):
        f = random_field(Grid(10.0, 64, dim=2))
        back = SpectralField.from_hat(f.grid, f.hat)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_real_field_has_hermitian_coefficients(self):
        # columns 0 and N/2 of the last axis hold their own conjugates
        f = random_field(Grid(50.0, (64, 128), dim=2))
        edges = f.hat[:, [0, -1]]
        mirrored = np.conj(edges[(-np.arange(64)) % 64])
        assert np.max(np.abs(edges - mirrored)) <= 1e-10 * np.max(np.abs(edges))

    def test_parseval(self):
        for g in (Grid(200.0, 512), Grid((200.0, 30.0), (64, 32), dim=2)):
            f = random_field(g)
            physical = np.sum(f.values**2) * g.cell_volume
            modes = np.sum(g.parseval_weights * np.abs(f.hat) ** 2)
            coeff = modes * g.cell_volume / np.prod(g.nodes)
            assert abs(physical - coeff) <= 1e-12 * physical

    def test_coefficients_match_naive_dft(self):
        # independent transform oracle: O(N^2) direct summation over k = 0 .. N/2
        g = Grid(7.0, 32)
        f = random_field(g)
        n = g.nodes[0]
        j = np.arange(n)
        naive = np.array([np.sum(f.values * np.exp(-2j * np.pi * k * j / n))
                          for k in range(n // 2 + 1)])
        assert f.hat.shape == naive.shape
        assert np.max(np.abs(f.hat - naive)) < 1e-11 * np.max(np.abs(naive))

    def test_evaluate_matches_nodes_and_off_grid(self):
        g = Grid(2 * np.pi, 64)
        f = SpectralField.from_function(g, lambda x: np.sin(3 * x) + 0.5 * np.cos(x))
        xs = g.axis_coordinates(0)
        assert np.max(np.abs(f.evaluate(xs) - f.values)) < 1e-12
        pts = np.array([0.1234, -2.7, 1.0])
        exact = np.sin(3 * pts) + 0.5 * np.cos(pts)
        assert np.max(np.abs(f.evaluate(pts) - exact)) < 1e-12

    def test_nyquist_mode_is_a_cosine_off_grid(self):
        g = Grid(7.0, 32)
        L, n = g.length[0], g.nodes[0]
        k_nyq = np.pi * n / L
        f = SpectralField(g, np.cos(k_nyq * (g.axis_coordinates(0) + 0.5 * L)))
        pts = np.array([-3.4, -1.01, 0.123, 2.5, 9.9])
        assert np.max(np.abs(f.evaluate(pts) - np.cos(k_nyq * (pts + 0.5 * L)))) < 1e-12


def direct_sum(values, length, points, order=0):
    """The interpolant, or its derivative of the given order, as a sum over every
    two-sided mode, and the sum of the moduli of the summed coefficients.

    Modes k = -N/2+1 .. N/2-1 are complex exponentials; the Nyquist mode,
    which has no partner, is a cosine, and its odd derivatives sines.
    """
    n = values.size
    coef = np.fft.fft(values) / n
    shifted = np.asarray(points, dtype=float) + 0.5 * length
    total = np.zeros(shifted.size, dtype=complex)
    scale = 0.0
    for k, c in zip(np.fft.fftfreq(n, d=1.0 / n), coef):
        xi = 2.0 * np.pi * k / length
        mode = (1j * xi) ** order * np.exp(1j * (shifted * xi))
        total += c * (mode.real if k == -n // 2 else mode)
        scale += abs(c) * abs(xi) ** order
    return total.real, scale


class TestEvaluateAgainstDirectSum:
    """``evaluate`` against a dense sum over every mode, written here."""

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025, 2500])
    @pytest.mark.parametrize("nodes", [4, 8, 10, 64, 1024, 2048])
    def test_random_field(self, nodes, count):
        # K = N/2 + 1 modes: N = 8 has K - 1 = 4 a perfect square, N = 10
        # fills its mode block exactly and the rest pad the last row; the
        # point counts straddle the 1024-point blocks
        rng = np.random.default_rng(nodes * 10007 + count)
        g = Grid(7.3, nodes)
        f = SpectralField(g, rng.standard_normal(nodes))
        pts = rng.uniform(-7.3, 7.3, count)
        ref, scale = direct_sum(f.values, 7.3, pts)
        got = f.evaluate(pts)
        assert got.shape == (count,)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("nodes", [4, 10, 64, 1024, 2048])
    def test_nyquist_only_field(self, nodes):
        # A double phase k*theta is off by up to eps*|k*theta| in any
        # evaluation, the direct sum's included; one top mode shows all of it
        # (at N = 2048 the direct sum is 1e-12 off an extended-precision cosine).
        g = Grid(3.0, nodes)
        f = SpectralField(g, (-1.0) ** np.arange(nodes))
        pts = np.linspace(-4.0, 4.0, 1500)
        ref, scale = direct_sum(f.values, 3.0, pts)
        theta_max = (nodes // 2) * 2.0 * np.pi * (4.0 + 1.5) / 3.0
        phase_rounding = 2.0 * np.finfo(float).eps * theta_max
        assert np.max(np.abs(f.evaluate(pts) - ref)) <= (1e-13 + phase_rounding) * scale

    def test_repeated_calls_return_identical_bits(self):
        g = Grid(7.3, 1024)
        f = random_field(g)
        pts = np.linspace(-5.0, 5.0, 3001)
        first = f.evaluate(pts)
        assert np.array_equal(f.evaluate(pts), first)
        assert np.array_equal(SpectralField(g, f.values).evaluate(pts), first)

    def test_derived_fields_evaluate_their_own_values(self):
        # the parent's mode block is cached before the fields are derived; its
        # Nyquist cosine has odd derivatives that are sines, zero at the nodes
        g = Grid(7.3, 64)
        f = random_field(g)
        pts = np.linspace(-4.0, 4.0, 301)
        f.evaluate(pts)
        for order in (1, 2, 3, 4):
            ref, scale = direct_sum(f.values, 7.3, pts, order)
            assert np.max(np.abs(derivative(f, order=order).evaluate(pts) - ref)) <= 1e-13 * scale


class TestEvaluateFields:
    """Fields evaluated together share the phase tables and nothing else."""

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("nodes", [64, 1024, 2048])
    @pytest.mark.parametrize("n_fields", [2, 3])
    def test_each_row_is_the_fields_own_evaluation_bit_for_bit(self, n_fields, nodes, count):
        # point counts straddle the 1024-point blocks, and the points run
        # a period past each end of [-L/2, L/2)
        rng = np.random.default_rng(nodes * 7 + count * 3 + n_fields)
        g = Grid(7.3, nodes)
        u = SpectralField(g, rng.standard_normal(nodes))
        fields = [u, derivative(u), SpectralField(g, rng.standard_normal(nodes))][:n_fields]
        pts = rng.uniform(-11.0, 11.0, count)
        together = evaluate_fields(pts, *fields)
        assert together.shape == (n_fields, count)
        for row, f in zip(together, fields):
            assert np.array_equal(row, f.evaluate(pts))
        assert np.array_equal(evaluate_fields(pts, *fields[::-1]), together[::-1])

    def test_far_points_take_the_values_of_their_period_images(self):
        # 2^40 periods away: the nodes are exact there, and a phase k (x + L/2)
        # summed in place would lose ~1e-2 of its angle
        f = random_field(Grid(1.0, 16))
        x = f.grid.axis_coordinates(0)
        far = evaluate_fields(np.concatenate([x + 2.0**40, x - 2.0**40]), f)[0]
        assert np.max(np.abs(far - np.tile(f.values, 2))) < 1e-13
        # at 1e50 periods the phase itself would overflow
        flat = SpectralField(Grid(1e-300, 64), np.full(64, 6.0e50))
        with np.errstate(all="raise"):
            assert np.array_equal(evaluate_fields([-1e50, 1e50], flat)[0], [6.0e50, 6.0e50])

    def test_fields_on_different_grids_are_refused(self):
        with pytest.raises(ValueError, match="one grid"):
            evaluate_fields([0.0], random_field(Grid(7.3, 64)), random_field(Grid(7.3, 32)))


class TestTranslateFields:
    """Node values of translated fields, from one inverse real FFT."""

    @pytest.mark.parametrize("shift", [0.0, 0.37, -2.9, 5.0])
    @pytest.mark.parametrize("nodes", [4, 10, 64, 1024])
    def test_matches_direct_sum_at_shifted_nodes(self, nodes, shift):
        # a random field has a Nyquist mode, which must stay the cosine of the
        # direct sum, and the sine of its derivative
        rng = np.random.default_rng(nodes)
        g = Grid(7.3, nodes)
        f = SpectralField(g, rng.standard_normal(nodes))
        x = g.axis_coordinates(0)
        for order, row in enumerate(translate_fields(shift, f, derivative(f))):
            ref, scale = direct_sum(f.values, 7.3, x - shift, order)
            assert np.max(np.abs(row - ref)) <= 1e-13 * scale

    def test_whole_periods_drop_out_exactly(self):
        f = random_field(Grid(200.0, 1024))
        assert np.array_equal(translate_fields(14.0625 + 1000 * 200.0, f),
                              translate_fields(14.0625, f))

    def test_fields_on_different_grids_are_refused(self):
        with pytest.raises(ValueError, match="one 1D grid"):
            translate_fields(0.0, random_field(Grid(7.3, 64)), random_field(Grid(7.3, 32)))


class TestDealias:
    def test_low_mode_unchanged(self):
        g = Grid(2 * np.pi, 64)
        f = SpectralField.from_function(g, np.cos)  # mode k=1, below cutoff 21
        out = dealias(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_mode_above_cutoff_is_removed(self):
        # k = N/2-1 = 31 exceeds floor(64/3) = 21, so the field vanishes
        g = Grid(2 * np.pi, 64)
        f = SpectralField.from_function(g, lambda x: np.cos(31 * x))
        out = dealias(f)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_cutoff_boundary(self):
        g = Grid(2 * np.pi, 64)
        assert np.array_equal(g.dealias_mask(), np.arange(33) <= 21)
        keep = SpectralField.from_function(g, lambda x: np.cos(21 * x))
        drop = SpectralField.from_function(g, lambda x: np.cos(22 * x))
        assert np.max(np.abs(dealias(keep).values - keep.values)) < 1e-13
        assert np.max(np.abs(dealias(drop).values)) < 1e-13

    def test_zero_field(self):
        g = Grid(2 * np.pi, 64)
        out = dealias(SpectralField.zeros(g))
        assert np.all(out.values == 0.0)


class TestDerivative:
    def test_sine_derivative_exact(self):
        g = Grid(2 * np.pi, 64)
        f = SpectralField.from_function(g, np.sin)
        out = derivative(f)
        exact = np.cos(g.axis_coordinates(0))
        assert np.max(np.abs(out.values - exact)) < 1e-12

    def test_gaussian_second_derivative(self):
        # analytic oracle: d^2/dx^2 exp(-x^2) = (4x^2 - 2) exp(-x^2)
        g = Grid(80.0, 1024)
        f = SpectralField.from_function(g, lambda x: np.exp(-(x**2)))
        out = derivative(f, order=2)
        x = g.axis_coordinates(0)
        exact = (4 * x**2 - 2) * np.exp(-(x**2))
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_constant_derivative_is_zero(self):
        g = Grid(30.0, 128)
        f = SpectralField(g, np.full(g.shape, 3.7))
        assert np.max(np.abs(derivative(f).values)) < 1e-12

    def test_composition_matches_second_derivative(self):
        g = Grid(50.0, 256)
        f = dealias(random_field(g))
        twice = derivative(derivative(f))
        second = derivative(f, order=2)
        scale = np.max(np.abs(second.values)) + 1.0
        assert np.max(np.abs(twice.values - second.values)) < 1e-10 * scale

    def test_odd_order_nyquist_is_a_sine_zero_at_the_nodes(self):
        g = Grid(2 * np.pi, 16)
        nyquist = SpectralField.from_function(g, lambda x: np.cos(8 * x))
        slope = derivative(nyquist)
        assert np.max(np.abs(slope.values)) < 1e-12
        pts = np.linspace(-3.0, 3.0, 7) + 0.1
        assert np.max(np.abs(slope.evaluate(pts) + 8.0 * np.sin(8.0 * pts))) < 1e-12

    def test_axis_out_of_range(self):
        f = random_field(Grid(10.0, 16))
        with pytest.raises(ValueError, match="axis"):
            derivative(f, axis=1)

    def test_order_limit(self):
        f = random_field(Grid(10.0, 16))
        with pytest.raises(ValueError, match="order"):
            derivative(f, order=5)

    def test_2d_partial_derivatives(self):
        g = Grid(2 * np.pi, 32, dim=2)
        f = SpectralField.from_function(g, lambda x, y: np.sin(2 * x) * np.cos(3 * y))
        x, y = g.meshgrid()
        dx = derivative(f, axis=0)
        dy = derivative(f, axis=1)
        assert np.max(np.abs(dx.values - 2 * np.cos(2 * x) * np.cos(3 * y))) < 1e-12
        assert np.max(np.abs(dy.values + 3 * np.sin(2 * x) * np.sin(3 * y))) < 1e-12


def test_spectral_tail_of_resolved_and_unresolved_fields():
    grid = Grid(40.0, 256)
    assert spectral_tail(SpectralField.zeros(grid)) == 0.0
    smooth = SpectralField.from_function(grid, lambda x: np.exp(-(x**2)))
    assert spectral_tail(smooth) < 1e-14
    assert spectral_tail(random_field(grid)) > 0.1  # noise the grid cannot resolve

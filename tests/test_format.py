"""The CSV float formatter against Python's per-value ``b"%.17g" % v``."""

import math

import numpy as np
import pytest

from wavemodels import _format

POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
EDGES = np.array([
    0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, math.inf, math.nan,
    # the E = -5/-4 and 16/17 boundaries of fixed notation
    9.9999999999999995e-05, 1e-4, 9.9999999999999991e15, 1e16, 1e17, 99999999999999984.0,
    # a test of N < 10^16 in place of V < 10^16 printed 1e-304 for the second
    1e-304, 9.9999999999999997e-305,
    1.0, 0.5, 100.0, 1234.5, 12345678901234567.0, 1.0 / 3.0,
])
# m/8 with 18 significant digits: exact decimal ties at the 17th digit,
# which % rounds half to even (down after an even digit, up after an odd one)
TIES = np.array([123456789012345.625, 123456789012345.875, 987654321098765.125,
                 100000000000000.375])


def per_value(x) -> bytes:
    return b"".join(b"%.17g\n" % v for v in np.asarray(x, dtype=float).tolist())


def kernel(x) -> bytes:
    return _format.csv_rows(np.asarray(x, dtype=float).reshape(-1, 1))


@pytest.mark.parametrize("values", [
    EDGES, POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, math.inf), TIES,
], ids=["edges", "powers_of_ten", "below_powers_of_ten", "above_powers_of_ten", "ties"])
def test_matches_per_value_format(values):
    values = np.concatenate([values, -values])
    assert kernel(values) == per_value(values)


def test_ties_take_the_fallback():
    _, _, fallback = _format._decimal(TIES)
    assert fallback.tolist() == list(range(TIES.size))


def test_values_next_to_powers_of_ten_reach_the_fallback():
    # below 10^k log10 mostly rounds up to k, one more than the decimal
    # exponent; one round of digits leaves each such value to %, which
    # prints it as % does
    below = np.nextafter(POWERS, 0.0)
    rounded_up = np.flatnonzero(np.floor(np.log10(below)) == np.arange(-323, 309))
    _, _, fallback = _format._decimal(below)
    assert rounded_up.size > 600 and np.isin(rounded_up, fallback).all()
    assert kernel(below[fallback]) == per_value(below[fallback])


def test_gaussian_and_uniform_values_do_not_reach_the_fallback():
    # the one round settles ordinary data; a fallback for every value would
    # pass the byte comparisons too, and only this test sees it
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.standard_normal(100_000), rng.uniform(-1.0, 1.0, 100_000)])
    _, _, fallback = _format._decimal(values)
    assert fallback.size == 0


def test_random_bit_patterns():
    # a sample of all doubles: every exponent, subnormals, inf and nan
    values = np.random.default_rng(16).integers(0, 2**64, 150_000,
                                                dtype=np.uint64).view(np.float64)
    assert kernel(values) == per_value(values)


def test_rows_with_leads_and_columns():
    rng = np.random.default_rng(3)
    xs, ys = np.linspace(-1.0, 1.0, 5), np.array([0.0, 2.5e-7, 3e20])
    block = rng.standard_normal((xs.size * ys.size, 3)) * 10.0 ** rng.integers(-8, 8, (15, 3))
    i, j = np.unravel_index(np.arange(len(block)), (xs.size, ys.size))
    lead = np.concatenate([_format.lead_text(xs)[i], _format.lead_text(ys)[j]], axis=1)
    out = _format.csv_rows(block, lead)
    want = b"".join(b"%.17g,%.17g," % (xs[a], ys[b]) + b",".join(b"%.17g" % v for v in row)
                    + b"\n" for a, b, row in zip(i, j, block.tolist()))
    assert out == want


def fixed_notation_values(seed):
    """Per decimal exponent E in [-4, 16] (fixed notation) and per count k
    of significant digits in 1..17, a value of k random digits at E; a
    first digit below 9 keeps 17 digits from rounding up to E + 1."""
    rng = np.random.default_rng(seed)
    values = []
    for exp in range(-4, 17):
        for k in range(1, 18):
            digits = rng.integers(0, 10, k)
            digits[-1], digits[0] = rng.integers(1, 10), rng.integers(1, 9)
            values.append(float(f"{''.join(map(str, digits))}e{exp - k + 1}"))
    return np.array(values)


def test_the_point_moves_behind_the_integer_digits():
    # E = 0 keeps the point where it is, E >= 1 moves it; zeros and the
    # non-finite values carry the placeholder E = 0, so the boundary sits
    # among them in one column
    values = np.concatenate([
        [0.0, -0.0, math.nan, math.inf, -math.inf],
        [1.0, 1.5, 2.0, 3.25, 9.5, 9.999999999999998, math.pi, math.e],
        fixed_notation_values(22), -fixed_notation_values(23),
    ])
    assert kernel(values) == per_value(values)


def test_a_block_of_zeros():
    zeros = np.zeros(8192)
    zeros[1::3] = -0.0
    assert kernel(zeros) == per_value(zeros)

"""Tests for the Gaussian helpers and the projection kernel."""

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm

from rwmscaling.special import (_MAX_PIECES, _excess_coeffs, _excess_table, _fitted_excess,
                                _log_x_kernel, _tabled_excess, gaussian_cdf,
                                gaussian_pdf, kernel_K)


def test_gaussian_cdf_matches_reference_values():
    x = np.array([-8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0])
    assert np.allclose(gaussian_cdf(x), norm.cdf(x), rtol=0, atol=1e-15)
    assert gaussian_cdf(0.0) == 0.5


def test_gaussian_pdf_matches_reference_values():
    x = np.linspace(-5, 5, 21)
    assert np.allclose(gaussian_pdf(x), norm.pdf(x), rtol=1e-14, atol=0)
    assert isinstance(gaussian_pdf(0.3), float)


def test_kernel_bounds_and_endpoints():
    x = np.linspace(0.0, 2.0, 41)
    for d in (1, 2, 3, 5, 10, 100):
        k = kernel_K(d, x)
        assert np.all(k >= 0.0) and np.all(k <= 1.0)
        assert kernel_K(d, 0.0) == 1.0
        assert np.all(k[x >= 1.0] == 0.0)


def test_kernel_monotone_nonincreasing():
    x = np.linspace(0.0, 1.0, 201)
    for d in (2, 3, 7, 40):
        k = kernel_K(d, x)
        assert np.all(np.diff(k) <= 1e-15)


def test_kernel_d1_is_unit_step():
    x = np.array([0.0, 0.3, 0.999999, 1.0, 1.5])
    assert np.array_equal(kernel_K(1, x), np.array([1.0, 1.0, 1.0, 0.0, 0.0]))


def test_kernel_d2_is_arccos_law():
    # For d = 2 the squared coordinate of a uniform direction follows the
    # arcsine law, so K_2(x) = (2/pi) arccos(x).
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(kernel_K(2, x), (2.0 / np.pi) * np.arccos(x),
                       rtol=0, atol=5e-16)


def test_kernel_d3_is_linear():
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(kernel_K(3, x), 1.0 - x, rtol=0, atol=5e-16)


def test_kernel_deep_tail_keeps_relative_precision():
    # Reference values from mpmath's regularized incomplete beta at 50
    # digits: forming 1 - CDF would lose all relative accuracy out here,
    # which once stalled the adaptive quadrature.
    cases = [
        (100, 0.59, 8.441424657495252e-11),
        (100, 0.75, 1.7909961905747571e-19),
        (30, 0.80, 6.648471782177615e-08),
        (10, 0.95, 7.61016375535793e-06),
    ]
    for d, t, want in cases:
        got = kernel_K(d, t)
        assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("d", [4, 5, 10, 30, 100, 128, 1000])
def test_kernel_matches_high_precision_reference(d):
    mp = pytest.importorskip("mpmath")
    x = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 41)[1:-1],
        1.0 - np.geomspace(1e-5, 0.5, 12),
        np.geomspace(1e-4, 3.0, 12) / np.sqrt(d),
    ]))
    x = x[x <= 0.99999]
    got = kernel_K(d, x)
    with mp.workdps(50):
        b = mp.mpf(d - 1) / 2
        for xi, gi in zip(x, got):
            xm = mp.mpf(float(xi))
            want = mp.betainc(b, mp.mpf(1) / 2, 0, (1 - xm) * (1 + xm),
                              regularized=True)
            if want >= mp.mpf("1e-300"):
                assert abs(gi - want) <= 1e-12 * want, (d, xi, gi)
    assert kernel_K(d, 0.0) == 1.0
    assert np.all(kernel_K(d, np.zeros(3)) == 1.0)


def test_kernel_fit_is_chunked_consistently():
    # One call over many chunks gives the same values as one call per point.
    x = np.linspace(0.0, 1.0, 10_001)
    whole = kernel_K(12, x)
    assert np.array_equal(whole[::997], [kernel_K(12, v) for v in x[::997]])
    assert kernel_K(12, x.reshape(73, 137)).shape == (73, 137)


_TABLE_DIMS = [4, 5, 10, 30, 100, 128, 300, 1000]


def _tabled(d, x):
    return _tabled_excess(d, x.copy(), np.empty(x.size), np.empty(x.size))


@pytest.mark.parametrize("d", _TABLE_DIMS)
def test_excess_table_meets_the_series(d):
    # W's integrand reads g_d from a cubic table of the series kernel_K sums;
    # at 1e5 random points, both ends and every knot the two differ by at
    # most 2e-12 (measured: 7.0e-14 at d = 10, 1.3e-14 at 100, 1.1e-12 at 1000).
    n = _excess_table(d).shape[1]
    assert n <= _MAX_PIECES and n & (n - 1) == 0
    x = np.concatenate([np.random.default_rng(d).random(100_000), [0.0, 1.0],
                        np.arange(n + 1) / n])
    series = _fitted_excess(_excess_coeffs(d), x)
    assert np.max(np.abs(_tabled(d, x) - series)) <= 2e-12


@pytest.mark.parametrize("d", _TABLE_DIMS)
def test_log_x_kernel_matches_kernel_K(d):
    # log(x^(d-1) K_d(z/x)) through the table, against kernel_K's series, at
    # x = 2^k with z/x dyadic, so z, gap = x - z and z/x are exact: ratios
    # from 0 to 1 - 2^-40 (gap/z down to 9.1e-13), wherever K_d >= 1e-300
    # (measured: at most 7.5e-14 to d = 30, 2.3e-13 at 100, 1.8e-12 at 1000).
    r = np.concatenate([np.floor(np.random.default_rng(d).random(2000) * 2.0**52) / 2.0**52,
                        1.0 - 2.0 ** -np.arange(1, 41), [0.0]])
    for x in (0.125, 1.0, 8.0):
        z, gap = r * x, (1.0 - r) * x
        assert np.array_equal(z + gap, np.full(r.size, x))
        got = _log_x_kernel(d, z, gap)
        k = kernel_K(d, r)
        keep = k >= 1e-300
        assert keep.sum() >= 100
        want = (d - 1) * np.log(x) + np.log(k[keep])
        assert np.max(np.abs(got[keep] - want)) <= 1e-11


def test_excess_table_reads_its_ends():
    # z/x = 1 reads the last piece at its right end, and a NaN ratio gives
    # NaN (its piece index is the last piece's) with no warning or IndexError.
    table = _excess_table(10)
    c0, c1, c2, c3 = table[:, -1]
    assert _tabled(10, np.array([1.0]))[0] == ((c3 + c2) + c1) + c0
    assert _tabled(10, np.array([0.0]))[0] == table[0, 0]
    got = _log_x_kernel(10, np.array([np.nan, 1.0]), np.array([1.0, 1.0]))
    assert np.isnan(got[0]) and np.isfinite(got[1])


def test_kernel_above_fit_range_is_the_incomplete_beta():
    x = np.array([0.0, 0.001, 0.004, 0.01, 0.03, 1.0])
    d = 50_000
    want = np.where(x < 1.0, special.betaincc(0.5, 0.5 * (d - 1), x * x), 0.0)
    assert np.array_equal(kernel_K(d, x), want)


def test_kernel_large_d_gaussian_limit():
    # sqrt(d) |U_1| converges to |N(0,1)|: K_d(x) ~ 2 Phi(-sqrt(d) x).
    d = 40_000
    for x in (0.002, 0.005, 0.01):
        approx = 2.0 * norm.cdf(-np.sqrt(d) * x)
        assert kernel_K(d, x) == pytest.approx(approx, rel=2e-3)


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel_K(0, 0.5)
    with pytest.raises(ValueError):
        kernel_K(2, -0.1)
    with pytest.raises(ValueError):
        kernel_K(2, np.nan)

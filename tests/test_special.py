"""Tests for the Gaussian helpers and the projection kernel."""

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm

from rwmscaling.special import gaussian_cdf, gaussian_pdf, kernel_K


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

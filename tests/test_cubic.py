"""The package's piecewise cubics and Brent root finder against scipy's.

The package imports neither scipy.interpolate nor scipy.optimize (see
tests/test_api.py); these tests do, to check that the replacements give
bitwise the same numbers on the data the package feeds them: the pchip
cubics and the Brent roots outright, and the not-a-knot spline of log W
through its pieces, which are CubicHermiteSpline's on the same slopes.
Those slopes come from a tridiagonal solve by cyclic reduction, where
CubicSpline uses LAPACK's, so they agree with CubicSpline's to rounding."""

import functools

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PchipInterpolator
from scipy.optimize import brentq

from rwmscaling import asymptotics, engine, targets
from rwmscaling.asymptotics import (AsymptoticsError, _brentq,
                                    mixing_from_spec, solve_aots)
from rwmscaling.cubic import PiecewiseCubic, _not_a_knot_slopes, _solve_tridiagonal
from rwmscaling.targets import CustomRadialTable, parse_target_spec

# The laws of the benchmark's `limits` workload but pareto:1.5, which has
# no finite optimum and so no root to refine, and two more with roots.
LAWS_WITH_ROOTS = ["point:1", "atoms:0.5@1,2@1", "atoms:1@0.2,1@1,3@0.5",
                   "halfnormal", "exp", "lognormal", "from-target:gaussian:50",
                   "pareto:3", "from-target:radial-gaussian:50"]


def _assert_same_cubic(ours, theirs):
    assert np.array_equal(np.stack(ours._c), theirs.c)
    x = ours.x
    z = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                        np.random.default_rng(0).uniform(x[0], x[-1], 20_000)])
    assert np.array_equal(ours(z), theirs(z))


def _scipy_hermite_on_our_slopes(x, y):
    """scipy's cubic through (x, y) with the package's not-a-knot slopes."""
    h = np.diff(x)
    return CubicHermiteSpline(x, y, _not_a_knot_slopes(x, h, np.diff(y) / h))


@pytest.mark.parametrize("spec, d", [("gaussian", 10), ("exponential", 30),
                                     ("lognormal", 2), ("mixture:p=1/d^2", 5)])
def test_not_a_knot_spline_on_w_table_knots(monkeypatch, spec, d):
    fits = []

    def recording(x, y, slopes):
        fits.append((x, y))
        return PiecewiseCubic(x, y, slopes)

    monkeypatch.setattr(engine, "PiecewiseCubic", recording)
    engine.MarginalTable(parse_target_spec(spec, d))
    assert fits
    for x, y in fits:  # every refinement round's fit
        ours = PiecewiseCubic(x, y, "not-a-knot")
        _assert_same_cubic(ours, _scipy_hermite_on_our_slopes(x, y))
        # CubicSpline's slopes to 3e-14 of the larger of the slope and a
        # thousandth of the steepest secant (measured: 6.0e-15), and its
        # values to 2e-15 of max(|log W|, 1) (measured: 2.5e-16).
        h = np.diff(x)
        m = np.diff(y) / h
        slopes, theirs = _not_a_knot_slopes(x, h, m), CubicSpline(x, y)
        scale = np.maximum(np.abs(slopes), 1e-3 * np.abs(m).max())
        assert np.all(np.abs(slopes - theirs(x, 1)) <= 3e-14 * scale)
        z = np.random.default_rng(1).uniform(x[0], x[-1], 20_000)
        want = theirs(z)
        assert np.all(np.abs(ours(z) - want) <= 2e-15 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("n", [*range(1, 10), 800])
def test_tridiagonal_solve_matches_a_dense_solve(n):
    # Strictly diagonally dominant rows of both signs, as cyclic reduction
    # needs; a_0 and c_last lie outside the matrix and must go unread
    # (measured: 3.9e-16 of the largest unknown; bound 1e-14).
    rng = np.random.default_rng(n)
    a, c, rhs = rng.standard_normal((3, n))
    b = (np.abs(a) + np.abs(c) + 0.1) * rng.uniform(1.01, 2.0, n) * rng.choice([-1, 1], n)
    dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    want = np.linalg.solve(dense, rhs)
    got = _solve_tridiagonal(a, b, c, rhs)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("spec, d", [("gaussian", 1), ("radial-exponential", 10),
                                     ("lognormal", 30), ("mixture:p=0.2", 100)])
def test_pchip_is_scipys_on_model_cdf_and_quantile_knots(monkeypatch, spec, d):
    # The quantile's knots are the tabulated CDF's (p, r) pairs.
    fits = []

    def recording(x, y, slopes):
        fits.append((x, y))
        return PiecewiseCubic(x, y, slopes)

    monkeypatch.setattr(targets, "PiecewiseCubic", recording)
    model = parse_target_spec(spec, d)
    model.r_lo
    [(p, r)] = fits
    _assert_same_cubic(model._quantile_fn, PchipInterpolator(p, r))


def test_pchip_is_scipys_on_a_custom_table(tmp_path):
    # Wiggles, a flat stretch and a kink exercise every slope branch.
    r = np.geomspace(0.01, 8.0, 60)
    logp = -0.5 * r * r + 0.3 * np.sin(5.0 * r)
    logp[20:24] = logp[20]
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([r, logp]))
    data = np.loadtxt(path)
    table = CustomRadialTable(str(path))
    _assert_same_cubic(table._interp, PchipInterpolator(data[:, 0], data[:, 1]))


@pytest.mark.parametrize("y", [
    [0.0, 1.0, -3.0, -2.0, -2.0, 5.0],  # left end slope capped at 3 m0
    [0.0, 0.1, 2.0, 1.0, 3.0, 2.9],  # left end slope of the wrong sign: 0
    [5.0, 4.0, 4.0, 3.0, 1.0, 0.0],  # flat piece; right end slope 0
])
def test_pchip_is_scipys_on_its_slope_branches(y):
    x = np.array([0.0, 1.0, 2.0, 3.5, 4.0, 6.0])
    _assert_same_cubic(PiecewiseCubic(x, y, "pchip"), PchipInterpolator(x, y))


@pytest.mark.parametrize("slopes, scipy_cubic", [
    ("pchip", PchipInterpolator),
    pytest.param("not-a-knot", _scipy_hermite_on_our_slopes, id="not-a-knot-Hermite")])
def test_cubic_steps_back_where_the_index_rounds_up_onto_a_knot(slopes, scipy_cubic):
    # Just below a wide piece's right end, the fractional knot index of a
    # point rounds up to that knot's index.
    x = np.concatenate([np.linspace(0.0, 1.0, 2000), 1e6 + 3e3 * np.arange(4.0)])
    y = np.cos(np.arange(x.size))
    below = np.nextafter(x[1:], -np.inf)
    index = np.interp(below, x, np.arange(x.size, dtype=float))
    assert np.any(index == np.arange(1, x.size))
    ours = PiecewiseCubic(x, y, slopes)
    assert np.array_equal(ours(below), scipy_cubic(x, y)(below))


def test_cubic_clamps_to_its_knots_and_keeps_nan():
    x = np.linspace(0.0, 3.0, 7)
    cubic = PiecewiseCubic(x, np.sin(x), "not-a-knot")
    z = np.array([-1.0, 0.0, 3.0, 4.0, np.nan])
    assert np.array_equal(cubic(z), [cubic(0.0), np.sin(0.0), cubic(3.0),
                                     cubic(3.0), np.nan], equal_nan=True)
    assert cubic(np.ones((2, 3))).shape == (2, 3)


def _brackets(dist):
    """The sign-change brackets solve_aots refines."""
    grid = asymptotics._search_grid(dist)
    sign = asymptotics._gap_sign(dist, grid)
    return [(grid[i], grid[i + 1]) for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]


@pytest.mark.parametrize("spec", LAWS_WITH_ROOTS)
def test_brent_port_is_scipys_brentq_on_mixing_laws(spec):
    dist = mixing_from_spec(spec)

    def gap(m):
        return float(asymptotics._stationarity_gap(dist, m)[0])

    brackets = _brackets(dist)
    assert brackets
    for a, b in brackets:
        ours = _brentq(gap, a, b, xtol=1e-13, rtol=8.9e-16)
        assert ours == brentq(gap, a, b, xtol=1e-13, rtol=8.9e-16)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0, 0.0, 4.0),
    (np.cos, 0.0, 3.0),
    (lambda x: np.expm1(40.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: np.sign(x - 0.25) * abs(x - 0.25) ** 0.2, -3.0, 1.0),
])
def test_brent_port_is_scipys_brentq_on_plain_functions(f, a, b):
    for xtol, rtol in [(1e-13, 8.9e-16), (1e-4, 1e-6)]:
        assert _brentq(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_brent_port_error_paths():
    same_sign = (lambda x: x * x + 1.0, -1.0, 1.0)
    nan_inside = (lambda x: np.nan if 0.5 < x < 0.9 else x - 0.7, 0.0, 1.0)
    slow = (lambda x: x ** 3 - 2.0, 0.0, 4.0)
    for (f, a, b), error in [(same_sign, ValueError), (nan_inside, ValueError)]:
        with pytest.raises(error):
            brentq(f, a, b)
        with pytest.raises(error):
            _brentq(f, a, b, 1e-12, 8.9e-16)
    with pytest.raises(RuntimeError):
        brentq(*slow, maxiter=3)
    with pytest.raises(RuntimeError, match="failed to converge after 3"):
        _brentq(*slow, 1e-12, 8.9e-16, maxiter=3)


def test_solve_aots_reports_root_refinement_failures(monkeypatch):
    dist = mixing_from_spec("halfnormal")
    gap = asymptotics._stationarity_gap
    # NaN at the scalar calls of the refinement only, not on the grid.
    monkeypatch.setattr(asymptotics, "_stationarity_gap",
                        lambda dist, mu, **kw: gap(dist, mu, **kw) if np.ndim(mu)
                        else np.array([np.nan]))
    with pytest.raises(AsymptoticsError, match="root refinement failed.*NaN"):
        solve_aots(dist)
    monkeypatch.setattr(asymptotics, "_stationarity_gap", gap)
    monkeypatch.setattr(asymptotics, "_brentq",
                        functools.partial(_brentq, maxiter=2))
    with pytest.raises(AsymptoticsError, match="root refinement failed.*converge"):
        solve_aots(dist)

"""Tests for the adaptive Gauss-Kronrod integrators."""

import math

import numpy as np
import pytest

from rwmscaling.quadrature import QuadratureError, adaptive_quad, stacked_quad


def test_polynomial_is_exact():
    res = adaptive_quad(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-14)
    assert res.error <= 1e-10


def test_gaussian_integral_matches_closed_form():
    res = adaptive_quad(lambda x: np.exp(-0.5 * x * x), 0.0, 40.0,
                        epsabs=1e-13)
    assert res.value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_seeded_points_handle_kinks():
    # |x - 0.3| has a kink; a seeded split must keep full accuracy.
    res = adaptive_quad(lambda x: np.abs(x - 0.3), 0.0, 1.0, points=[0.3],
                        epsabs=1e-13)
    assert res.value == pytest.approx(0.5 * (0.3 ** 2 + 0.7 ** 2), rel=1e-13)


def test_reported_error_is_a_bound_in_practice():
    res = adaptive_quad(lambda x: np.sin(7 * x) ** 2, 0.0, 3.0, epsabs=1e-12)
    exact = 1.5 - math.sin(42.0) / 28.0
    assert abs(res.value - exact) <= max(res.error, 1e-13)


def test_result_carries_its_accepted_rule():
    # The accepted rule reproduces the value, for a scalar and a vector f.
    f = lambda x: np.exp(-x) * np.sin(3 * x) ** 2
    res = adaptive_quad(f, 0.0, 6.0, epsabs=1e-13, points=[1.0, 2.5])
    assert res.nodes.shape == res.weights.shape
    assert res.nodes.size % 15 == 0 and res.nodes.size < res.n_evals
    assert np.all((res.nodes > 0.0) & (res.nodes < 6.0) & (res.weights > 0.0))
    assert res.weights.sum() == pytest.approx(6.0, rel=1e-14)
    assert (res.weights * f(res.nodes)).sum() == pytest.approx(res.value, rel=1e-14)
    vec = adaptive_quad(lambda x: np.column_stack([x, x * x]), 0.0, 2.0)
    assert vec.weights @ np.column_stack([vec.nodes, vec.nodes ** 2]) \
        == pytest.approx(vec.value, rel=1e-14)
    empty = adaptive_quad(f, 1.0, 1.0)
    assert empty.value == 0.0 and empty.nodes.size == empty.weights.size == 0


def test_budget_exhaustion_raises():
    # An endpoint singularity at a tolerance a few hundred evaluations
    # cannot reach forces the budget check to fire.
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: x ** -0.5, 0.0, 1.0,
                      epsabs=1e-14, max_evals=300)


def test_stacked_matches_scalar_path():
    a = np.zeros(4)
    b = np.array([1.0, 2.0, 3.0, 0.5])

    def f(x, idx):
        return np.exp(-x) * (idx + 1)

    vals, errs, n = stacked_quad(f, a, b, epsabs=1e-12)
    want = np.array([(i + 1) * (1 - math.exp(-bi)) for i, bi in enumerate(b)])
    assert np.allclose(vals, want, rtol=1e-11)
    assert np.all(errs >= 0) and n > 0


def test_stacked_skips_empty_intervals():
    vals, errs, _ = stacked_quad(lambda x, i: np.ones_like(x),
                                 np.array([0.0, 2.0]), np.array([1.0, 2.0]))
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == 0.0 and errs[1] == 0.0


def test_stacked_per_item_points():
    # Each item gets its own kink location.
    kinks = np.array([0.25, 0.75])

    def f(x, idx):
        return np.abs(x - kinks[idx])

    pts = kinks[:, None]
    vals, _, _ = stacked_quad(f, np.zeros(2), np.ones(2), points=pts,
                              epsabs=1e-13)
    want = [0.5 * (k ** 2 + (1 - k) ** 2) for k in kinks]
    assert np.allclose(vals, want, rtol=1e-12)


def test_vector_valued_components_share_one_subdivision():
    def f(x):
        return np.stack([np.exp(-x), x ** 2, np.sin(3 * x)], axis=-1)

    res = adaptive_quad(f, 0.0, 2.0, epsabs=1e-13, points=[0.5, 1.5])
    want = [1 - math.exp(-2.0), 8.0 / 3.0, (1 - math.cos(6.0)) / 3.0]
    assert res.value.shape == (3,)
    assert np.allclose(res.value, want, rtol=1e-13, atol=0)
    assert np.ndim(res.error) == 0 and 0 <= res.error <= 1e-13
    # One subdivision for all three: the evaluation count is that of a
    # single integrand, a multiple of the 15-point rule.
    scalar = adaptive_quad(lambda x: np.sin(3 * x), 0.0, 2.0, epsabs=1e-13,
                           points=[0.5, 1.5])
    assert res.n_evals % 15 == 0 and res.n_evals >= scalar.n_evals


def test_stacked_vector_values_on_distinct_intervals():
    a = np.array([0.0, 1.0, -2.0])
    b = np.array([1.0, 4.0, 0.5])

    def f(x, idx):
        return np.stack([(idx + 1) * np.exp(-x), np.cos(x)], axis=-1)

    vals, errs, n = stacked_quad(f, a, b, epsabs=1e-13,
                                 points=np.array([[0.5], [2.0], [0.0]]))
    want = np.column_stack([(np.arange(3) + 1) * (np.exp(-a) - np.exp(-b)),
                            np.sin(b) - np.sin(a)])
    assert vals.shape == (3, 2) and errs.shape == (3,)
    assert np.allclose(vals, want, rtol=1e-12, atol=0)
    assert np.all(errs <= 1e-13) and n > 0


def _counted(f, n_items):
    """f, and the per-item evaluation counts it accumulates."""
    counts = np.zeros(n_items, dtype=int)

    def g(x, idx):
        np.add.at(counts, idx, 1)
        return f(x, idx)

    return g, counts


def _items(x, idx):
    return np.stack([np.exp(-(idx + 1.0) * x), np.sqrt(x + idx)], axis=-1)


def _solo(f, i, a, b, budget):
    g, counts = _counted(lambda x, idx: f(x, np.full_like(idx, i)), 1)
    vals, errs, _ = stacked_quad(g, [a], [b], epsabs=1e-13,
                                 max_evals=np.array([budget]))
    return vals[0], errs[0], counts[0]


@pytest.mark.parametrize("kind", ["nan", "budget"])
def test_a_failing_item_fails_alone(kind):
    # Item 1 goes NaN past x = 0.5, or has a budget it cannot finish in; it
    # alone is reported, and the other items complete with the evaluations
    # and results of their solo runs.  A BLAS matrix-vector product rounds
    # a row according to its place in the batch, so "same result" is to
    # rounding, not bitwise.
    a, b = np.zeros(3), np.array([1.0, 2.0, 3.0])
    budgets = np.array([10**6, 10**6, 10**6])
    if kind == "nan":
        def f(x, idx):
            return np.where((idx == 1)[:, None] & (x > 0.5)[:, None], np.nan,
                            _items(x, idx))
    else:
        f = _items
        budgets[1] = 15  # its first panel, and no refinement
    g, counts = _counted(f, 3)
    with pytest.raises(QuadratureError) as info:
        stacked_quad(g, a, b, epsabs=1e-13, max_evals=budgets)
    exc = info.value
    assert list(exc.failures) == [1]
    want = "non-finite integrand" if kind == "nan" else "evaluation budget 15 exhausted"
    assert exc.failures[1].startswith(want) and str(exc) == exc.failures[1]
    vals, errs, n = exc.result
    assert np.isnan(vals[1]).all() and np.isnan(errs[1])
    assert n == counts.sum()
    for i in (0, 2):
        v, e, c = _solo(f, i, a[i], b[i], budgets[i])
        assert counts[i] == c
        np.testing.assert_allclose(vals[i], v, rtol=1e-15, atol=0)
        assert errs[i] == pytest.approx(e, rel=1e-12)


def test_per_item_budget_trips_like_a_solo_budget():
    # An item's budget fails it when its evaluations so far plus its next
    # round's nodes would pass the budget: the same rule, and message, as
    # the total budget of a one-item run.
    def f(x, idx):
        return np.where(idx == 0, x ** -0.5, np.cos(x))

    with pytest.raises(QuadratureError) as solo:
        adaptive_quad(lambda x: x ** -0.5, 0.0, 1.0, epsabs=1e-14, max_evals=300)
    with pytest.raises(QuadratureError) as stacked:
        stacked_quad(f, [0.0, 0.0], [1.0, 1.0], epsabs=1e-14,
                     max_evals=np.array([300, 300]))
    assert stacked.value.failures == {0: str(solo.value)}
    assert stacked.value.result[0][1] == pytest.approx(math.sin(1.0), rel=1e-14)


def test_total_budget_fails_every_open_item():
    with pytest.raises(QuadratureError, match="budget 600 exhausted") as info:
        stacked_quad(lambda x, i: x ** -0.5, [0.0, 0.0, 1.0], [1.0, 1.0, 2.0],
                     epsabs=1e-14, max_evals=600)
    assert sorted(info.value.failures) == [0, 1]
    assert info.value.result[0][2] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0),
                                                    rel=1e-12)


def test_adaptive_quad_raises_on_non_finite_values():
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        adaptive_quad(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)

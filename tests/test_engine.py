"""Tests for the exact EAR/ESJD engine: marginals, tables, curves."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.stats import norm

from rwmscaling import engine
from rwmscaling.engine import (
    CurvePoint,
    EngineError,
    MarginalTable,
    closed_form_gaussian_1d,
    closed_form_laplace_1d,
    curve,
    ear_esjd,
    get_marginal_table,
    marginal_cdf,
    table_point,
)
from rwmscaling.optimizer import default_search_range, optimize
from rwmscaling.quadrature import QuadratureError, adaptive_quad
from rwmscaling.targets import build_example_target, parse_target_spec


def test_closed_form_gaussian_values():
    lam = 2.4264019
    ear, esjd = closed_form_gaussian_1d(lam)
    assert ear == pytest.approx(2.0 / math.pi * math.atan(2.0 / lam), rel=1e-14)
    want = (2.0 * lam * lam / math.pi) * (math.atan(2.0 / lam)
                                          - 2.0 * lam / (lam * lam + 4.0))
    assert esjd == pytest.approx(want, rel=1e-14)


def test_closed_form_laplace_values():
    ear, esjd = closed_form_laplace_1d(4.0)
    assert ear == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert esjd == pytest.approx(16.0 * 16.0 / 216.0, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 25])
def test_gaussian_marginal_is_standard_normal(d):
    # One coordinate of a spherical standard Gaussian is N(0,1) in every
    # dimension; this pins the projection-kernel integral end to end.
    t = build_example_target("gaussian", d)
    for x in (-3.0, -1.0, -0.2, 0.0, 0.4, 2.5):
        assert marginal_cdf(t, x) == pytest.approx(norm.cdf(x), abs=5e-12)


def test_marginal_cdf_basic_properties():
    t = build_example_target("exponential", 3)
    xs = np.linspace(-4, 4, 17)
    vals = [marginal_cdf(t, float(x)) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert marginal_cdf(t, 0.0) == 0.5
    for x in (0.5, 1.7):
        assert marginal_cdf(t, x) + marginal_cdf(t, -x) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_matches_gaussian_closed_form():
    t = build_example_target("gaussian", 1)
    for lam in (0.3, 1.0, 2.43, 6.0):
        ear_c, esjd_c = closed_form_gaussian_1d(lam)
        ear_q, esjd_q, ear_err, esjd_err = ear_esjd(t, t, lam)
        assert ear_q == pytest.approx(ear_c, abs=max(1e-10, 3 * ear_err))
        assert esjd_q == pytest.approx(esjd_c, abs=max(1e-9, 3 * esjd_err))


def test_table_matches_gaussian_closed_form():
    t = build_example_target("gaussian", 1)
    table = get_marginal_table(t)
    for lam in (0.3, 1.0, 2.43, 6.0):
        ear_c, esjd_c = closed_form_gaussian_1d(lam)
        pt = table_point(table, t, lam)
        assert abs(pt.ear - ear_c) <= pt.ear_err + 1e-12
        assert abs(pt.esjd - esjd_c) <= pt.esjd_err + 1e-11


def test_laplace_identity_on_grid():
    # S^2 = 8 a (1-a)^2 for the 1-d double-exponential pair, via quadrature.
    t = build_example_target("laplace", 1)
    pts = curve(t, t, np.geomspace(0.05, 40.0, 60))
    for p in pts:
        assert p.ok
        want = 8.0 * p.ear * (1.0 - p.ear) ** 2
        assert p.esjd == pytest.approx(want, rel=2e-8, abs=1e-12)


def test_table_is_kept_on_its_model_and_freed_with_it():
    t = build_example_target("gaussian", 1)
    table = get_marginal_table(t)
    assert get_marginal_table(t) is table
    ref = weakref.ref(table)
    del t, table
    gc.collect()
    assert ref() is None


def test_table_certificate_is_tight():
    for spec, d in [("gaussian", 2), ("exponential", 10), ("lognormal", 3)]:
        t = parse_target_spec(spec, d)
        table = get_marginal_table(t)
        assert table.max_interp_rel_err <= 3e-9


def test_uncertified_table_is_flagged_on_its_points():
    t = build_example_target("gaussian", 1)
    table = MarginalTable(t, max_rounds=1)
    assert table.max_interp_rel_err > 3e-9 and not table.certified
    pt = table_point(table, t, 2.4)
    assert pt.ok and "certificate" in pt.message
    ear_c, _ = closed_form_gaussian_1d(2.4)
    assert abs(pt.ear - ear_c) <= pt.ear_err


@pytest.mark.parametrize("spec, d", [("gaussian", 1), ("mixture:p=1/d^2", 10)])
def test_default_tables_are_certified(spec, d):
    table = get_marginal_table(parse_target_spec(spec, d))
    assert table.certified and table.max_interp_rel_err <= 3e-9
    prop = build_example_target("gaussian", d)
    assert table_point(table, prop, 1.0).message == ""


def test_table_build_computes_each_w_once(monkeypatch):
    seen = []
    inner = engine._tail_weight_many

    def counting(model, z, **kwargs):
        seen.append(np.array(z, dtype=float))
        return inner(model, z, **kwargs)

    monkeypatch.setattr(engine, "_tail_weight_many", counting)
    table = MarginalTable(parse_target_spec("mixture:p=1/d^2", 10))
    z = np.concatenate(seen)
    assert len(seen) > 2  # the build did refine
    assert np.unique(z).size == z.size
    assert table.certified


def test_table_and_nested_paths_agree():
    cases = [("gaussian", 2, 0.9), ("gaussian", 10, 0.75),
             ("exponential", 5, 0.5), ("radial-gaussian", 10, 1.2),
             ("mixture:p=1/d^2", 10, 0.78)]
    for spec, d, lam in cases:
        t = parse_target_spec(spec, d)
        prop = build_example_target("gaussian", d)
        ear_q, esjd_q, _, _ = ear_esjd(t, prop, lam)
        pt = table_point(get_marginal_table(t), prop, lam)
        assert pt.ear == pytest.approx(ear_q, rel=1e-7, abs=1e-10)
        assert pt.esjd == pytest.approx(esjd_q, rel=1e-7, abs=1e-10)


def test_nested_curve_matches_table_and_flags_only_the_failed_point(monkeypatch):
    t = build_example_target("exponential", 4)
    lams = np.geomspace(0.3, 3.0, 5)
    table = curve(t, t, lams)
    nested = curve(t, t, lams, method="nested")
    assert all(p.ok for p in nested)
    for a, b in zip(table, nested):
        assert abs(a.ear - b.ear) < 1e-7 and abs(a.esjd - b.esjd) < 1e-7

    real = engine.ear_esjd

    def fails_at_middle(target, proposal, lam):
        if lam == lams[2]:
            raise EngineError("forced failure")
        return real(target, proposal, lam)

    monkeypatch.setattr(engine, "ear_esjd", fails_at_middle)
    pts = curve(t, t, lams, method="nested")
    assert [p.ok for p in pts] == [True, True, False, True, True]
    assert pts[2].message == "forced failure" and np.isnan(pts[2].ear)
    assert [p.ear for p in pts if p.ok] == [p.ear for i, p in enumerate(nested)
                                            if i != 2]


def test_curve_flags_are_clean_and_ear_monotone():
    t = build_example_target("exponential", 4)
    pts = curve(t, t, np.geomspace(0.01, 20, 80))
    assert all(p.ok for p in pts)
    ears = [p.ear for p in pts]
    assert all(b <= a + 1e-9 for a, b in zip(ears, ears[1:]))
    assert all(p.esjd >= 0.0 for p in pts)


def test_small_scale_acceptance_tends_to_one():
    t = build_example_target("gaussian", 8)
    pt = table_point(get_marginal_table(t), t, 1e-5)
    assert pt.ear == pytest.approx(1.0, abs=1e-4)
    assert pt.esjd == pytest.approx(1e-10 * t.moment(2.0), rel=1e-3)


def test_large_scale_acceptance_tends_to_zero():
    t = build_example_target("gaussian", 3)
    pt = table_point(get_marginal_table(t), t, 500.0)
    assert pt.ear < 1e-4


def test_error_bars_honest_on_closed_form():
    t = build_example_target("gaussian", 1)
    table = get_marginal_table(t)
    lams = np.geomspace(0.1, 10, 25)
    for lam in lams:
        ear_c, esjd_c = closed_form_gaussian_1d(float(lam))
        pt = table_point(table, t, float(lam))
        assert abs(pt.ear - ear_c) <= pt.ear_err + 1e-13
        assert abs(pt.esjd - esjd_c) <= pt.esjd_err + 1e-13


def test_rejects_bad_arguments():
    t = build_example_target("gaussian", 2)
    p3 = build_example_target("gaussian", 3)
    with pytest.raises(ValueError):
        ear_esjd(t, t, 0.0)
    with pytest.raises(ValueError):
        ear_esjd(t, p3, 1.0)
    with pytest.raises(ValueError):
        closed_form_gaussian_1d(-1.0)


def test_d2_arcsine_kernel_path():
    # d = 2 once defeated plain bisection at the kernel's endpoint
    # singularity; keep it covered explicitly.
    t = build_example_target("gaussian", 2)
    pts = curve(t, t, np.geomspace(0.05, 8, 30))
    assert all(p.ok for p in pts)
    i = int(np.argmax([p.esjd for p in pts]))
    assert 0 < i < len(pts) - 1


def _per_point_reference(table, proposal, lam):
    """One curve point as the table route computed it before curves were
    stacked: its own adaptive_quad per lambda."""
    lam = float(lam)
    target = table.model
    y_hi = min(proposal.r_hi, 2.0 * target.r_hi / lam)
    if y_hi <= proposal.r_lo:
        return CurvePoint(lam, 0.0, 0.0, 0.0, 0.0)

    def f(y):
        base = proposal.radial_pdf(y) * table.w(0.5 * lam * y)
        return np.stack([base, lam * lam * y * y * base], axis=-1)

    pts = np.concatenate([proposal.breakpoints(),
                          (2.0 / lam) * target.breakpoints()])
    try:
        res = adaptive_quad(f, proposal.r_lo, y_hi, epsabs=2e-10, points=pts)
    except QuadratureError as exc:
        return CurvePoint(lam, np.nan, np.nan, np.nan, np.nan, ok=False,
                          message=str(exc))
    value = np.asarray(res.value)
    err = np.broadcast_to(np.asarray(res.error), (2,)).copy()
    cert = table.max_interp_rel_err
    floor = table.w_floor
    err[0] += cert * (abs(value[0]) + floor)
    err[1] += cert * (abs(value[1]) + lam * lam * proposal.moment(2) * floor)
    message = "" if table.certified else (
        f"W table certificate {cert:.3g} above its target {table.rel_tol:.3g}")
    return CurvePoint(lam, float(value[0]), float(value[1]),
                      float(err[0]), float(err[1]), message=message)


@pytest.mark.parametrize("spec, d", [
    ("gaussian", 1), ("gaussian", 2), ("gaussian", 10), ("exponential", 30),
    ("lognormal", 20), ("mixture:p=1/d^2", 10)])
def test_stacked_curve_matches_per_point_route(spec, d):
    # The optimizer's whole search window: it reaches scales whose
    # integration range is empty (exact zero points) for d = 10 and 30.
    t = parse_target_spec(spec, d)
    prop = build_example_target("gaussian", d)
    table = get_marginal_table(t)
    lams = np.geomspace(*default_search_range(t, prop), 256)
    got = curve(t, prop, lams)
    want = [_per_point_reference(table, prop, lam) for lam in lams]
    assert [(p.lam, p.ok, p.message) for p in got] == \
        [(p.lam, p.ok, p.message) for p in want]
    if spec in ("gaussian", "exponential") and d >= 10:
        assert any(p.ear == 0.0 and p.ear_err == 0.0 for p in got)
    for p, q in zip(got, want):
        for v, w in [(p.ear, q.ear), (p.esjd, q.esjd)]:
            assert v == pytest.approx(w, rel=1e-13, abs=0)
        # A quadrature error estimate is a difference of two nearly equal
        # rule sums, so its rounding noise is set by the value it bounds: a
        # batched matrix-vector product may round a sum one unit apart.
        for e, w, v in [(p.ear_err, q.ear_err, q.ear),
                        (p.esjd_err, q.esjd_err, q.esjd)]:
            assert e == pytest.approx(w, rel=1e-13, abs=1e-16 * v)


def _patched_stacked_quad(monkeypatch, rewrite):
    """engine.stacked_quad with its integrand and budgets passed through
    rewrite(f, max_evals) first."""
    inner = engine.stacked_quad

    def patched(f, a, b, **kwargs):
        f, kwargs["max_evals"] = rewrite(f, np.array(kwargs["max_evals"]))
        return inner(f, a, b, **kwargs)

    monkeypatch.setattr(engine, "stacked_quad", patched)


@pytest.mark.parametrize("kind", ["nan", "budget"])
def test_curve_flags_only_the_failed_point(monkeypatch, kind):
    # The first scale has an empty integration range, so it is no item of
    # the stacked integral: stacked item 4 is curve point 5.
    t = build_example_target("gaussian", 10)
    lams = np.r_[1e4, np.geomspace(0.3, 3.0, 9)]
    clean = curve(t, t, lams)
    assert clean[0].ear == 0.0

    def rewrite(f, max_evals):
        if kind == "nan":
            return (lambda y, i: np.where((i == 4)[:, None], np.nan, f(y, i))), max_evals
        # Every clean item converges on its seed panels in one round; item 4
        # gets a kink that needs refinement and a budget that forbids it.
        max_evals[4] = 1
        return (lambda y, i: f(y, i) * np.where(i == 4, np.abs(y - 1.1), 1.0)[:, None]), \
            max_evals

    _patched_stacked_quad(monkeypatch, rewrite)
    flagged = curve(t, t, lams)
    assert [p.ok for p in flagged] == [i != 5 for i in range(10)]
    want = "non-finite integrand" if kind == "nan" else "evaluation budget 1 "
    assert flagged[5].message.startswith(want) and np.isnan(flagged[5].ear)
    assert flagged[0] == clean[0]
    for i in (1, 2, 3, 4, 6, 7, 8, 9):
        assert flagged[i].ear == pytest.approx(clean[i].ear, rel=1e-15, abs=0)
        assert flagged[i].esjd == pytest.approx(clean[i].esjd, rel=1e-15, abs=0)


def test_table_route_rejects_mismatched_dimensions():
    t2 = build_example_target("gaussian", 2)
    t3 = build_example_target("gaussian", 3)
    match = "dimensions differ"
    with pytest.raises(ValueError, match=match):
        curve(t2, t3, [0.5])
    with pytest.raises(ValueError, match=match):
        table_point(get_marginal_table(t2), t3, 0.5)
    with pytest.raises(ValueError, match=match):
        optimize(t2, t3)


@pytest.mark.parametrize("lambdas, match", [
    ([0.5, np.nan], "finite"), ([0.5, np.inf], "finite"),
    ([0.5, 0.0], "positive"), (0.5, "1-d"), ([[0.5, 1.0]], "1-d")])
def test_curve_rejects_bad_lambdas(lambdas, match):
    t = build_example_target("gaussian", 2)
    for method in ("table", "nested"):
        with pytest.raises(ValueError, match=match):
            curve(t, t, lambdas, method=method)

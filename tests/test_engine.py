"""Tests for the exact EAR/ESJD engine: marginals, tables, curves."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.stats import norm

from rwmscaling import engine, quadrature
from rwmscaling.engine import (
    CurvePoint,
    EngineError,
    MarginalTable,
    _cut_errors,
    closed_form_gaussian_1d,
    closed_form_laplace_1d,
    curve,
    ear_esjd,
    get_marginal_table,
    table_point,
)
from rwmscaling.optimizer import default_search_range, optimize
from rwmscaling.quadrature import QuadratureError, adaptive_quad, stacked_quad
from rwmscaling.special import _log_x_kernel
from rwmscaling.targets import (_TRUNC_TAIL, RadialModel, _parse_pair, build_example_target,
                                parse_target_spec)


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


@pytest.mark.parametrize("d", [1, 2, 3, 7, 25, 1000, 1001, 2000])
def test_gaussian_marginal_is_standard_normal(d):
    # One coordinate of a spherical standard Gaussian is N(0,1) in every
    # dimension, so W(z) = 2 Phi(-z); this pins the projection-kernel
    # integral end to end, through both integrands and on both sides of the
    # kernel's fit/incomplete-beta boundary at d = 1000.
    t = build_example_target("gaussian", d)
    z = np.array([0.0, 0.2, 0.4, 1.0, 2.5, 3.0])
    for literal in (False, True):
        w, _, _ = engine._tail_weight_many(t, z, epsabs=1e-14, epsrel=1e-11,
                                           literal=literal)
        assert np.abs(w - 2.0 * norm.cdf(-z)).max() <= 1e-11, literal


_FAMILIES = ["gaussian", "exponential", "radial-gaussian", "radial-exponential",
             "lognormal", "mixture:p=0.2", "mixture:p=1/d^2"]


@pytest.mark.parametrize("spec, d", [
    (spec, d) for spec in _FAMILIES for d in (1, 2, 3, 4, 10, 100)
    if not (spec.startswith("mixture") and d == 1)
] + [(spec, d) for spec in ("gaussian", "exponential") for d in (1000, 1001)])
def test_table_and_nested_integrands_agree(spec, d):
    # The table's log-space integrand and the nested route's literal
    # 2u f(x) K_d(z/x) are written independently; W from each agrees to
    # rounding over the whole support, measured <= 7.1e-13 relative.
    t = parse_target_spec(spec, d)
    z = np.linspace(0.0, t.r_hi, 500)
    fused, _, _ = engine._tail_weight_many(t, z, epsabs=1e-14, epsrel=1e-11)
    literal, _, _ = engine._tail_weight_many(t, z, epsabs=1e-14, epsrel=1e-11,
                                             literal=True)
    big = np.maximum(fused, literal) >= 1e-14
    assert big.sum() >= 50
    assert np.max(np.abs(fused - literal)[big] / literal[big]) <= 1e-12


def test_marginal_cdf_basic_properties():
    # Read through W(z) = 2 F(-z): F(0) = 1/2 makes W(0) the whole mass, less
    # the 1e-12 tail the model truncates, and F non-decreasing makes W
    # non-increasing.
    t = build_example_target("exponential", 3)
    w, _, _ = engine._tail_weight_many(t, np.linspace(0.0, 4.0, 9), epsabs=1e-14,
                                       epsrel=1e-11)
    assert abs(w[0] - 1.0) <= 2e-12
    assert np.all(np.diff(w) <= 0.0)


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


def test_both_routes_match_the_laplace_closed_form():
    # And the Gaussian one.  Both routes miss the mass past the target's and
    # the proposal's r_hi, about lam^2 E|Y|^2 1e-12 on ESJD: each reported
    # error covers its gap to the closed form and stays below 1e-7.
    for family, closed_form in (("laplace", closed_form_laplace_1d),
                                ("gaussian", closed_form_gaussian_1d)):
        t = build_example_target(family, 1)
        table = get_marginal_table(t)
        for lam in (0.3, 1.0, 4.0, 12.0):
            ear_c, esjd_c = closed_form(lam)
            pt = table_point(table, t, lam)
            for ear, esjd, ear_err, esjd_err in (
                    (pt.ear, pt.esjd, pt.ear_err, pt.esjd_err), ear_esjd(t, t, lam)):
                assert abs(ear - ear_c) <= 1e-9
                assert abs(esjd - esjd_c) <= 1e-8
                assert abs(ear - ear_c) <= ear_err < 1e-7
                assert abs(esjd - esjd_c) <= esjd_err < 1e-7


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


def test_uncertified_table_is_flagged_on_its_points(monkeypatch):
    t = build_example_target("gaussian", 1)
    monkeypatch.setattr(MarginalTable, "max_rounds", 1)
    table = MarginalTable(t)
    assert table.max_interp_rel_err > 3e-9 and not table.certified
    pt = table_point(table, t, 2.4)
    assert pt.ok and "certificate" in pt.message
    ear_c, _ = closed_form_gaussian_1d(2.4)
    assert abs(pt.ear - ear_c) <= pt.ear_err


@pytest.mark.parametrize("spec, d", [
    ("gaussian", 1), ("mixture:p=1/d^2", 10), ("mixture:p=1/d^3", 300),
    ("mixture:p=1/d^2", 1000), ("exponential", 1000), ("mixture:p=0.2", 100),
    ("mixture:p=1/d", 100)])
def test_default_tables_are_certified(spec, d):
    table = get_marginal_table(parse_target_spec(spec, d))
    assert table.certified and table.max_interp_rel_err <= 3e-9
    prop = build_example_target("gaussian", d)
    assert table_point(table, prop, 1.0).message == ""


@pytest.mark.parametrize("spec, d", [
    ("radial-exponential", 2), ("radial-exponential", 10),
    ("radial-exponential", 100), ("radial-gaussian", 100),
    ("mixture:p=1/d^2", 2)])
def test_w_is_one_up_to_zero_zero_from_the_last_knot_and_nan_at_nan(spec, d):
    # On these tables W(-1) used to evaluate the spline outside its knots
    # and overflow exp, an error under the RuntimeWarning filter.
    table = get_marginal_table(parse_target_spec(spec, d))
    assert table.w(-1.0) == 1.0
    z_last = table._z_last
    z = np.array([-np.inf, -1e300, -1.0, -0.0, 0.0, z_last, 2.0 * z_last, np.inf])
    assert np.array_equal(table.w(z), [1, 1, 1, 1, 1, 0, 0, 0])
    assert math.isnan(table.w(np.nan))
    inside = table.w(np.array([0.5 * z_last, np.nan]))
    assert 0.0 < inside[0] < 1.0 and math.isnan(inside[1])


@pytest.mark.parametrize("p", ["0.2", "1/d", "1/d^2", "1/d^3"])
def test_mixture_tables_build_at_d_1000(p):
    # In units of the median radius the log-space integrand keeps its
    # rounding below the stacked quadrature's epsrel; with x unscaled, three
    # of these builds exhausted their 2e7-evaluation budget.
    table = MarginalTable(parse_target_spec(f"mixture:p={p}", 1000))
    assert table.certified
    assert 0.0 < table.w(1.0) < 1.0


@pytest.mark.parametrize("spec, d", [
    ("mixture:p=1/d^2", 1000), ("mixture:p=1/d^3", 300), ("radial-gaussian", 100)])
def test_certificate_holds_off_the_knots(spec, d):
    # The certificate is measured at panel midpoints against W computed to a
    # tenth of rel_tol; here W is read at 600 other points, half uniform
    # below the last knot and half log-uniform over the six decades under
    # it, against W computed far tighter.
    model = parse_target_spec(spec, d)
    table = get_marginal_table(model)
    rng = np.random.default_rng(31)
    z_last = table._z_last
    z = np.concatenate([rng.uniform(0.0, z_last, 300),
                        z_last * 10.0 ** rng.uniform(-6.0, 0.0, 300)])
    want, _, _ = engine._tail_weight_many(model, z, epsabs=1e-22, epsrel=1e-12)
    err = np.abs(table.w(z) - want) / np.maximum(want, table.w_floor)
    assert err.max() <= table.rel_tol


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
        # Only the proposal's mass below r_lo and W past the target's r_hi.
        return CurvePoint(lam, 0.0, 0.0, 2.0 * _TRUNC_TAIL,
                          lam * lam * proposal.moment(2) * _TRUNC_TAIL
                          + 4.0 * _TRUNC_TAIL * target.moment(2) / target.d)

    def f(y):
        base = proposal.radial_pdf(y) * table.w(0.5 * lam * y)
        return np.stack([base, lam * lam * y * y * base], axis=-1)

    pts = engine._outer_seeds(target, proposal, np.array([lam]))
    try:
        res = adaptive_quad(f, proposal.r_lo, y_hi, epsabs=2e-10, points=pts)
    except QuadratureError as exc:
        return CurvePoint(lam, np.nan, np.nan, np.nan, np.nan, ok=False,
                          message=str(exc))
    value = np.asarray(res.value)
    err = np.broadcast_to(np.asarray(res.error), (2,)).copy()
    cert = table.max_interp_rel_err
    # W's absolute error with the target's cut, and the proposal's cut
    w_err = cert * table.w_floor + _TRUNC_TAIL
    err[0] += cert * abs(value[0]) + w_err + _TRUNC_TAIL
    err[1] += (cert * abs(value[1]) + lam * lam * proposal.moment(2) * w_err
               + 4.0 * _TRUNC_TAIL * table.model.moment(2) / table.model.d)
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
    # curve reads this geometric grid by the log-space correlation, so the
    # stacked route is called directly.
    t = parse_target_spec(spec, d)
    prop = build_example_target("gaussian", d)
    table = get_marginal_table(t)
    lams = np.geomspace(*default_search_range(t, prop), 256)
    got = engine._table_points(table, prop, lams)
    want = [_per_point_reference(table, prop, lam) for lam in lams]
    assert [(p.lam, p.ok, p.message) for p in got] == \
        [(p.lam, p.ok, p.message) for p in want]
    if spec in ("gaussian", "exponential") and d >= 10:
        # Zero points bound what the two cuts leave out.
        zeros = [p for p in got if p.ear == 0.0]
        assert zeros
        for p in zeros:
            cut = _cut_errors(t, prop, p.lam, 0.0)
            assert p.esjd == 0.0 and (p.ear_err, p.esjd_err) == cut
            assert min(cut) > 0.0
    for p, q in zip(got, want):
        for v, w in [(p.ear, q.ear), (p.esjd, q.esjd)]:
            assert v == pytest.approx(w, rel=1e-13, abs=0)
        # A quadrature error estimate is a difference of two nearly equal
        # rule sums, so its rounding noise is set by the value it bounds: a
        # batched matrix-vector product may round a sum one unit apart.
        for e, w, v in [(p.ear_err, q.ear_err, q.ear),
                        (p.esjd_err, q.esjd_err, q.esjd)]:
            assert e == pytest.approx(w, rel=1e-13, abs=1e-16 * v)


_SEVENTEEN_LEVELS = np.array([
    1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5,
    0.75, 0.9, 0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9])


def _seventeen_level_breakpoints(m):
    """The earlier seed rule: the radii at 17 quantile levels and the extra
    breakpoints inside the support, sorted."""
    x = np.asarray(m.extra_breakpoints, dtype=float)
    return np.unique(np.append(m.quantile(_SEVENTEEN_LEVELS),
                               x[(x > m.r_lo) & (x < m.r_hi)]))


def _seventeen_level_seeds(target, proposal, lams):
    """The outer seeds of the earlier rule, the target's scaled by 2 / lambda."""
    return np.column_stack([
        np.tile(_seventeen_level_breakpoints(proposal), (lams.size, 1)),
        (2.0 / lams)[:, None] * _seventeen_level_breakpoints(target)])


@pytest.mark.parametrize("d", [2, 10, 100])
@pytest.mark.parametrize("spec", [
    "gaussian", "exponential", "radial-gaussian", "radial-exponential",
    "lognormal", "mixture:p=0.2", "mixture:p=1/d", "mixture:p=1/d^2"])
def test_seven_seed_levels_agree_with_seventeen(monkeypatch, spec, d):
    # Seeds only place the first panels: the outer integrals agree within
    # their error bars, and so do the optimum and its peak count.  Seeds
    # belong to the stacked route, which curve does not take on this
    # geometric grid, so it is called directly.
    t = parse_target_spec(spec, d)
    table = get_marginal_table(t)
    lams = np.geomspace(*default_search_range(t, t), 256)
    got, got_opt = engine._table_points(table, t, lams), optimize(t, t)
    with monkeypatch.context() as m:
        m.setattr(engine, "_outer_seeds", _seventeen_level_seeds)
        want, want_opt = engine._table_points(table, t, lams), optimize(t, t)
    for p, q in zip(got, want):
        assert p.ok and q.ok
        assert abs(p.ear - q.ear) <= p.ear_err + q.ear_err
        assert abs(p.esjd - q.esjd) <= p.esjd_err + q.esjd_err
    assert abs(got_opt.lambda_hat - want_opt.lambda_hat) <= got_opt.lambda_err
    assert got_opt.n_local_maxima == want_opt.n_local_maxima


def _z_seeded_tail_weight_many(model, z, *, epsabs, epsrel, max_evals=20_000_000):
    """The table's W under the earlier inner rule: seeded also at x / z in
    {1.0009765625, 1.02, 1.2, 2, 4}, and solved to epsrel 1e-11 whatever
    the caller asks."""
    d, s = model.d, float(model.quantile(0.5))
    log_c = model.log_norm - (d - 1) * np.log(s)

    def f(u, idx):
        zi, gap = z[idx], u * u
        return 2.0 * u * np.exp(_log_x_kernel(d, zi / s, gap / s)
                                + model.log_pi(zi + gap) - log_c)

    lo = np.sqrt(np.maximum(np.maximum(z, model.r_lo) - z, 0.0))
    hi = np.sqrt(np.maximum(model.r_hi - z, 0.0))
    qs = model.breakpoints()
    x_pts = np.column_stack([np.outer(z, [1.0009765625, 1.02, 1.2, 2.0, 4.0]),
                             np.broadcast_to(qs, (z.size, qs.size))])
    pts = np.sqrt(np.clip(x_pts - z[:, None], 0.0, None))
    vals, errs, n = stacked_quad(f, lo, hi, epsabs=epsabs, epsrel=1e-11, points=pts,
                                 max_evals=max_evals)
    return np.clip(vals, 0.0, None), errs, n


@pytest.mark.parametrize("spec, d", [
    ("gaussian", 1), ("gaussian", 10), ("gaussian", 100), ("exponential", 30),
    ("radial-gaussian", 100), ("lognormal", 20), ("mixture:p=1/d^2", 10)])
def test_w_tables_seeded_at_seven_and_seventeen_levels_agree(monkeypatch, spec, d):
    # A table built under an earlier rule agrees with today's at every knot
    # of either, within the sum of the two certificates, in their
    # scale-aware sense |dW| / max(W, w_floor).  The earlier rules: 17
    # quantile levels (the inner integral's seeds and the initial knots),
    # and an inner integral also seeded relative to z and solved to epsrel
    # 1e-11.
    t = parse_target_spec(spec, d)
    got = MarginalTable(t)
    with monkeypatch.context() as m:
        m.setattr(RadialModel, "breakpoints", _seventeen_level_breakpoints)
        seventeen = MarginalTable(t)
    with monkeypatch.context() as m:
        m.setattr(engine, "_tail_weight_many", _z_seeded_tail_weight_many)
        z_seeded = MarginalTable(t)
    for want in (seventeen, z_seeded):
        assert got.certified and want.certified
        z = np.union1d(got._spline.x, want._spline.x)
        w_got, w_want = got.w(z), want.w(z)
        scale = np.maximum(np.maximum(w_got, w_want), MarginalTable.w_floor)
        assert np.max(np.abs(w_got - w_want) / scale) <= \
            got.max_interp_rel_err + want.max_interp_rel_err


def test_w_evaluation_counts(monkeypatch):
    # W's inner integral, seeded at breakpoints() alone and solved to what
    # its caller asks, sets both counts: measured 150 765 for the table
    # (214 290 with the earlier z-relative seeds and epsrel 1e-11) and
    # 106 125 for the nested route at five scales (152 760).
    t = build_example_target("gaussian", 10)
    t.moment(2)  # fit the model and its cut bounds outside the counts
    n_evals = [0]
    gk15 = quadrature._gk15

    def counted(*args):
        out = gk15(*args)
        n_evals[0] += out[2]
        return out

    monkeypatch.setattr(quadrature, "_gk15", counted)
    MarginalTable(t)
    assert 0 < n_evals[0] <= 170_000
    n_evals[0] = 0
    for lam in (0.3, 0.55, 0.75, 1.0, 1.8):
        ear_esjd(t, t, lam)
    assert 0 < n_evals[0] <= 120_000


def test_nested_zero_point_reports_the_cut_errors():
    # Past 2 target.r_hi / proposal.r_lo the outer range is empty: both
    # routes give zeros with the same error bars, those of the two cuts.
    t, prop = parse_target_spec("gaussian", 10), build_example_target("exponential", 10)
    lam = 1.5 * 2.0 * t.r_hi / prop.r_lo
    cut = _cut_errors(t, prop, lam, 0.0)
    assert min(cut) > 0.0
    assert ear_esjd(t, prop, lam) == (0.0, 0.0, *cut)
    p = table_point(get_marginal_table(t), prop, lam)
    assert (p.ear, p.esjd, p.ear_err, p.esjd_err) == (0.0, 0.0, *cut)


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


def _grid_peaks(s):
    """optimize's peak rule: interior points at least both neighbours and
    above one of them."""
    mid, left, right = s[1:-1], s[:-2], s[2:]
    return list(np.nonzero((mid >= left) & (mid >= right)
                           & ((mid > left) | (mid > right)))[0] + 1)


def test_log_grid_needs_its_doubling_and_meets_curve():
    # At d = 1000 the proposal spans ~0.35 in log radius, 13 grid steps, so
    # one trapezoid node a step (m = 1) is ~1e3 error bars off the stacked
    # route; the doubled grid meets it to a tenth of a bar, with the same
    # peaks.
    t = build_example_target("gaussian", 1000)
    table = get_marginal_table(t)
    lams = np.geomspace(*default_search_range(t, t), 512)
    pts = engine._table_points(table, t, lams)
    esjd, bar = (np.array([getattr(p, k) for p in pts]) for k in ("esjd", "esjd_err"))
    coarse = engine._log_grid_pass(table, t, lams, 1)[1]
    assert np.max(np.abs(coarse - esjd) / bar) > 300.0
    ear, fine, m, *_ = engine._log_grid_points(table, t, lams)
    assert m == 4
    assert np.max(np.abs(fine - esjd) / bar) <= 0.1
    assert np.max(np.abs(ear - [p.ear for p in pts]) / [p.ear_err for p in pts]) <= 0.1
    assert _grid_peaks(fine) == _grid_peaks(esjd) == [255]


@pytest.mark.parametrize("m", [1, 2, 4])
def test_log_grid_pass_is_one_sliding_window_product(m):
    # The residue-split correlation is the plain trapezoid sum: row i of a
    # sliding window over W on the joint t + s grid, strided by m, times the
    # weights in s = log y.
    t = build_example_target("exponential", 5)
    table = get_marginal_table(t)
    lams = np.geomspace(0.02, 50.0, 96)
    h = np.log(lams[-1] / lams[0]) / (lams.size - 1)
    n_s = (int(np.ceil(np.log(t.r_hi / t.r_lo) / h)) + 1) * m
    y = t.r_lo * np.exp(np.arange(n_s) * h / m)
    weights = np.full(n_s, h / m)
    weights[[0, -1]] /= 2.0
    g = t.radial_pdf(y) * y * weights
    w = table.w(0.5 * lams[0] * t.r_lo * np.exp(np.arange((lams.size - 1) * m + n_s) * h / m))
    rows = np.lib.stride_tricks.sliding_window_view(w, n_s)[::m]
    ear, esjd = engine._log_grid_pass(table, t, lams, m)
    for got, want in ((ear, rows @ g), (esjd, lams ** 2 * (rows @ (g * y * y)))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_log_grid_doubles_until_converged_and_else_gives_way(monkeypatch):
    t = build_example_target("gaussian", 10)
    table = get_marginal_table(t)
    lams = np.geomspace(0.01, 100.0, 64)
    # a grid so fine that the proposal spans over 2048 of its steps
    assert engine._log_grid_points(table, t, np.geomspace(0.5, 1.0, 512)) is None
    assert engine._log_grid_points(table, t, np.geomspace(0.5, 1.0, 64))[2] == 4
    exact = engine._log_grid_pass

    def planted(err, ear_bump=0.0):
        def grid_pass(table, proposal, lams, m):
            ear, esjd = exact(table, proposal, lams, m)
            ear[10] += ear_bump
            return ear, esjd * (1.0 + err(m))
        return grid_pass

    # too coarse at m = 2: m = 4 and 8 agree, and m = 8's values are taken
    monkeypatch.setattr(engine, "_log_grid_pass", planted(lambda m: 1e-6 * (m == 2)))
    ear, esjd, m, *_ = engine._log_grid_points(table, t, lams)
    assert m == 8 and np.array_equal(esjd, exact(table, t, lams, 8)[1])
    # an error that halves with m but stays above 1e-10 up to m = 64
    monkeypatch.setattr(engine, "_log_grid_pass", planted(lambda m: 1e-6 / m))
    assert engine._log_grid_points(table, t, lams) is None
    # converged, but EAR rises with lambda
    monkeypatch.setattr(engine, "_log_grid_pass", planted(lambda m: 0.0, 0.1))
    assert engine._log_grid_points(table, t, lams) is None


def _grid(kind):
    g = np.geomspace(0.2, 5.0, 40)
    return {"linspace": np.linspace(0.2, 5.0, 40),
            "random": np.sort(np.random.default_rng(3).uniform(0.2, 5.0, 40)),
            "descending": g[::-1].copy(),
            "repeated": np.insert(g, 10, g[10]),
            "one": np.array([0.7]),
            "too fine": np.geomspace(0.5, 1.0, 512),
            "unsettled": np.geomspace(0.01, 100.0, 64)}[kind]


@pytest.mark.parametrize("kind", ["linspace", "random", "descending", "repeated",
                                  "one", "too fine", "unsettled"])
def test_curve_off_a_usable_geometric_grid_is_the_stacked_route(monkeypatch, kind):
    # Only a strictly increasing grid of equal log steps goes to the
    # correlation, and "too fine" (the proposal spans over 2048 of its steps)
    # and "unsettled" (a planted error of 1e-6 / m in ESJD) give way there;
    # every other grid is the stacked route, bit for bit.
    t = build_example_target("gaussian", 10)
    lams = _grid(kind)
    if kind == "unsettled":
        exact = engine._log_grid_pass

        def slow(table, proposal, lams, m):
            ear, esjd = exact(table, proposal, lams, m)
            return ear, esjd * (1.0 + 1e-6 / m)

        monkeypatch.setattr(engine, "_log_grid_pass", slow)
    assert curve(t, t, lams) == engine._table_points(get_marginal_table(t), t, lams)


@pytest.mark.parametrize("spec, proposal_spec, d", [
    ("gaussian", "gaussian", 10), ("exponential", "exponential", 30),
    ("mixture:p=1/d^2", "gaussian", 10), ("lognormal", "gaussian", 20)])
def test_geometric_curve_keeps_its_scales_and_meets_the_stacked_route(
        monkeypatch, spec, proposal_spec, d):
    # The correlation's points carry the caller's scales bit for bit, and
    # each lies within its own bar and the stacked route's bar of the
    # stacked value, over the default window and its centre times 10^(+-1).
    t, p = _parse_pair(spec, proposal_spec, d)
    table = get_marginal_table(t)
    lo, hi = default_search_range(t, p)
    grids = [np.geomspace(lo, hi, 200), np.geomspace(np.sqrt(lo * hi) / 10.0,
                                                      np.sqrt(lo * hi) * 10.0, 200)]
    for lams in grids:
        want = engine._table_points(table, p, lams)
        with monkeypatch.context() as m:
            m.setattr(engine, "_table_points", None)  # the stacked route is not taken
            got = curve(t, p, lams)
        assert [q.lam for q in got] == lams.tolist()
        for q, w in zip(got, want):
            assert q.ok and q.message == w.message == ""
            for v, v0, bar, bar0 in ((q.ear, w.ear, q.ear_err, w.ear_err),
                                     (q.esjd, w.esjd, q.esjd_err, w.esjd_err)):
                assert abs(v - v0) <= min(bar, bar0)


def test_geometric_curve_bars_cover_an_error_that_falls_with_refinement(monkeypatch):
    # A planted error of 3e-10 max(ESJD) / m^2, which the doubling accepts at
    # m = 4, exceeds the certificate's and the cuts' share of the bar at the
    # small scales; the difference from m = 2 covers it.
    t = build_example_target("gaussian", 10)
    table = get_marginal_table(t)
    lams = np.geomspace(0.01, 100.0, 64)
    exact = engine._log_grid_pass
    ear0, esjd0 = exact(table, t, lams, 64)

    def planted(table, proposal, lams, m):
        ear, esjd = exact(table, proposal, lams, m)
        return ear + 3e-10 / m ** 2, esjd + 3e-10 * esjd0.max() / m ** 2

    monkeypatch.setattr(engine, "_log_grid_pass", planted)
    assert engine._log_grid_points(table, t, lams)[2] == 4
    pts = curve(t, t, lams)
    for got, want, bar in (("ear", ear0, "ear_err"), ("esjd", esjd0, "esjd_err")):
        got, bar = (np.array([getattr(q, k) for q in pts]) for k in (got, bar))
        assert np.all(np.abs(got - want) <= bar)


def test_geometric_curve_bars_carry_the_table_and_see_a_planted_error(monkeypatch):
    t = build_example_target("gaussian", 10)
    table = get_marginal_table(t)
    lams = np.geomspace(0.1, 10.0, 100)
    clean = curve(t, t, lams)
    ear, esjd = (np.array([getattr(q, k) for q in clean]) for k in ("ear", "esjd"))
    bars = (np.array([getattr(q, k) for q in clean]) for k in ("ear_err", "esjd_err"))
    assert all(np.all(bar >= table.max_interp_rel_err * np.abs(v))
               for bar, v in zip(bars, (ear, esjd)))
    with monkeypatch.context() as m:
        w = table.w
        m.setattr(table, "w", lambda z: w(z) * (1.0 + 1e-8))
        planted = curve(t, t, lams)
    moved = [abs(q.esjd - c.esjd) / c.esjd_err for q, c in zip(planted, clean)]
    assert max(moved) > 1.0
    # A table that missed its certificate puts its message on every point.
    monkeypatch.setattr(MarginalTable, "max_rounds", 1)
    t = build_example_target("gaussian", 1)
    table = get_marginal_table(t)
    assert not table.certified
    want = (f"W table certificate {table.max_interp_rel_err:.3g} above its "
            f"target {table.rel_tol:.3g}")
    monkeypatch.setattr(engine, "_table_points", None)  # the stacked route is not taken
    assert all(q.ok and q.message == want for q in curve(t, t, lams))


@pytest.mark.parametrize("lambdas, match", [
    ([0.5, np.nan], "finite"), ([0.5, np.inf], "finite"),
    ([0.5, 0.0], "positive"), (0.5, "1-d"), ([[0.5, 1.0]], "1-d")])
def test_curve_rejects_bad_lambdas(lambdas, match):
    t = build_example_target("gaussian", 2)
    for method in ("table", "nested"):
        with pytest.raises(ValueError, match=match):
            curve(t, t, lambdas, method=method)

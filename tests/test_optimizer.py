"""Tests for ESJD maximization, dimension sweeps, and drift diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from rwmscaling import engine, optimizer, quadrature
from rwmscaling.asymptotics import (POINT_MASS_MU_HAT, aos, mixing_from_spec,
                                    solve_aots, transformed_scale)
from rwmscaling.engine import (CurvePoint, EngineError, MarginalTable, get_marginal_table,
                               table_point)
from rwmscaling.optimizer import (
    DimensionSweep,
    DriftReport,
    LocalMaximum,
    OptimizerError,
    ScalingOptimum,
    SweepRow,
    default_search_range,
    optimize,
    peak_drift_diagnostic,
    sweep_dimension,
)
from rwmscaling.targets import _parse_pair, build_example_target, parse_target_spec


def test_optimize_gaussian_1d_matches_closed_form():
    # The argmax of ESJD = (2 lam^2 / pi)(atan(2 / lam) - 2 lam / (lam^2 + 4)).
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        esjd = lambda lam: lam ** 2 * (mp.atan(2 / lam) - 2 * lam / (lam ** 2 + 4))
        exact = float(mp.findroot(lambda lam: mp.diff(esjd, lam), 2.4))
    t = build_example_target("gaussian", 1)
    opt = optimize(t, t, lam_lo=0.2, lam_hi=30.0)
    assert opt.lambda_hat == pytest.approx(exact, rel=1e-9)
    assert opt.ear_hat == pytest.approx(0.4388617, abs=2e-5)
    assert opt.n_local_maxima == 1
    assert opt.lambda_hat == pytest.approx(exact, abs=opt.lambda_err)


def test_optimize_laplace_1d_exact_answer():
    t = build_example_target("laplace", 1)
    opt = optimize(t, t, lam_lo=0.3, lam_hi=40.0)
    assert opt.lambda_hat == pytest.approx(4.0, rel=1e-9)
    assert opt.ear_hat == pytest.approx(1.0 / 3.0, abs=2e-5)
    assert opt.esjd_hat == pytest.approx(256.0 / 216.0, rel=1e-5)


@pytest.mark.parametrize("spec,d", [
    ("gaussian", 5),
    ("exponential", 4),
    ("radial-gaussian", 6),
    ("radial-exponential", 5),
])
def test_unimodal_families_have_one_local_maximum(spec, d):
    t = parse_target_spec(spec, d)
    p = build_example_target("gaussian", d)
    opt = optimize(t, p)
    assert opt.n_local_maxima == 1
    assert opt.local_maxima[0].lam == opt.lambda_hat


def test_boundary_argmax_raises():
    t = build_example_target("gaussian", 2)
    with pytest.raises(OptimizerError):
        optimize(t, t, lam_lo=0.001, lam_hi=0.05)
    with pytest.raises(OptimizerError):
        optimize(t, t, lam_lo=50.0, lam_hi=500.0)


def test_grid_doubling_is_stable():
    # The fixed grid over half the default window's log-width, about its
    # centre, is twice as dense; both brackets polish onto one argmax.
    t = build_example_target("gaussian", 3)
    lo, hi = default_search_range(t, t)
    half = (hi / lo) ** 0.25
    a, b = optimize(t, t), optimize(t, t, lam_lo=np.sqrt(lo * hi) / half,
                                    lam_hi=np.sqrt(lo * hi) * half)
    assert abs(a.lambda_hat - b.lambda_hat) <= a.lambda_err + b.lambda_err
    assert abs(a.esjd_hat / b.esjd_hat - 1.0) < 1e-6


def test_reported_optimum_is_an_interior_local_maximum():
    t = build_example_target("exponential", 3)
    opt = optimize(t, t)
    table = get_marginal_table(t)
    for factor in (0.995, 1.005):
        nearby = table_point(table, t, opt.lambda_hat * factor)
        assert nearby.esjd <= opt.esjd_hat * (1.0 + 1e-9)


def test_mixture_d10_has_two_separated_maxima():
    t = parse_target_spec("mixture:p=1/d^2", 10)
    p = build_example_target("gaussian", 10)
    opt = optimize(t, p, lam_lo=0.05, lam_hi=40.0)
    assert opt.n_local_maxima == 2
    lams = sorted(m.lam for m in opt.local_maxima)
    assert lams[0] == pytest.approx(0.78, rel=0.05)
    assert lams[1] == pytest.approx(7.56, rel=0.05)
    assert opt.lambda_hat == pytest.approx(lams[0], rel=1e-6)


def test_tie_break_prefers_smaller_scale(monkeypatch):
    # With a tie tolerance of 1 every local maximum counts as tied for best,
    # so the canonical answer must be the smallest scale among them.
    monkeypatch.setattr(optimizer, "_TIE_REL", 1.0)
    t = parse_target_spec("mixture:p=1/d^2", 10)
    p = build_example_target("gaussian", 10)
    opt = optimize(t, p, lam_lo=0.05, lam_hi=40.0)
    assert opt.n_local_maxima >= 2
    assert opt.lambda_hat == min(m.lam for m in opt.local_maxima)
    assert opt.canonical_rule == "smallest-lambda-among-argmax"


def _golden_argmax(table, proposal, t_lo, t_hi, tol=1e-11):
    """Reference: golden-section search of ESJD over t = log(lambda), one
    table_point at a time."""
    inv_golden = (np.sqrt(5.0) - 1.0) / 2.0
    fun = lambda t: table_point(table, proposal, float(np.exp(t))).esjd
    a, b = t_lo, t_hi
    c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = fun(d)
    return np.exp(c if fc >= fd else d)


@pytest.mark.parametrize("spec, proposal_spec, d", [
    ("gaussian", "gaussian", 10),
    ("exponential", "exponential", 10),
    ("lognormal", "gaussian", 20),
    ("mixture:p=1/d^2", "gaussian", 10),
])
def test_polished_peaks_meet_a_fine_golden_search(spec, proposal_spec, d):
    t, p = parse_target_spec(spec, d), parse_target_spec(proposal_spec, d)
    table = get_marginal_table(t)
    opt = optimize(t, p)
    for m in opt.local_maxima:
        ref = _golden_argmax(table, p, np.log(m.lam) - 0.02, np.log(m.lam) + 0.02)
        assert m.lam == pytest.approx(ref, rel=1e-6)
    assert opt.n_local_maxima == (2 if spec.startswith("mixture") else 1)


def test_polish_makes_no_stacked_call_and_one_solo_read(monkeypatch):
    calls = {"_table_points": 0, "table_point": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    for name in calls:
        monkeypatch.setattr(optimizer, name, counted(name, getattr(optimizer, name)))
    t = build_example_target("gaussian", 10)
    opt = optimize(t, t)
    assert calls == {"_table_points": 0, "table_point": 1}
    table = get_marginal_table(t)
    solo = table_point(table, t, opt.lambda_hat)
    assert (solo.ear, solo.esjd) == (opt.ear_hat, opt.esjd_hat)
    # the error bar from ESJD's second difference in log(lambda), step 0.01
    s = [table_point(table, t, opt.lambda_hat * np.exp(0.01 * k)).esjd for k in (-1, 0, 1)]
    curv = (s[0] - 2.0 * s[1] + s[2]) / 0.01 ** 2
    assert opt.lambda_err == pytest.approx(
        opt.lambda_hat * (np.sqrt(2.0 * solo.esjd_err / -curv) + 1e-5), rel=1e-3)
    assert 1e-5 <= opt.lambda_err / opt.lambda_hat <= 1e-4


def test_optimize_evaluation_count(monkeypatch):
    # Only the polish and the solo table_point integrate adaptively, about
    # 2 300 evaluations; the bracketing grid reads W once on a log-space grid
    # (engine._log_grid_points).  512 adaptive outer integrals, one per grid
    # point, would take about 65 000.
    t = build_example_target("gaussian", 10)
    get_marginal_table(t)
    n_evals = [0]
    gk15 = quadrature._gk15

    def counted(*args):
        out = gk15(*args)
        n_evals[0] += out[2]
        return out

    monkeypatch.setattr(quadrature, "_gk15", counted)
    optimize(t, t)
    assert 0 < n_evals[0] <= 5_000


@pytest.mark.parametrize("spec, proposal_spec, d", [
    ("gaussian", "gaussian", 1), ("gaussian", "gaussian", 1000),
    ("exponential", "exponential", 30), ("radial-gaussian", "radial-gaussian", 100),
    ("lognormal", "gaussian", 300), ("mixture:p=1/d^2", "gaussian", 10),
    ("laplace", "laplace", 1)])
def test_log_grid_and_curve_bracket_the_same_optimum(monkeypatch, spec,
                                                     proposal_spec, d):
    # The grid only brackets peaks and every reported number comes from the
    # polish and table_point, so both routes give the same optimum to the bit.
    t, p = _parse_pair(spec, proposal_spec, d)
    fast = optimize(t, p)
    monkeypatch.setattr(optimizer, "_log_grid_points", lambda *args: None)
    assert optimize(t, p) == fast


# The 12 optima perfbench/checks.py pins (OPTIMA), laplace d = 1 and gaussian d = 1000.
_POLISH_KEYS = [
    ("gaussian", "gaussian", 1), ("gaussian", "gaussian", 2), ("gaussian", "gaussian", 5),
    ("gaussian", "gaussian", 10), ("gaussian", "gaussian", 20), ("gaussian", "gaussian", 50),
    ("gaussian", "gaussian", 100), ("exponential", "exponential", 10),
    ("exponential", "exponential", 30), ("radial-gaussian", "radial-gaussian", 100),
    ("lognormal", "gaussian", 20), ("mixture:p=1/d^2", "gaussian", 10),
    ("laplace", "laplace", 1), ("gaussian", "gaussian", 1000)]


@pytest.mark.parametrize("spec, proposal_spec, d", _POLISH_KEYS)
def test_sum_polish_meets_the_stacked_polish(monkeypatch, spec, proposal_spec, d):
    # The polish's trapezoid sum and the stacked quadrature it replaced find
    # the same maxima, each to a thousandth of the optimum's relative error bar
    # (measured: at most 2.8e-4 of it, on lognormal d = 20).
    t, p = _parse_pair(spec, proposal_spec, d)
    fast = optimize(t, p)
    monkeypatch.setattr(optimizer, "_settled_sum", lambda *args: None)
    slow = optimize(t, p)
    assert fast.n_local_maxima == slow.n_local_maxima
    rel_err = slow.lambda_err / slow.lambda_hat
    for a, b in zip(fast.local_maxima, slow.local_maxima):
        assert abs(a.lam / b.lam - 1.0) <= 1e-3 * rel_err
    assert abs(fast.lambda_hat - slow.lambda_hat) <= 1e-3 * slow.lambda_err


# optimize before the polish read the sum, with the stacked polish it still falls back to.
# The gaussian and mixture d = 10 entries were re-recorded when W's integrand
# came to read g_d from a cubic table of its series (special._excess_table)
# instead of summing the series: every lambda, EAR and ESJD moved by at most
# 8.2e-14 relative (lambda_hat 1.8e-15 and 8.9e-16), lambda_err by 1.4e-5 and
# 4.6e-8 relative.  laplace d = 1 reads no K_d and held bit for bit.
_STACKED_OPTIMA = {
    ("gaussian", "gaussian", 10): ScalingOptimum(
        lambda_hat=0.7563891879585416, ear_hat=0.2593013384659469,
        esjd_hat=1.2282641714452158, local_maxima=(LocalMaximum(
            lam=0.7563891879585416, ear=0.2593013384659469, esjd=1.2282641714452158),),
        lambda_err=1.78887889129101e-05),
    ("mixture:p=1/d^2", "gaussian", 10): ScalingOptimum(
        lambda_hat=0.7795065296001825, ear_hat=0.25253422815119836,
        esjd_hat=1.2688223174871311, local_maxima=(
            LocalMaximum(lam=0.7795065296001825, ear=0.25253422815119836,
                         esjd=1.2688223174871311),
            LocalMaximum(lam=7.563678959786327, ear=0.002593437604635038,
                         esjd=1.2282744121147307)),
        lambda_err=4.176387200836861e-05),
    ("laplace", "laplace", 1): ScalingOptimum(
        lambda_hat=3.999999999688114, ear_hat=0.3333333333496137,
        esjd_hat=1.1851851851543558, local_maxima=(LocalMaximum(
            lam=3.999999999688114, ear=0.3333333333496137, esjd=1.1851851851543558),),
        lambda_err=0.00041958735531980924),
}


@pytest.mark.parametrize("key", list(_STACKED_OPTIMA))
def test_unsettled_sum_sends_the_polish_to_the_stacked_route(monkeypatch, key):
    # Odd nodes weighted 1e-6 heavier keep the sum at m and at its even nodes
    # (m / 2) apart at every m, so the polish reads stacked quadrature, two
    # calls on these single-round peaks, and finds the optimum as before, bit
    # for bit.  Only lambda_err may move, in its last bits: the fit's ESJD_tt
    # now comes from a derivative matrix, not chebder and chebval.
    nodes, stacked = optimizer._log_nodes, optimizer._table_points
    calls = []

    def planted(proposal, h, m):
        y, g = nodes(proposal, h, m)
        g[1::2] *= 1.0 + 1e-6
        return y, g

    monkeypatch.setattr(optimizer, "_log_nodes", planted)
    monkeypatch.setattr(optimizer, "_table_points",
                        lambda *args: calls.append(1) or stacked(*args))
    opt, want = optimize(*_parse_pair(*key)), _STACKED_OPTIMA[key]
    assert len(calls) == 2
    assert opt.lambda_err == pytest.approx(want.lambda_err, rel=1e-15)
    assert replace(opt, lambda_err=want.lambda_err) == want


@pytest.mark.parametrize("point, error, match", [
    (lambda lam: CurvePoint(lam, np.nan, np.nan, np.nan, np.nan, ok=False),
     OptimizerError, "only 0 of 512 grid evaluations succeeded"),
    (lambda lam: CurvePoint(lam, lam, 1.0, 0.0, 0.0),  # EAR rising with lambda
     EngineError, "acceptance rate increased with lambda")])
def test_curve_fallback_keeps_its_failures(monkeypatch, point, error, match):
    # Where the log grid gives way, the stacked route brackets, with curve's
    # errors.
    t = build_example_target("gaussian", 2)
    monkeypatch.setattr(optimizer, "_log_grid_points", lambda *args: None)
    monkeypatch.setattr(optimizer, "_table_points",
                        lambda table, proposal, lams: [point(float(lam)) for lam in lams])
    with pytest.raises(error, match=match):
        optimize(t, t)


@pytest.mark.parametrize("t0", [0.0137, -0.0051, 0.0003])
def test_polish_narrows_onto_a_non_polynomial_peak(monkeypatch, t0):
    # A cusp 1 - |t - t0|^1.5 defeats the degree-8 fit, so only narrowing
    # brackets bring t* within _REL_TOL of t0.
    calls = []

    def fake_points(table, proposal, lams):
        calls.append(lams.size)
        return [CurvePoint(float(lam), 0.5, 1.0 - abs(np.log(lam) - t0) ** 1.5,
                           0.0, 0.0) for lam in lams]

    monkeypatch.setattr(optimizer, "_table_points", fake_points)
    monkeypatch.setattr(optimizer, "_settled_sum", lambda *args: None)
    h = np.array([0.027])
    t_best, curv = optimizer._polish(None, None, h[0], -h, h, np.zeros(1),
                                     np.array([1.0 - abs(t0) ** 1.5]))
    assert abs(t_best[0] - t0) <= optimizer._REL_TOL
    assert 2 < len(calls) <= 2 * optimizer._POLISH_ROUNDS
    assert curv[0] < 0.0


def test_optimize_rejects_bad_arguments():
    t = build_example_target("gaussian", 2)
    with pytest.raises(ValueError):
        optimize(t, t, lam_lo=1.0, lam_hi=0.5)


def test_optimum_carries_the_table_warning(monkeypatch):
    # Cut to 12 refinement rounds, this mixture's W table ends at a
    # certificate of 3.4e-9, above its 3e-9; it needs 14.
    monkeypatch.setattr(MarginalTable, "max_rounds", 12)
    t = parse_target_spec("mixture:p=1/d", 100)
    opt = optimize(t, build_example_target("gaussian", 100))
    assert not get_marginal_table(t).certified and "certificate" in opt.message
    g = build_example_target("gaussian", 10)
    assert optimize(g, g).message == ""


def test_default_search_range_centres_on_prediction():
    t = build_example_target("gaussian", 9)
    lo, hi = default_search_range(t, t)
    center = np.sqrt(lo * hi)
    assert center == pytest.approx(2.0 * 1.1906012483427703 / 3.0, rel=1e-12)


@pytest.mark.parametrize("spec, d, top", [
    ("mixture:p=0.2", 10, 1e3), ("mixture:p=0.2", 100, 1e3),
    ("mixture:p=0.2", 300, 1e3), ("gaussian", 1000, 1e3),
    ("mixture:p=0.2", 1000, 3e3),  # the wide component peaks near d x centre
])
def test_default_search_range_spans_three_decades_below_the_centre(spec, d, top):
    t, g = parse_target_spec(spec, d), build_example_target("gaussian", d)
    centre = aos(POINT_MASS_MU_HAT, t.k, g.k, d)
    assert default_search_range(t, g) == (centre / 1e3, centre * top)


def test_sweep_reports_rows_and_reference_scale():
    sw = sweep_dimension("gaussian", "gaussian", [1, 2, 5])
    assert sw.dims == (1, 2, 5)
    assert all(row.ok for row in sw.rows)
    assert sw.limit_mu_hat == pytest.approx(1.1906012483427703, abs=1e-9)
    assert sw.limit_aoa == pytest.approx(0.23381016133183664, abs=1e-9)
    for row in sw.rows:
        assert row.corollary_lambda is not None
        # the finite-d optimum approaches the asymptotic rule from above
        assert row.optimum.lambda_hat == pytest.approx(row.corollary_lambda,
                                                       rel=0.05)
    gaps = [abs(r.optimum.lambda_hat / r.corollary_lambda - 1.0)
            for r in sw.rows]
    assert gaps[-1] < gaps[0]


def test_sweep_validates_dims():
    with pytest.raises(ValueError):
        sweep_dimension("gaussian", "gaussian", [])
    with pytest.raises(ValueError):
        sweep_dimension("gaussian", "gaussian", [5, 5])
    with pytest.raises(ValueError):
        sweep_dimension("gaussian", "gaussian", [5, 2])


def _gaussian_table(tmp_path):
    """A custom: proposal with no radial scale k (a gaussian log density)."""
    r = np.linspace(0.01, 40.0, 800)
    path = tmp_path / "gaussian.tsv"
    path.write_text("\n".join(f"{a:.17g} {-0.5 * a * a:.17g}" for a in r))
    return f"custom:{path}"


@pytest.mark.parametrize("target_spec, proposal_spec, dims", [
    ("gaussian", "gaussian", [1, 5, 20]),
    ("mixture:p=1/d^2", "gaussian", [5, 10]),
    ("mixture:p=0.2", "table", [5, 10]),
])
def test_sweep_rows_are_optimize_at_each_dimension(tmp_path, target_spec,
                                                   proposal_spec, dims):
    if proposal_spec == "table":
        proposal_spec = _gaussian_table(tmp_path)
    sw = sweep_dimension(target_spec, proposal_spec, dims)
    for row, d in zip(sw.rows, dims):
        opt = optimize(parse_target_spec(target_spec, d),
                       parse_target_spec(proposal_spec, d))
        assert row.ok and row.d == d
        assert row.optimum == opt and row.message == opt.message


@pytest.mark.parametrize("family, limit", [
    ("gaussian", "point:1"), ("exponential", "point:1"),
    ("radial-gaussian", "halfnormal"), ("radial-exponential", "exp"),
])
def test_sweep_approaches_the_limit_like_one_over_d(family, limit):
    # A quadratic in 1/d through the rows at d = 100, 300 and 1000 has its
    # intercept at the limit optimum.  Measured intercept errors are at most
    # 1.1e-6 in EAR and 5.0e-6 in mu_hat; the bounds leave about 2x and 1.6x.
    dims = [100, 300, 1000]
    sw = sweep_dimension(family, "gaussian", dims)
    for row in sw.rows:
        assert row.ok
        # exponential's d = 1000 table ends at a certificate of 3.06e-9
        if (family, row.d) != ("exponential", 1000):
            assert row.message == ""
    inv_d = 1.0 / np.array(dims, dtype=float)
    ears = [row.optimum.ear_hat for row in sw.rows]
    mus = [transformed_scale(row.optimum.lambda_hat, row.d, row.k_x, row.k_y)
           for row in sw.rows]
    ref = solve_aots(mixing_from_spec(limit))
    assert abs(np.polyfit(inv_d, ears, 2)[-1] - ref.aoa) < 2.5e-6
    assert abs(np.polyfit(inv_d, mus, 2)[-1] - ref.mu_hat) < 8e-6


def _synthetic_sweep(mus, dims):
    rows = []
    for d, mu in zip(dims, mus):
        lam = 2.0 * mu / np.sqrt(d)
        opt = ScalingOptimum(lambda_hat=lam, ear_hat=0.2, esjd_hat=1.0,
                             local_maxima=(LocalMaximum(lam, 0.2, 1.0),))
        rows.append(SweepRow(d=d, ok=True, optimum=opt, corollary_lambda=None,
                             k_x=1.0, k_y=1.0))
    return DimensionSweep(target_spec="synthetic", proposal_spec="synthetic",
                          dims=tuple(dims), rows=tuple(rows),
                          limit_mu_hat=None, limit_aoa=None)


def test_drift_classification_bounded():
    sw = _synthetic_sweep([1.25, 1.21, 1.20, 1.19], [2, 5, 10, 30])
    rep = peak_drift_diagnostic(sw)
    assert isinstance(rep, DriftReport)
    assert rep.classification == "bounded-argmax"
    assert [d for d, _, _ in rep.per_dim] == [2, 5, 10, 30]


def test_drift_classification_drifting():
    sw = _synthetic_sweep([1.0, 2.2, 4.5, 9.0], [2, 5, 10, 30])
    assert peak_drift_diagnostic(sw).classification == "drifting-argmax"


def test_drift_classification_peak_swap():
    sw = _synthetic_sweep([1.2, 1.25, 7.8, 8.0], [2, 5, 10, 30])
    assert peak_drift_diagnostic(sw).classification == "peak-swap"


def test_drift_needs_two_successful_dims():
    sw = _synthetic_sweep([1.2], [4])
    with pytest.raises(OptimizerError):
        peak_drift_diagnostic(sw)

"""Tests for the simulation oracles: the full Metropolis chain and the
direct Monte Carlo expectation."""

import math

import numpy as np
import pytest

from rwmscaling.elliptical import EllipticalSpec
from rwmscaling.engine import (closed_form_gaussian_1d, get_marginal_table,
                               table_point)
from rwmscaling.simulate import (_lockstep, _split_rhat, mc_expectation,
                                 run_rwm)
from rwmscaling.targets import build_example_target, parse_target_spec


def test_chain_is_reproducible():
    t = build_example_target("gaussian", 3)
    a = run_rwm(t, t, 1.2, n_iters=5_000, seed=42)
    b = run_rwm(t, t, 1.2, n_iters=5_000, seed=42)
    assert a == b
    c = run_rwm(t, t, 1.2, n_iters=5_000, seed=43)
    assert c.accept_rate != a.accept_rate


def test_chain_matches_gaussian_closed_form_1d():
    t = build_example_target("gaussian", 1)
    lam = 2.4264019
    stats = run_rwm(t, t, lam, n_iters=200_000, seed=11)
    ear_c, esjd_c = closed_form_gaussian_1d(lam)
    assert stats.accept_rate == pytest.approx(ear_c, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(esjd_c, abs=4 * stats.esjd_se)
    assert stats.accept_se < 0.01
    assert stats.flag == ""


def test_chain_matches_quadrature_d10():
    t = build_example_target("exponential", 10)
    p = build_example_target("gaussian", 10)
    lam = 0.45
    stats = run_rwm(t, p, lam, n_iters=150_000, seed=5)
    ref = table_point(get_marginal_table(t), p, lam)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(ref.esjd, abs=4 * stats.esjd_se)


def test_stationarity_of_squared_radius():
    # Started from an exact stationary draw, the chain average of R^2 must
    # sit near E[R^2] = d for the standard Gaussian target.
    t = build_example_target("gaussian", 5)
    stats = run_rwm(t, t, 1.06, n_iters=120_000, seed=9)
    assert stats.mean_sq_radius == pytest.approx(5.0, rel=0.05)


def test_degenerate_acceptance_flags():
    t = build_example_target("gaussian", 2)
    tiny = run_rwm(t, t, 1e-4, n_iters=2_000, seed=1)
    assert "near 1" in tiny.flag
    assert "not mixed" in tiny.flag
    assert tiny.accept_rate > 0.999
    huge = run_rwm(t, t, 500.0, n_iters=2_000, seed=1)
    assert "near 0" in huge.flag
    assert huge.accept_rate < 1e-3


def test_json_record_schema():
    t = build_example_target("gaussian", 2)
    stats = run_rwm(t, t, 1.5, n_iters=1_000, seed=3)
    record = stats.record()
    assert list(record) == ["target", "proposal", "d", "lambda", "n_iters",
                            "seed", "accept_rate", "accept_se", "esjd",
                            "esjd_se"]
    assert record["d"] == 2
    assert record["lambda"] == 1.5
    assert record["n_iters"] == 1_000
    assert record["seed"] == 3
    assert record["accept_rate"] == stats.accept_rate


def test_chain_validation_errors():
    t = build_example_target("gaussian", 2)
    p3 = build_example_target("gaussian", 3)
    with pytest.raises(ValueError):
        run_rwm(t, t, 0.0)
    with pytest.raises(ValueError):
        run_rwm(t, t, 1.0, n_iters=50)
    with pytest.raises(ValueError):
        run_rwm(t, t, 1.0, n_iters=1_000, burn_in=1_000)
    with pytest.raises(ValueError):
        run_rwm(t, p3, 1.0)


def test_elliptical_chain_proposes_from_its_spec():
    # elliptical_ear_esjd reads spec.proposal_core; a chain given any other
    # proposal model would answer a different question.
    core = build_example_target("gaussian", 2)
    spec = EllipticalSpec(d=2, eigenvalues=(1.0, 3.0), spherical_core=core,
                          proposal_core=core)
    with pytest.raises(ValueError, match="proposal_core"):
        run_rwm(spec, build_example_target("gaussian", 2), 0.4, n_iters=1_000)
    assert run_rwm(spec, core, 0.4, n_iters=1_000).n_iters == 1_000


def test_elliptical_uniform_stretch_equals_rescaled_spherical_chain():
    # nu = (c, ..., c) only rescales the coordinates: with a shared seed the
    # two chains see identical uniform draws and identical acceptance ratios,
    # and the Mahalanobis metric absorbs c, so the summaries agree exactly.
    c, d = 2.0, 3
    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=(c,) * d, spherical_core=core,
                          proposal_core=core)
    ell = run_rwm(spec, core, 0.6, n_iters=20_000, seed=77)
    sph = run_rwm(core, core, c * 0.6, n_iters=20_000, seed=77)
    assert ell.accept_rate == sph.accept_rate
    assert ell.esjd == pytest.approx(sph.esjd, rel=1e-12)
    assert ell.target.startswith("elliptical(")


def test_elliptical_chain_matches_transformed_average():
    from rwmscaling.elliptical import elliptical_ear_esjd

    d = 2
    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=(1.0, 3.0), spherical_core=core,
                          proposal_core=core)
    lam = 0.4
    stats = run_rwm(spec, core, lam, n_iters=150_000, seed=21)
    ref = elliptical_ear_esjd(spec, lam, n_draws=300_000)
    ear_tol = 4 * (stats.accept_se + ref.ear_se)
    esjd_tol = 4 * (stats.esjd_se + ref.esjd_se)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=ear_tol)
    assert stats.esjd == pytest.approx(ref.esjd, abs=esjd_tol)


def test_mc_expectation_matches_quadrature():
    t = build_example_target("gaussian", 5)
    for lam in (0.5, 1.1):
        mc = mc_expectation(t, t, lam, n_samples=400_000, seed=2)
        ref = table_point(get_marginal_table(t), t, lam)
        assert mc.ear == pytest.approx(ref.ear, abs=4 * mc.ear_se)
        assert mc.esjd == pytest.approx(ref.esjd, abs=4 * mc.esjd_se)


def test_mc_expectation_reproducible_and_validated():
    t = build_example_target("exponential", 4)
    a = mc_expectation(t, t, 0.8, n_samples=20_000, seed=6)
    b = mc_expectation(t, t, 0.8, n_samples=20_000, seed=6)
    assert a == b
    p5 = build_example_target("gaussian", 5)
    with pytest.raises(ValueError):
        mc_expectation(t, t, 0.8, n_samples=5_000)
    with pytest.raises(ValueError):
        mc_expectation(t, t, -0.8)
    with pytest.raises(ValueError):
        mc_expectation(t, p5, 0.8)


def test_mixture_target_chain_agrees_with_quadrature():
    # A low-dimensional mixture: at d = 2 the radial marginal's two modes
    # are separated by a shallow valley, so the chain hops between the
    # components often enough to equilibrate.  (At d >= 5 the valley is
    # many nats deep and a plain random-walk chain is metastable: it tracks
    # the component it starts in, and no feasible run length recovers the
    # full-mixture expectations.)
    t = parse_target_spec("mixture:p=0.3", 2)
    p = build_example_target("gaussian", 2)
    lam = 1.2
    stats = run_rwm(t, p, lam, n_iters=200_000, seed=31)
    ref = table_point(get_marginal_table(t), p, lam)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(ref.esjd, abs=4 * stats.esjd_se)
    assert stats.mean_sq_radius == pytest.approx(t.moment(2), rel=0.05)


def _scalar_metropolis(x0, lp0, steps, log_u, log_pi):
    """Reference chain: one chain at a time, one proposal at a time."""
    accepts = np.zeros(log_u.shape, dtype=bool)
    radii = np.empty(log_u.shape)
    final = np.empty_like(x0)
    for c in range(len(x0)):
        x, lp = x0[c].copy(), float(lp0[c])
        for t in range(len(steps)):
            xs = x + steps[t, c]
            radii[t, c] = math.sqrt(float(xs @ xs))
            lps = float(log_pi(np.array([radii[t, c]]))[0])
            if log_u[t, c] <= lps - lp:
                accepts[t, c] = True
                x, lp = xs, lps
        final[c] = x
    return accepts, radii, final


@pytest.mark.parametrize("spec,nus", [
    ("gaussian", None),
    ("mixture:p=0.3", None),
    ("gaussian", (1.0, 2.0, 3.0)),
])
def test_lockstep_kernel_matches_scalar_chains(spec, nus):
    d, k, n = 3, 7, 400
    rng = np.random.default_rng(8)
    log_pi = parse_target_spec(spec, d).log_pi
    # Half-integer starts make |x| exact in any summation order, so the
    # first proposal, a reflection x -> -x with log u = 0, is an exact tie
    # that the rule log u <= log ratio must accept.
    x0 = rng.integers(-4, 5, size=(k, d)) * 0.5 + 0.5
    steps = 0.9 * rng.standard_normal((n, k, d))
    steps[0] = -2.0 * x0
    if nus is not None:
        # An elliptical chain runs where the target is spherical, with
        # states and steps scaled by nu; for integer nu the reflection
        # stays an exact tie.
        x0, steps = x0 * np.asarray(nus), steps * np.asarray(nus)
    log_u = np.log(rng.random((n, k)))
    log_u[0] = 0.0
    lp0 = log_pi(np.sqrt(np.einsum("ij,ij->i", x0, x0)))

    want_acc, want_rs, want_x = _scalar_metropolis(x0, lp0, steps, log_u, log_pi)
    x, lp = x0.copy(), lp0.copy()
    acc, rs = _lockstep(x, lp, steps, log_u, log_pi)
    assert acc[0].all()
    assert 0.2 < want_acc.mean() < 0.9
    np.testing.assert_array_equal(acc, want_acc)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_allclose(lp, log_pi(np.linalg.norm(x, axis=1)),
                               rtol=1e-13)
    np.testing.assert_allclose(rs, want_rs, rtol=1e-14)


def test_chain_standard_errors_match_the_seed_to_seed_spread():
    t = build_example_target("gaussian", 5)
    runs = [run_rwm(t, t, 1.06, n_iters=20_000, seed=s) for s in range(40)]
    for est, se in (("accept_rate", "accept_se"), ("esjd", "esjd_se")):
        spread = np.std([getattr(r, est) for r in runs], ddof=1)
        median_se = np.median([getattr(r, se) for r in runs])
        assert 0.7 * median_se <= spread <= 1.4 * median_se, (est, spread,
                                                              median_se)


def test_budget_is_split_over_the_chains():
    t = build_example_target("gaussian", 2)
    stats = run_rwm(t, t, 1.5, n_iters=1_003, burn_in=77, seed=4)
    assert (stats.n_iters, stats.burn_in) == (1_003, 77)
    # 926 kept steps: every acceptance rate is a multiple of 1/926.
    assert math.isclose(stats.accept_rate * 926, round(stats.accept_rate * 926),
                        abs_tol=1e-9)
    with pytest.raises(ValueError):
        run_rwm(t, t, 1.5, n_iters=1_000, burn_in=951)


def test_mixed_gaussian_chains_are_not_flagged():
    t = build_example_target("gaussian", 10)
    stats = run_rwm(t, t, 0.7528, n_iters=400_000, seed=3)
    assert 1.0 <= stats.rhat < 1.01
    assert stats.flag == ""


def test_metastable_mixture_chains_are_flagged():
    # mixture:p=1/d^2 at d = 10: a chain that starts in the wide component
    # (weight 0.01; one of the 50 stationary starts at seed 0) never
    # leaves it, so the chains disagree.  At seed 2 every start is narrow
    # and the chains agree, though all of them miss the wide component.
    t = parse_target_spec("mixture:p=1/d^2", 10)
    p = build_example_target("gaussian", 10)
    stuck = run_rwm(t, p, 0.8, n_iters=400_000, seed=0)
    assert stuck.rhat > 1.05
    assert "not mixed" in stuck.flag
    narrow = run_rwm(t, p, 0.8, n_iters=400_000, seed=2)
    assert narrow.flag == ""
    assert stuck.accept_se > 5 * narrow.accept_se


def test_split_rhat_matches_the_rank_normalized_formula():
    from scipy.special import ndtri
    from scipy.stats import rankdata

    rng = np.random.default_rng(12)
    # Rounded draws give many ties; the odd length drops a middle draw.
    series = np.round(rng.standard_normal((301, 6)), 1)
    series[:, 0] += 1.0
    halves = np.concatenate([series[:150], series[151:]], axis=1)
    z = ndtri((rankdata(halves, axis=None).reshape(halves.shape) - 0.375)
              / (halves.size + 0.25))
    w = z.var(axis=0, ddof=1).mean()
    b = 150 * z.mean(axis=0).var(ddof=1)
    want = math.sqrt((149 / 150 * w + b / 150) / w)
    assert _split_rhat(series) == pytest.approx(want, rel=1e-12)
    assert want > 1.01
    assert _split_rhat(series[:, 1:]) < 1.01
    assert math.isnan(_split_rhat(series[:3]))
    assert math.isnan(_split_rhat(np.ones((20, 4))))
    assert _split_rhat(np.repeat(np.arange(4.0)[None], 20, axis=0)) > 1e6

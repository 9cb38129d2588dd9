"""Tests for the dimension-limit machinery: Theta, the stationarity solver,
the acceptance-rate bound, and the optimal-scale reductions."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.special import erf, ndtr
from scipy.stats import norm

from rwmscaling import asymptotics
from rwmscaling.asymptotics import (
    POINT_MASS_AOA,
    POINT_MASS_MU_HAT,
    AsymptoticsError,
    aoa_bound_check,
    aos,
    limit_ear,
    limit_ear_general,
    limit_esjd,
    limit_esjd_general,
    mixing_atoms,
    mixing_density,
    mixing_from_spec,
    mixing_point,
    mixing_samples,
    solve_aots,
    theta,
    theta_prime_neg,
    transformed_scale,
)
from rwmscaling.targets import parse_target_spec, radial_from_density, sample_radius

# Solver anchors, frozen from a 40-digit mpmath evaluation of the
# stationarity condition 2 Theta(-mu) = mu Theta'(-mu).
_ANCHORS = {
    "point:1": (1.1906012483427703, 0.23381016133183664),
    "halfnormal": (1.670347, 0.091362),
    "exp": (2.851857, 0.055361),
    "lognormal": (19.324241, 0.02439176),
}


def test_point_mass_constants():
    opt = solve_aots(mixing_point(1.0))
    assert opt.mu_hat == pytest.approx(POINT_MASS_MU_HAT, abs=1e-12)
    assert opt.aoa == pytest.approx(POINT_MASS_AOA, abs=1e-12)
    assert opt.limit_esjd_at_mu_hat == pytest.approx(0.3314332295577028,
                                                     abs=1e-12)
    assert opt.roots == (opt.mu_hat,)
    assert opt.esjd_argmax_mu == opt.mu_hat
    assert opt.residual < 1e-12
    assert opt.finite


def test_point_mass_theta_closed_forms():
    dist = mixing_point(1.0)
    xs = np.array([-2.0, -0.5, 0.0, 1.3])
    assert theta(dist, xs) == pytest.approx(norm.cdf(xs), abs=1e-15)
    mus = np.array([0.0, 0.7, 2.0])
    assert theta_prime_neg(dist, mus) == pytest.approx(norm.pdf(mus), abs=1e-15)
    assert limit_ear(dist, 1.0) == pytest.approx(2 * norm.cdf(-1.0), abs=1e-15)
    assert limit_esjd(dist, 1.0) == pytest.approx(2 * norm.cdf(-1.0), abs=1e-15)


@pytest.mark.parametrize("spec", ["halfnormal", "exp", "lognormal"])
def test_continuous_mixing_anchors(spec):
    mu_ref, aoa_ref = _ANCHORS[spec]
    opt = solve_aots(mixing_from_spec(spec))
    assert opt.mu_hat == pytest.approx(mu_ref, abs=5e-6 * max(1.0, mu_ref))
    assert opt.aoa == pytest.approx(aoa_ref, abs=5e-7)
    assert len(opt.roots) == 1
    assert opt.residual < 1e-9


def test_all_anchor_aoas_below_point_mass():
    for spec, (_, aoa_ref) in _ANCHORS.items():
        if spec != "point:1":
            assert aoa_ref < POINT_MASS_AOA


def test_pareto_heavy_tail_has_no_finite_optimum():
    opt = solve_aots(mixing_from_spec("pareto:1.5"))
    assert opt.no_finite_optimum
    assert not opt.finite
    assert opt.mu_hat == np.inf
    assert opt.aoa == 0.0
    assert opt.roots == ()


@pytest.mark.parametrize("alpha", [0.05, 0.07, 0.1, 0.3, 0.5, 0.7, 0.76, 0.8, 1.0])
def test_every_pareto_tail_down_to_the_bound_builds(alpha):
    # A (1, 1e14) scan holds too little of an r^-alpha tail below alpha =
    # 0.7601; there the window widens with 1/alpha.  Where 1e14 suffices
    # the law is the one that window gives, bit for bit.
    law = mixing_from_spec(f"pareto:{alpha}")
    assert solve_aots(law).no_finite_optimum
    assert abs(law.weights.sum() - 1.0) < 2e-12
    if alpha >= 0.8:
        log_pdf = _pareto_law(alpha)[0]
        want = mixing_density(log_pdf, label=f"pareto:{alpha}", scan=(1.0, 1e14))
        assert np.array_equal(law.values, want.values)
        assert np.array_equal(law.weights, want.weights)


@pytest.mark.parametrize("alpha", [0.01, 0.03, 0.049])
def test_pareto_tails_below_the_bound_raise(alpha):
    # Below 0.035 the scan top 10^(10.65/alpha) is not a double.
    with pytest.raises(ValueError, match="at least 0.05"):
        mixing_from_spec(f"pareto:{alpha}")


def test_optimum_is_scale_equivariant():
    # A density law is the nodes of its rule, so scaling it is exact.
    base = mixing_from_spec("halfnormal")
    ref = solve_aots(base)
    for c in (0.5, 2.0):
        opt = solve_aots(base.scaled(c))
        assert opt.mu_hat == pytest.approx(c * ref.mu_hat, rel=1e-13)
        assert opt.aoa == pytest.approx(ref.aoa, abs=1e-13)


def _pareto_law(a):
    """(log-density as mixing_from_spec builds it, pdf, cdf, scan window)."""
    return (lambda r: np.where(r >= 1.0, -(a + 1.0) * np.log(np.maximum(r, 1.0)),
                               -np.inf),
            lambda r: a * r ** (-a - 1.0), lambda r: 1.0 - r ** -a, (1.0, 1e14))


_DENSITY_LAWS = {
    "halfnormal": (lambda r: -0.5 * np.asarray(r) ** 2,
                   lambda r: np.sqrt(2.0 / np.pi) * np.exp(-0.5 * r * r),
                   lambda r: erf(r / np.sqrt(2.0)), (1e-12, 1e12)),
    "exp": (lambda r: -np.asarray(r), lambda r: np.exp(-r),
            lambda r: -np.expm1(-r), (1e-12, 1e12)),
    "lognormal": (lambda r: -0.5 * (np.log(r) - 1.0) ** 2 - np.log(r),
                  lambda r: norm.pdf(np.log(r) - 1.0) / r,
                  lambda r: ndtr(np.log(r) - 1.0), (1e-12, 1e12)),
    "pareto:1.5": _pareto_law(1.5),
    "pareto:3": _pareto_law(3.0),
}


@pytest.mark.parametrize("spec", list(_DENSITY_LAWS))
def test_density_laws_match_an_independent_reference(spec):
    # Theta(-x), Theta(x) and Theta'(-x) by scipy's adaptive quadrature in
    # t = log r over the analytic density, restricted as the law is to the
    # support radial_from_density keeps: mass below r_lo is dropped and the
    # rest renormalized, then the tail beyond r_hi (1e-12) is cut.
    log_pi, pdf, cdf, scan = _DENSITY_LAWS[spec]
    model = radial_from_density(1, log_pi, scan=scan)
    xs = np.geomspace(1e-4, 1e4, 60)

    def f(t):
        r = np.exp(t)
        z = xs / r
        return np.concatenate([ndtr(-z), ndtr(z), norm.pdf(z) / r]) * pdf(r) * r

    inside = xs[(xs > model.r_lo) & (xs < model.r_hi)]
    ref, _ = quad_vec(f, np.log(model.r_lo), np.log(model.r_hi), epsabs=1e-15,
                      epsrel=1e-13, norm="max", limit=5000, points=np.log(inside))
    ref /= 1.0 - cdf(model.r_lo)
    dist = mixing_from_spec(spec)
    got = np.concatenate([theta(dist, -xs), theta(dist, xs),
                          theta_prime_neg(dist, xs)])
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("spec, mu_hat, aoa", [
    ("halfnormal", 1.6703469291626931, 0.09136177567063114),
    ("exp", 2.8518574559254803, 0.055361162291832175),
    ("lognormal", 19.324241299596277, 0.02439175500716945),
    ("pareto:3", 1.8501361908960607, 0.19288176870981388),
])
def test_density_optima_are_pinned(spec, mu_hat, aoa):
    # Values from the adaptive integral per block of x that the rule
    # replaced; the rule moves them only by rounding.
    opt = solve_aots(mixing_from_spec(spec))
    assert opt.mu_hat == pytest.approx(mu_hat, rel=1e-13)
    assert opt.aoa == pytest.approx(aoa, rel=1e-13)


def _log_jump(r):
    """Flat below r = 2, r^-4 above: a density with an interior jump."""
    r = np.asarray(r, dtype=float)
    return np.where(r < 2.0, 0.0, -4.0 * np.log(np.maximum(r, 2.0) / 2.0))


@pytest.mark.parametrize("spec", list(_DENSITY_LAWS) + ["pareto:10", "jump"])
def test_density_rules_stay_small(spec):
    # A tighter tolerance makes the core halve near-flat panels down to its
    # width floor: 1e-12 or 1e-13 gives some of these laws 1e5 nodes or more.
    dist = (mixing_density(_log_jump, label="jump") if spec == "jump"
            else mixing_from_spec(spec))
    assert dist.kind == "density"
    assert 100 <= dist.values.size <= 2000
    assert np.all(np.diff(dist.values) > 0.0)
    assert dist.weights.sum() == pytest.approx(1.0, abs=2e-12)


def test_point_mass_location_does_not_change_aoa():
    for value in (0.25, 1.0, 7.0):
        opt = solve_aots(mixing_point(value))
        assert opt.mu_hat == pytest.approx(value * POINT_MASS_MU_HAT, rel=1e-12)
        assert opt.aoa == pytest.approx(POINT_MASS_AOA, abs=1e-12)


def test_solver_root_agrees_with_grid_argmax():
    dist = mixing_from_spec("exp")
    opt = solve_aots(dist)
    mus = np.geomspace(opt.mu_hat / 30.0, opt.mu_hat * 30.0, 400)
    vals = limit_esjd(dist, mus)
    best = mus[int(np.argmax(vals))]
    step = np.log(mus[1] / mus[0])
    assert abs(np.log(best / opt.mu_hat)) <= step + 1e-12


def test_general_form_reduces_to_degenerate_proposal():
    r = mixing_from_spec("halfnormal")
    y = mixing_point(1.0)
    for mu in (0.4, 1.67, 3.0):
        ear_pair, err_e = limit_ear_general(r, y, mu)
        esjd_pair, err_s = limit_esjd_general(r, y, mu)
        assert ear_pair == pytest.approx(limit_ear(r, mu), abs=max(1e-9, 3 * err_e))
        assert esjd_pair == pytest.approx(limit_esjd(r, mu),
                                          abs=max(1e-9, 3 * err_s))


def test_general_form_two_atom_proposal_manual():
    r = mixing_point(1.0)
    y = mixing_atoms([0.5, 2.0], [0.3, 0.7])
    mu = 1.2
    want_ear = 2 * (0.3 * norm.cdf(-mu * 0.5) + 0.7 * norm.cdf(-mu * 2.0))
    want_esjd = mu * mu * 2 * (0.3 * 0.25 * norm.cdf(-mu * 0.5)
                               + 0.7 * 4.0 * norm.cdf(-mu * 2.0))
    assert limit_ear_general(r, y, mu)[0] == pytest.approx(want_ear, abs=1e-12)
    assert limit_esjd_general(r, y, mu)[0] == pytest.approx(want_esjd, abs=1e-12)


def _halfnormal_pair_reference(mu):
    """R = 1, Y = |Z|: EAR 2 E[Phi(-mu Y)] = 1 - (2/pi) arctan(mu) in closed
    form, and ESJD 2 mu^2 E[Y^2 Phi(-mu Y)] by mpmath quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        esjd = mu * mu * mp.quad(
            lambda y: mp.sqrt(2 / mp.pi) * mp.exp(-y * y / 2) * y * y
            * mp.erfc(mu * y / mp.sqrt(2)), [0, mp.inf])
    return 1.0 - 2.0 / np.pi * np.arctan(mu), float(esjd)


def test_general_form_halfnormal_density_proposal():
    r, y = mixing_point(1.0), mixing_from_spec("halfnormal")
    for mu in (0.3, 1.0, 2.5):
        want_ear, want_esjd = _halfnormal_pair_reference(mu)
        assert limit_ear_general(r, y, mu)[0] == pytest.approx(want_ear, abs=1e-9)
        assert limit_esjd_general(r, y, mu)[0] == pytest.approx(want_esjd, abs=1e-9)


def test_general_form_halfnormal_sample_proposal():
    r = mixing_point(1.0)
    y = mixing_samples(np.abs(np.random.default_rng(4).standard_normal(200_000)))
    for mu in (0.3, 1.0, 2.5):
        want_ear, want_esjd = _halfnormal_pair_reference(mu)
        ear, ear_se = limit_ear_general(r, y, mu)
        esjd, esjd_se = limit_esjd_general(r, y, mu)
        assert 0.0 < ear_se < 2e-3 and 0.0 < esjd_se < 2e-3
        assert abs(ear - want_ear) < 3.0 * ear_se
        assert abs(esjd - want_esjd) < 3.0 * esjd_se


def test_samples_spec_reads_a_radius_file(tmp_path):
    radii = 0.1 + np.abs(np.random.default_rng(2).standard_normal(500))
    path = tmp_path / "radii.txt"
    np.savetxt(path, radii)
    from_file = mixing_from_spec(f"samples:{path}")
    assert from_file.kind == "samples"
    np.testing.assert_array_equal(from_file.values, mixing_samples(radii).values)


def test_from_target_samples_recover_family_limit():
    model = parse_target_spec("radial-gaussian", 64)
    dist = mixing_samples(
        sample_radius(model, 60_000, np.random.default_rng(3)) / model.k,
        label="from-target:radial-gaussian:64")
    opt = solve_aots(dist)
    ref = solve_aots(mixing_from_spec("halfnormal"))
    assert opt.mu_hat == pytest.approx(ref.mu_hat, rel=0.03)
    assert opt.aoa == pytest.approx(ref.aoa, abs=0.004)


def test_bound_check_equality_only_for_point_mass():
    rep = aoa_bound_check(mixing_point(1.0))
    assert rep.equality and rep.is_point_mass
    assert rep.gap == pytest.approx(0.0, abs=1e-10)

    rep = aoa_bound_check(mixing_from_spec("halfnormal"))
    assert not rep.equality
    assert rep.gap > 0.1
    assert rep.aoa < rep.bound

    with pytest.raises(AsymptoticsError):
        aoa_bound_check(mixing_from_spec("pareto:1.5"))


def test_degenerate_laws_are_point_masses():
    for dist in [mixing_samples(np.full(200, 2.0)),
                 mixing_atoms([1, 1], [0.3, 0.7]),
                 mixing_atoms([1, 3], [1, 0])]:
        rep = aoa_bound_check(dist)
        assert rep.equality and rep.is_point_mass
    assert not mixing_atoms([1, 3], [0.5, 0.5]).is_point_mass
    assert not mixing_from_spec("halfnormal").is_point_mass


def test_zero_mass_guard():
    with pytest.raises(AsymptoticsError):
        mixing_atoms([1e-9, 1.0], [0.5, 0.5])
    rng = np.random.default_rng(0)
    bad = np.concatenate([rng.uniform(1e-9, 1e-8, 200), rng.uniform(1, 2, 200)])
    with pytest.raises(AsymptoticsError):
        mixing_samples(bad)
    with pytest.raises(AsymptoticsError):
        mixing_density(lambda r: -0.9 * np.log(r) - np.asarray(r))


@pytest.mark.parametrize("spec", ["from-target:radial-gaussian:50",
                                  "from-target:radial-exponential:50"])
def test_zero_mass_guard_allows_sampling_noise(spec):
    # One radius below 1e-6 in 200k draws is noise from a law with no atom.
    dist = mixing_from_spec(spec, seed=0)
    assert dist.mass_below(1e-6) > 1e-6


def test_atoms_spec_grammar():
    dist = mixing_from_spec("atoms:0.5@1,2@3")
    assert dist.values == pytest.approx([0.5, 2.0])
    assert dist.weights == pytest.approx([0.25, 0.75])
    dist = mixing_from_spec("atoms:1,3")
    assert dist.weights == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        mixing_from_spec("atoms:-1@1")
    with pytest.raises(ValueError):
        mixing_from_spec("no-such-law")
    with pytest.raises(ValueError):
        mixing_from_spec("pareto:-2")


def test_samples_constructor_validation():
    with pytest.raises(ValueError):
        mixing_samples(np.ones(50))
    with pytest.raises(ValueError):
        mixing_samples(np.concatenate([np.ones(200), [np.nan]]))


def test_scale_reductions_roundtrip():
    lam = aos(POINT_MASS_MU_HAT, 1.0, 1.0, 25)
    assert lam == pytest.approx(2 * POINT_MASS_MU_HAT / 5.0, rel=1e-14)
    mu = transformed_scale(lam, 25, 1.0, 1.0)
    assert mu == pytest.approx(POINT_MASS_MU_HAT, rel=1e-14)
    # radial scales at d = 16: k_x = sqrt(d) target against k_y = d
    lam = aos(2.0, 4.0, 16.0, 16)
    assert lam == pytest.approx(2 * 2.0 * 4.0 / (4.0 * 16.0), rel=1e-14)
    with pytest.raises(ValueError):
        aos(np.inf, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        aos(1.0, 0.0, 1.0, 4)
    for lam in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            transformed_scale(lam, 4, 1.0, 1.0)


def test_scale_reductions_reject_non_finite_k_and_bad_dimension():
    for k in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            aos(1.19, k, 1.0, 4)
        with pytest.raises(ValueError, match="finite and positive"):
            aos(1.19, 1.0, k, 4)
        with pytest.raises(ValueError, match="finite and positive"):
            transformed_scale(1.0, 4, k, 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            transformed_scale(1.0, 4, 1.0, k)
    for d in (0, -4, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            aos(1.19, 1.0, 1.0, d)
        with pytest.raises(ValueError, match="positive integer"):
            transformed_scale(1.0, d, 1.0, 1.0)


def test_theta_prime_rejects_negative_mu():
    with pytest.raises(ValueError):
        theta_prime_neg(mixing_point(1.0), -0.5)
    with pytest.raises(ValueError):
        limit_ear(mixing_point(1.0), -1.0)


def _two_expectation_gap(dist, mu):
    """Reference stationarity gap from Theta and Theta' taken separately."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return 2.0 * theta(dist, -mu) - mu * theta_prime_neg(dist, mu)


@pytest.fixture(scope="module")
def chi_radii():
    """200k rescaled radii of a gaussian target at d = 50, unsorted."""
    rng = np.random.default_rng(5)
    return np.sqrt(rng.chisquare(50, 200_000) / 50)


@pytest.mark.parametrize("spec, tol", [("atoms:1@0.2,1@1,3@0.5", 1e-14),
                                       ("halfnormal", 1e-11),
                                       ("pareto:1.5", 1e-11),
                                       ("samples-200k", 1e-14)])
def test_fused_gap_matches_two_expectation_form(spec, tol, chi_radii,
                                                monkeypatch):
    dist = (mixing_samples(chi_radii) if spec == "samples-200k"
            else mixing_from_spec(spec))
    grid = asymptotics._search_grid(dist)
    fused = asymptotics._stationarity_gap(dist, grid)
    ref = _two_expectation_gap(dist, grid)
    assert np.max(np.abs(fused - ref)) <= tol
    # Signs may differ only where both forms have underflowed: the dead tail
    # that solve_aots trims.
    flip = np.sign(fused) != np.sign(ref)
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(fused[flip]) < tiny) and np.all(np.abs(ref[flip]) < tiny)

    opt = solve_aots(dist)
    monkeypatch.setattr(asymptotics, "_stationarity_gap", _two_expectation_gap)
    want = solve_aots(dist)
    assert len(opt.roots) == len(want.roots)
    assert opt.mu_hat == pytest.approx(want.mu_hat, rel=1e-12)


def test_dead_prefix_skip_is_exact():
    assert asymptotics._gap_kernel(asymptotics._Z_DEAD, 1.0) == 0.0
    radii = np.sort(np.random.default_rng(2).lognormal(0.0, 1.0, 20_000))
    dist = mixing_samples(radii)
    grid = asymptotics._search_grid(dist)
    cut = grid / asymptotics._Z_DEAD
    # Some grid points skip part of the cloud, others all of it.
    assert np.any((radii[0] < cut) & (cut < radii[-1]))
    assert np.any(cut > radii[-1])
    blocked = asymptotics._stationarity_gap(dist, grid)
    unblocked = np.array([np.mean(asymptotics._gap_kernel(m, 1.0 / radii))
                          for m in grid])
    assert np.max(np.abs(blocked - unblocked)) <= 1e-15
    assert np.array_equal(blocked == 0.0, unblocked == 0.0)


def test_sample_law_solve_has_bounded_memory_and_ignores_order(chi_radii):
    given = np.random.default_rng(1).permutation(chi_radii)
    kept = given.copy()
    dist = mixing_samples(given)
    assert np.array_equal(given, kept)
    tracemalloc.start()
    try:
        opt = solve_aots(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert solve_aots(mixing_samples(chi_radii)) == opt


def test_from_target_cloud_solve_is_pinned():
    # The optimum of the solve that averaged g over the cloud at every grid
    # point; reading signs off the support must not move it.
    opt = solve_aots(mixing_from_spec("from-target:gaussian:50"))
    assert opt.mu_hat == pytest.approx(1.1922139527501583, rel=1e-13)
    assert opt.aoa == pytest.approx(0.22948667230338826, rel=1e-13)


def _points_averaged(dist, monkeypatch):
    """The grid points _gap_sign averages; its signs must be the full gap's."""
    grid = asymptotics._search_grid(dist)
    points = []
    full_gap = asymptotics._stationarity_gap

    def counted(d, mu, **kw):
        points.append(np.size(mu))
        return full_gap(d, mu, **kw)

    monkeypatch.setattr(asymptotics, "_stationarity_gap", counted)
    sign = asymptotics._gap_sign(dist, grid)
    assert np.array_equal(sign, np.sign(full_gap(dist, grid)))
    assert grid.size > 500
    return sum(points)


def test_sample_law_grid_averages_only_where_the_sign_is_open(chi_radii,
                                                              monkeypatch):
    assert _points_averaged(mixing_samples(chi_radii), monkeypatch) <= 16


@pytest.mark.parametrize("spec, most", [("halfnormal", 24), ("exp", 32),
                                        ("lognormal", 40),
                                        ("loguniform-cloud", 24)])
def test_grid_averages_few_points(spec, most, monkeypatch):
    # Measured: 16, 24, 32 and 16 points (352, 392 and 328 for the three
    # densities when only the law's extreme values bounded the sign).
    if spec == "loguniform-cloud":
        # 20k radii spread over eight decades
        u = np.random.default_rng(0).uniform(-4.0, 4.0, 20_000)
        dist = mixing_samples(10.0 ** u)
    else:
        dist = mixing_from_spec(spec)
    assert _points_averaged(dist, monkeypatch) <= most


def test_a_cloud_is_its_radii_as_equal_atoms(chi_radii):
    radii = chi_radii[:5_000]
    atoms = mixing_atoms(radii, np.ones(radii.size))
    cloud = mixing_samples(radii)
    mu = np.geomspace(1e-3, 50.0, 40)
    assert np.array_equal(theta(atoms, mu), theta(cloud, mu))
    assert np.array_equal(theta(atoms, -mu), theta(cloud, -mu))
    assert np.array_equal(theta_prime_neg(atoms, mu), theta_prime_neg(cloud, mu))
    assert solve_aots(atoms) == solve_aots(cloud)


def test_grid_sign_averages_where_a_light_atom_could_underflow():
    # The atom at 1000 alone is alive where mu/1000 lies in (1.2, 30], but its
    # weight times h(mu/1000) underflows, so there g rounds to 0.
    dist = mixing_atoms([1.0, 1000.0], [1.0, 1e-300])
    grid = asymptotics._search_grid(dist)
    full = asymptotics._stationarity_gap(dist, grid)
    assert np.any((grid / 1000.0 > 1.01 * POINT_MASS_MU_HAT) & (grid / 1000.0 <= 30.0)
                  & (full == 0.0))
    assert np.array_equal(asymptotics._gap_sign(dist, grid), np.sign(full))


@pytest.mark.parametrize("weight", [1e-315, 1e-320])
def test_grid_sign_averages_where_light_atoms_underflow_one_by_one(weight):
    # 100 atoms near 100, each so light that its term underflows to 0 where
    # the atom at 1 is dead, though the run's weight times h would not.
    values = np.concatenate([[1.0], np.linspace(100.0, 101.0, 100)])
    dist = mixing_atoms(values, np.concatenate([[1.0], np.full(100, weight)]))
    grid = asymptotics._search_grid(dist)
    full = asymptotics._stationarity_gap(dist, grid)
    assert np.any((grid > asymptotics._Z_DEAD) & (grid / 101.0 <= 30.0)
                  & (full == 0.0))
    assert np.array_equal(asymptotics._gap_sign(dist, grid), np.sign(full))

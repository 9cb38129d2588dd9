"""Structural facts of the limit theory checked over random mixing laws
(atoms, sample clouds and densities): the optimal acceptance rate stays
below the point-mass value 0.2338 with equality only at a point mass, the
optimum is scale equivariant, and a discrete law's stationary points lie in
its support times the point-mass optimum.  solve_aots reads the gap's sign
off bounds over runs of the law's values, and each sign is that of the full
average.  At finite d: EAR is a probability that falls with lambda, the
optimum is scale equivariant and agrees across grids within its error bar,
and the table and nested routes agree."""

import functools

import numpy as np
import pytest

from rwmscaling import asymptotics
from rwmscaling.asymptotics import (POINT_MASS_AOA, POINT_MASS_MU_HAT,
                                    aoa_bound_check, mixing_atoms, mixing_density,
                                    mixing_from_spec, mixing_point,
                                    mixing_samples, solve_aots)
from rwmscaling.engine import curve, ear_esjd, get_marginal_table, table_point
from rwmscaling.optimizer import default_search_range, optimize
from rwmscaling.targets import parse_target_spec, radial_from_density

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def atom_laws(draw):
    """2 to 4 atoms, neighbouring values at least 1.5x apart, every
    normalized weight at least 0.1."""
    n = draw(st.integers(2, 4))
    start = draw(st.floats(1e-2, 1e2))
    ratios = draw(st.lists(st.floats(1.5, 10.0), min_size=n - 1, max_size=n - 1))
    values = start * np.cumprod([1.0] + ratios)
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    weights = 0.1 + (1.0 - 0.1 * n) * raw / raw.sum()
    return mixing_atoms(values, weights)


@st.composite
def thin_atom_laws(draw):
    """1 to 6 atoms between 1e-2 and 1e2 with weights from e^-30 to 1,
    some of them 0."""
    n = draw(st.integers(1, 6))
    values = np.exp(draw(st.lists(st.floats(np.log(1e-2), np.log(1e2)),
                                  min_size=n, max_size=n)))
    weights = np.exp(-np.array(draw(st.lists(st.floats(0.0, 30.0),
                                             min_size=n, max_size=n))))
    weights[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    hypothesis.assume(weights.sum() > 0.0)
    return mixing_atoms(values, weights)


@st.composite
def sample_laws(draw):
    """2k to 5k radii of a lognormal law with a drawn spread and seed."""
    n = draw(st.integers(2_000, 5_000))
    sigma = draw(st.floats(0.05, 1.5))
    seed = draw(st.integers(0, 2**32 - 1))
    return mixing_samples(np.random.default_rng(seed).lognormal(0.0, sigma, n))


@st.composite
def lognormal_clouds(draw):
    """100 to 5k lognormal radii with spread 1e-3 to 3, and up to two radii
    near 1e-6: as many as the zero-mass guard lets through at 100 radii."""
    n = draw(st.integers(100, 5_000))
    sigma = draw(st.floats(1e-3, 3.0))
    n_tiny = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = rng.lognormal(0.0, sigma, n)
    radii[:n_tiny] = rng.uniform(5e-7, 2e-6, n_tiny)
    return mixing_samples(radii)


@st.composite
def density_laws(draw):
    """A lognormal law with log R ~ N(m, sigma^2), or a pareto:a law, each
    as the quadrature rule mixing_density builds."""
    if draw(st.booleans()):
        m, sigma = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 2.5))
        return mixing_density(
            lambda r: -0.5 * ((np.log(r) - m) / sigma) ** 2 - np.log(r))
    return mixing_from_spec(f"pareto:{draw(st.floats(1.0, 6.0))!r}")


@st.composite
def wide_clouds(draw):
    """1k to 10k radii spread log-uniformly over 2 to 8 decades."""
    n = draw(st.integers(1_000, 10_000))
    centre, decades = draw(st.floats(-1.0, 1.0)), draw(st.floats(2.0, 8.0))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n)
    return mixing_samples(10.0 ** (centre + decades * (u - 0.5)))


@settings(max_examples=100, deadline=None)
@given(atom_laws())
def test_spread_atom_laws_stay_strictly_below_point_mass(dist):
    rep = aoa_bound_check(dist)
    assert rep.aoa <= 0.2339 and not rep.equality
    assert rep.gap > 0.0 and rep.aoa < POINT_MASS_AOA


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_point_mass_attains_the_bound_anywhere(value):
    rep = aoa_bound_check(mixing_point(value))
    assert rep.equality and rep.is_point_mass


@settings(max_examples=50, deadline=None)
@given(atom_laws(), st.floats(0.1, 10.0))
def test_optimum_is_scale_equivariant_over_atom_laws(dist, c):
    ref = solve_aots(dist)
    opt = solve_aots(dist.scaled(c))
    assert opt.mu_hat == pytest.approx(c * ref.mu_hat, rel=1e-9)
    assert opt.aoa == pytest.approx(ref.aoa, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(sample_laws(), st.floats(0.1, 10.0))
def test_optimum_is_scale_equivariant_over_sample_laws(dist, c):
    ref = solve_aots(dist)
    opt = solve_aots(dist.scaled(c))
    assert ref.aoa <= 0.2339
    assert opt.mu_hat == pytest.approx(c * ref.mu_hat, rel=1e-9)
    assert opt.aoa == pytest.approx(ref.aoa, abs=1e-10)


def _assert_grid_signs_match_the_full_gap(dist):
    grid = asymptotics._search_grid(dist)
    full = asymptotics._stationarity_gap(dist, grid)
    assert np.array_equal(asymptotics._gap_sign(dist, grid), np.sign(full))
    # A radius far above the rest puts a root within rounding of
    # POINT_MASS_MU_HAT * R_max, so allow the tolerance of solve_aots's Brent
    # refinement (xtol 1e-13, rtol 8.9e-16).
    r_lo, r_hi = dist.support
    for root in solve_aots(dist).roots:
        slack = 2e-13 + 1e-12 * root
        assert POINT_MASS_MU_HAT * r_lo - slack <= root
        assert root <= POINT_MASS_MU_HAT * r_hi + slack


@settings(max_examples=40, deadline=None)
@given(lognormal_clouds())
def test_cloud_grid_signs_match_the_full_gap(dist):
    _assert_grid_signs_match_the_full_gap(dist)


@settings(max_examples=100, deadline=None)
@given(st.one_of(atom_laws(), thin_atom_laws()))
def test_atom_grid_signs_match_the_full_gap(dist):
    _assert_grid_signs_match_the_full_gap(dist)


@settings(max_examples=50, deadline=None)
@given(density_laws())
def test_density_grid_signs_match_the_full_gap(dist):
    _assert_grid_signs_match_the_full_gap(dist)


@settings(max_examples=50, deadline=None)
@given(wide_clouds())
def test_wide_cloud_grid_signs_match_the_full_gap(dist):
    _assert_grid_signs_match_the_full_gap(dist)


# Finite-d facts of the exact integrals, over random dimensions and scales.
# Models, and the W tables kept on them, are cached per (family, d).
_FINITE_D_FAMILIES = ["gaussian", "exponential", "radial-gaussian",
                      "lognormal", "mixture:p=1/d^2"]


@functools.cache
def _model(family, d):
    return parse_target_spec(family, d)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_FINITE_D_FAMILIES), st.integers(2, 30), st.data())
def test_ear_is_a_probability_that_falls_with_lambda(family, d, data):
    target, proposal = _model(family, d), _model("gaussian", d)
    lo, hi = default_search_range(target, proposal)
    log_lams = data.draw(st.lists(st.floats(np.log(lo), np.log(hi)),
                                  min_size=12, max_size=12))
    lams = np.exp(np.sort(log_lams))
    pts = curve(target, proposal, lams)
    assert all(p.ok for p in pts)
    ears = np.array([p.ear for p in pts])
    errs = np.array([p.ear_err for p in pts])
    assert np.all(ears >= 0.0) and np.all(ears <= 1.0 + errs)
    assert np.all(np.diff(ears) <= errs[1:] + errs[:-1])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["gaussian", "exponential", "radial-gaussian", "lognormal"]),
       st.integers(2, 30), st.floats(0.2, 5.0))
def test_finite_d_optimum_is_scale_equivariant(family, d, c):
    # The target of c R has log density log_pi(r / c) and radial scale c k.
    # Its W table is built afresh, so its ESJD curve matches only to the
    # tables' rounding; the polished lambda_hat moves with that rounding, so
    # only the optimizer's own tolerance is asserted.
    target, proposal = _model(family, d), _model("gaussian", d)
    scaled = radial_from_density(
        d, lambda r: target.log_pi(r / c), k=c * target.k,
        extra_breakpoints=[c * b for b in target.extra_breakpoints])
    ref, opt = optimize(target, proposal), optimize(scaled, proposal)
    assert opt.lambda_hat == pytest.approx(c * ref.lambda_hat, rel=2e-5)
    assert opt.ear_hat == pytest.approx(ref.ear_hat, abs=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_FINITE_D_FAMILIES), st.integers(2, 30))
def test_optimum_agrees_across_grids_within_its_error_bar(family, d):
    # The fixed grid over the default window and over a third of its
    # log-width, three times as dense, bracket the same peak, and each
    # polish lands on the same argmax, within the two error bars.  The
    # narrow window is centred on the default optimum: lognormal's lies
    # more than a decade above the window's own centre.
    target, proposal = _model(family, d), _model("gaussian", d)
    lo, hi = default_search_range(target, proposal)
    third = (hi / lo) ** (1.0 / 6.0)
    b = optimize(target, proposal)
    a = optimize(target, proposal, lam_lo=b.lambda_hat / third,
                 lam_hi=b.lambda_hat * third)
    assert abs(a.lambda_hat - b.lambda_hat) <= a.lambda_err + b.lambda_err


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(_FINITE_D_FAMILIES), st.integers(2, 30),
       st.floats(0.0, 1.0))
def test_table_and_nested_routes_agree(family, d, t):
    target, proposal = _model(family, d), _model("gaussian", d)
    lo, hi = default_search_range(target, proposal)
    lam = lo * (hi / lo) ** t
    ear, esjd, _, _ = ear_esjd(target, proposal, lam)
    pt = table_point(get_marginal_table(target), proposal, lam)
    assert pt.ear == pytest.approx(ear, rel=1e-7, abs=1e-10)
    assert pt.esjd == pytest.approx(esjd, rel=1e-7, abs=1e-10)

"""Tests for elliptical targets: eigenvalue rules, the transformed-space
EAR/ESJD average (against an exact oracle for Gaussian cores), the
eccentricity condition, and the scaling correction."""

import tracemalloc

import numpy as np
import pytest

from rwmscaling.elliptical import (
    EccentricityReport,
    EllipticalError,
    EllipticalSpec,
    eccentricity_condition,
    elliptical_aos,
    elliptical_ear_esjd,
    lemma5_numeric_check,
    parse_eigenvalue_rule,
)
from rwmscaling.engine import (closed_form_gaussian_1d, get_marginal_table,
                               table_point)
from rwmscaling.quadrature import adaptive_quad
from rwmscaling.simulate import mc_expectation
from rwmscaling.targets import build_example_target


def gaussian_elliptical_exact(nus, lam: float) -> np.ndarray:
    """Exact (EAR, Mahalanobis ESJD) for a Gaussian core and proposal under
    the axis map nu.

    There |Y_*|^2 = sum nu_i^2 Z_i^2 and W(z) = erfc(z / sqrt 2).  Craig's
    (1991) form erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 t) dt turns
    E W(lam |Y_*| / 2) into one integral over t of
    prod_i (1 + a_i)^(-1/2), a_i = lam^2 nu_i^2 / (4 sin^2 t), and the ESJD
    into that times lam^2 sum_i nu_i^2 / (1 + a_i).
    """
    nu2 = np.asarray(nus, dtype=float) ** 2

    def f(t):
        a = 1.0 + (0.25 * lam * lam) * nu2 / np.sin(t)[:, None] ** 2
        p = np.exp(-0.5 * np.log(a).sum(axis=1))
        return np.column_stack([p, lam * lam * p * (nu2 / a).sum(axis=1)])

    return (2.0 / np.pi) * adaptive_quad(f, 0.0, 0.5 * np.pi, epsabs=1e-13).value


def _spec(rule: str, d: int, core: str = "gaussian") -> EllipticalSpec:
    t = build_example_target(core, d)
    return EllipticalSpec(d=d, eigenvalues=tuple(parse_eigenvalue_rule(rule, d)),
                          spherical_core=t, proposal_core=t)


def test_parse_eigenvalue_rules():
    assert parse_eigenvalue_rule("const:2", 3) == pytest.approx([2, 2, 2])
    assert parse_eigenvalue_rule("iota", 4) == pytest.approx([1, 2, 3, 4])
    assert parse_eigenvalue_rule("spike:3", 4) == pytest.approx([1, 1, 1, 12])
    with pytest.raises(EllipticalError):
        parse_eigenvalue_rule("const:0", 3)
    with pytest.raises(EllipticalError):
        parse_eigenvalue_rule("ellipse", 3)
    with pytest.raises(EllipticalError):
        parse_eigenvalue_rule("iota", 0)


@pytest.mark.parametrize("rule", ["const:inf", "spike:inf", "const:nan", "spike:0"])
def test_rules_giving_non_finite_or_non_positive_eigenvalues_raise(rule):
    with pytest.raises(EllipticalError, match="finite and positive"):
        parse_eigenvalue_rule(rule, 3)


def test_parse_eigenvalue_file(tmp_path):
    path = tmp_path / "nus.txt"
    path.write_text("1.5\n2.5\n")
    nus = parse_eigenvalue_rule(f"file:{path}", 5)
    assert nus == pytest.approx([1.5, 2.5, 2.5, 2.5, 2.5])
    nus = parse_eigenvalue_rule(f"file:{path}", 1)
    assert nus == pytest.approx([1.5])
    path.write_text("1.0\n-2.0\n")
    with pytest.raises(EllipticalError):
        parse_eigenvalue_rule(f"file:{path}", 2)
    path.write_text("")
    with pytest.raises(EllipticalError):
        parse_eigenvalue_rule(f"file:{path}", 2)
    path.write_text("1.0\ninf\n")
    with pytest.raises(EllipticalError, match="finite and positive"):
        parse_eigenvalue_rule(f"file:{path}", 2)


def test_spec_validation_and_cached_stats():
    t2 = build_example_target("gaussian", 2)
    t3 = build_example_target("gaussian", 3)
    spec = EllipticalSpec(d=2, eigenvalues=(1.0, 3.0),
                          spherical_core=t2, proposal_core=t2)
    assert spec.mean_sq == pytest.approx(5.0)
    with pytest.raises(EllipticalError):
        EllipticalSpec(d=2, eigenvalues=(1.0,), spherical_core=t2,
                       proposal_core=t2)
    with pytest.raises(EllipticalError):
        EllipticalSpec(d=2, eigenvalues=(1.0, -1.0), spherical_core=t2,
                       proposal_core=t2)
    with pytest.raises(EllipticalError):
        EllipticalSpec(d=2, eigenvalues=(1.0, np.inf), spherical_core=t2,
                       proposal_core=t2)
    with pytest.raises(EllipticalError):
        EllipticalSpec(d=2, eigenvalues=(1.0, 1.0), spherical_core=t3,
                       proposal_core=t2)


def test_identity_map_reduces_to_spherical():
    spec = _spec("const:1", 5)
    table = get_marginal_table(spec.spherical_core)
    for lam in (0.4, 1.1, 3.0):
        pt = elliptical_ear_esjd(spec, lam, n_draws=200_000)
        ref = table_point(table, spec.proposal_core, lam)
        assert pt.ear == pytest.approx(ref.ear, abs=3 * pt.ear_se)
        assert pt.esjd == pytest.approx(ref.esjd, abs=3 * pt.esjd_se)


def test_const_map_is_a_scale_shift():
    c = 2.5
    spec = _spec(f"const:{c}", 4)
    table = get_marginal_table(spec.spherical_core)
    for lam in (0.3, 0.9):
        pt = elliptical_ear_esjd(spec, lam, n_draws=150_000)
        ref = table_point(table, spec.proposal_core, c * lam)
        assert pt.ear == pytest.approx(ref.ear, abs=3 * pt.ear_se)
        assert pt.esjd == pytest.approx(ref.esjd, abs=3 * pt.esjd_se)
        # The elliptical draws are mc_expectation's radii times |nu . U| = c.
        same = elliptical_ear_esjd(spec, lam, n_draws=150_000, seed=5)
        sph = mc_expectation(spec.spherical_core, spec.proposal_core, c * lam,
                             n_samples=150_000, seed=5)
        for field in ("ear", "ear_se", "esjd", "esjd_se"):
            assert getattr(same, field) == pytest.approx(getattr(sph, field),
                                                         rel=1e-12, abs=0.0)
        assert (same.n_samples, same.seed) == (sph.n_samples, sph.seed)


def test_exact_gaussian_oracle_reduces_to_the_spherical_values():
    for c, lam in [(1.0, 0.1), (1.0, 0.7), (2.5, 0.9), (1.0, 10.0)]:
        exact = gaussian_elliptical_exact([c], lam)
        assert exact == pytest.approx(closed_form_gaussian_1d(c * lam),
                                      rel=0.0, abs=1e-13)
    c, spec = 2.5, _spec("const:2.5", 4)
    table = get_marginal_table(spec.spherical_core)
    for lam in (0.3, 0.9):
        ear, esjd = gaussian_elliptical_exact(spec.eigenvalues, lam)
        ref = table_point(table, spec.proposal_core, c * lam)
        assert abs(ear - ref.ear) <= min(ref.ear_err, 1e-10)
        assert abs(esjd - ref.esjd) <= min(ref.esjd_err, 1e-10)


@pytest.mark.parametrize("rule, d, lam", [("iota", 10, 0.1), ("spike:1", 8, 0.3),
                                          ("iota", 3, 0.8)])
def test_elliptical_average_matches_the_exact_gaussian_value(rule, d, lam):
    spec = _spec(rule, d)
    ear, esjd = gaussian_elliptical_exact(spec.eigenvalues, lam)
    pt = elliptical_ear_esjd(spec, lam)
    assert abs(pt.ear - ear) <= 4 * pt.ear_se
    assert abs(pt.esjd - esjd) <= 4 * pt.esjd_se


def test_elliptical_draws_hold_bounded_memory_in_d():
    # Directions come in blocks of at most 2^18 normals, so a default call's
    # peak stays near its 200k radii and W values (~8 MB) at any d.
    spec = _spec("iota", 128)
    get_marginal_table(spec.spherical_core)
    tracemalloc.start()
    try:
        elliptical_ear_esjd(spec, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_elliptical_point_reproducibility_and_validation():
    spec = _spec("iota", 3)
    a = elliptical_ear_esjd(spec, 0.8, n_draws=20_000, seed=7)
    b = elliptical_ear_esjd(spec, 0.8, n_draws=20_000, seed=7)
    assert (a.ear, a.esjd) == (b.ear, b.esjd)
    c = elliptical_ear_esjd(spec, 0.8, n_draws=20_000, seed=8)
    assert c.ear != a.ear
    assert c.ear == pytest.approx(a.ear, abs=5 * (a.ear_se + c.ear_se))
    with pytest.raises(ValueError):
        elliptical_ear_esjd(spec, -1.0)
    with pytest.raises(ValueError):
        elliptical_ear_esjd(spec, 1.0, n_draws=10)


def test_eccentricity_condition_classifications():
    dims = [10, 30, 100]
    rep = eccentricity_condition("const:1", dims)
    assert rep.satisfied
    assert rep.ratios == pytest.approx([1 / 10, 1 / 30, 1 / 100])

    rep = eccentricity_condition("iota", dims)
    assert rep.satisfied
    assert rep.ratios[-1] < rep.ratios[0] / 2

    rep = eccentricity_condition("spike:1", dims)
    assert not rep.satisfied
    assert rep.ratios[-1] > 0.9  # the spike dominates the whole spectrum

    # The verdict reads the decay per unit log d, so close dims agree.
    for dims in ([8, 9, 10], [100, 110, 120], [2, 3, 4]):
        for rule in ("const:1", "const:2.5", "iota"):
            assert eccentricity_condition(rule, dims).satisfied, (rule, dims)
        assert not eccentricity_condition("spike:1", dims).satisfied, dims

    with pytest.raises(EllipticalError):
        eccentricity_condition("const:1", [10, 30])
    with pytest.raises(EllipticalError):
        eccentricity_condition("const:1", [10, 10, 30])


def test_eccentricity_reads_any_sequence_from_a_file_rule(tmp_path):
    # A file rule takes the first d values, so one file serves every d.
    path = tmp_path / "harmonic.txt"
    path.write_text("\n".join(repr(1.0 / i) for i in range(1, 161)))
    rule = f"file:{path}"
    rep = eccentricity_condition(rule, [10, 40, 160])
    assert isinstance(rep, EccentricityReport)
    assert rep.rule == rule
    # sum of 1/i^2 converges, so the top eigenvalue keeps a fixed share
    assert not rep.satisfied

    # One axis of squared length s over unit ones has the share s/(s + d - 1):
    # over dims 2, 8, 32 it halves (the d^(-1/4) rate) exactly when s <= 29.
    for s, want in [(28.0, True), (30.0, False)]:
        path.write_text(f"{s ** 0.5!r}\n1.0\n")
        assert eccentricity_condition(rule, [2, 8, 32]).satisfied == want, s


def test_lemma5_shell_concentration():
    dims = [5, 20, 80]
    rep = lemma5_numeric_check("const:1", dims, n_samples=40_000)
    assert rep.decreasing
    assert rep.deviations[-1] < 0.01

    rep = lemma5_numeric_check("iota", dims, n_samples=40_000)
    assert rep.decreasing

    rep = lemma5_numeric_check("spike:1", dims, n_samples=40_000)
    assert not rep.decreasing
    assert rep.deviations[-1] > 0.1

    with pytest.raises(EllipticalError):
        lemma5_numeric_check("const:1", [5])
    with pytest.raises(EllipticalError):
        lemma5_numeric_check("const:1", [5, 5])


def test_aos_correction_factor():
    mu, d = 1.1906012483427703, 9
    ident = _spec("const:1", d)
    assert elliptical_aos(ident, mu) == pytest.approx(2 * mu / 3.0, rel=1e-14)
    stretched = _spec("const:2", d)
    assert elliptical_aos(stretched, mu) == pytest.approx(2 * mu / 6.0, rel=1e-14)
    with pytest.raises(ValueError):
        elliptical_aos(ident, np.inf)

"""Tests for elliptical targets: eigenvalue rules, the transformed-space
EAR/ESJD average, the eccentricity condition, and the scaling correction."""

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
from rwmscaling.engine import get_marginal_table, table_point
from rwmscaling.targets import build_example_target


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
    assert spec.nu_max == 3.0
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

    with pytest.raises(EllipticalError):
        eccentricity_condition("const:1", [10, 30])
    with pytest.raises(EllipticalError):
        eccentricity_condition("const:1", [10, 10, 30])


def test_eccentricity_accepts_callable_rule():
    def harmonic(d):
        return 1.0 / np.arange(1, d + 1)

    rep = eccentricity_condition(harmonic, [10, 40, 160])
    assert isinstance(rep, EccentricityReport)
    assert rep.rule == "harmonic"
    # sum of 1/i^2 converges, so the top eigenvalue keeps a fixed share
    assert not rep.satisfied


@pytest.mark.parametrize("check,dims", [
    (eccentricity_condition, [10, 40, 160]),
    (lemma5_numeric_check, [5, 20]),
])
@pytest.mark.parametrize("bad_rule", [
    lambda d: -np.ones(d),
    lambda d: np.ones(d + 1),
    lambda d: np.full(d, np.inf),
])
def test_callable_rules_with_invalid_eigenvalues_raise(check, dims, bad_rule):
    with pytest.raises(EllipticalError):
        check(bad_rule, dims)


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


def test_aos_warns_when_condition_violated():
    d = 9
    spec = _spec("spike:1", d)
    bad = eccentricity_condition("spike:1", [3, 6, 9])
    with pytest.warns(RuntimeWarning, match="eccentricity condition violated"):
        elliptical_aos(spec, 1.19, condition=bad)
    good = eccentricity_condition("const:1", [3, 6, 9])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        elliptical_aos(_spec("const:1", d), 1.19, condition=good)

"""Tests for radial target construction, sampling, and the spec-string grammar."""

import math

import numpy as np
import pytest
from scipy import integrate

from rwmscaling.targets import (
    RadialModel,
    build_example_target,
    parse_mixture_weight,
    parse_target_spec,
    radial_from_density,
    unit_sphere_area,
)

FAMILIES = ["gaussian", "exponential", "laplace", "radial-gaussian",
            "radial-exponential", "lognormal"]


def test_unit_sphere_area_known_values():
    assert unit_sphere_area(1) == pytest.approx(2.0)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi)
    for d in (0, -4, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            unit_sphere_area(d)


@pytest.mark.parametrize("log_pi", [
    lambda r: -0.5 * math.pow(r, 2),  # scalar-only: fails on an array
    lambda r: -0.5,                   # one value for every radius
])
def test_radial_from_density_requires_a_vectorized_log_density(log_pi):
    with pytest.raises(ValueError, match="vectorized"):
        radial_from_density(3, log_pi)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_radial_density_normalized(family, d):
    if family == "laplace" and d != 1:
        pytest.skip("laplace is the 1-d exponential alias")
    t = build_example_target(family, d)
    val, err = integrate.quad(t.radial_pdf, t.r_lo, t.r_hi,
                              points=t.breakpoints()[:40], limit=400)
    assert val == pytest.approx(1.0, abs=5e-9)


@pytest.mark.parametrize("d", [1, 3, 10])
def test_gaussian_moments_match_chi_distribution(d):
    t = build_example_target("gaussian", d)
    assert t.moment(2.0) == pytest.approx(d, rel=1e-9)
    mean_chi = math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2)
    assert t.moment(1.0) == pytest.approx(mean_chi, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_exponential_radius_is_gamma(d):
    # pi ~ exp(-|x|) makes |X| a Gamma(d, 1) variable.
    t = build_example_target("exponential", d)
    assert t.moment(1.0) == pytest.approx(d, rel=1e-9)
    assert t.moment(2.0) == pytest.approx(d * (d + 1), rel=1e-9)


def test_radial_families_are_dimension_free():
    # radial-gaussian / radial-exponential tilt the density so the radius
    # law never depends on d.
    for family, m1, m2 in [("radial-gaussian", math.sqrt(2 / math.pi), 1.0),
                           ("radial-exponential", 1.0, 2.0)]:
        for d in (1, 4, 25):
            t = build_example_target(family, d)
            assert t.moment(1.0) == pytest.approx(m1, rel=1e-8)
            assert t.moment(2.0) == pytest.approx(m2, rel=1e-8)


def test_lognormal_second_moment_against_independent_quadrature():
    # Independent oracle: integrate the spliced density formula directly
    # with a different integrator.
    for d in (1, 2, 3):
        t = build_example_target("lognormal", d)
        edge = math.exp(-(d - 1))

        def raw(r):
            if r <= edge:
                return r ** (d - 1)
            s = math.log(r) + (d - 1)
            return r ** (d - 1) * math.exp(-0.5 * s * s)

        pts = [edge, 1, 3, 20, 60, 200, 1000, 5000, 2e4, 1e5]
        # same truncated support as the model, so this isolates the
        # normalization/moment machinery from the truncation policy
        z, _ = integrate.quad(raw, 0, t.r_hi,
                              points=[p for p in pts if p < t.r_hi], limit=500)
        m2, _ = integrate.quad(lambda r: r * r * raw(r) / z, 0, t.r_hi,
                               points=[p for p in pts if p < t.r_hi], limit=500)
        assert t.moment(2.0) == pytest.approx(m2, rel=1e-7)
        # and the truncation bias itself stays tiny even r^2-weighted
        z_full, _ = integrate.quad(raw, 0, 1e6, points=pts, limit=500)
        m2_full, _ = integrate.quad(lambda r: r * r * raw(r) / z_full, 0, 1e6,
                                    points=pts, limit=500)
        assert t.moment(2.0) == pytest.approx(m2_full, rel=1e-6)


def test_lognormal_density_continuous_at_splice_edge():
    for d in (1, 2, 5):
        t = build_example_target("lognormal", d)
        edge = math.exp(-(d - 1))
        below = t.radial_pdf(edge * (1 - 1e-9))
        above = t.radial_pdf(edge * (1 + 1e-9))
        assert above == pytest.approx(below, rel=1e-6)


def test_quantile_cdf_roundtrip():
    t = build_example_target("gaussian", 5)
    p = np.linspace(1e-6, 1 - 1e-6, 41)
    assert np.allclose(t.radial_cdf(t.quantile(p)), p, atol=2e-9)


def test_sample_radius_reproducible_and_calibrated():
    t = build_example_target("exponential", 3)
    a = t.sample_radius(50_000, np.random.default_rng(11))
    b = t.sample_radius(50_000, np.random.default_rng(11))
    assert np.array_equal(a, b)
    # Gamma(3,1): mean 3, variance 3.
    assert a.mean() == pytest.approx(3.0, abs=5 * math.sqrt(3 / 50_000))
    # empirical CDF at the median
    assert np.mean(a <= t.quantile(0.5)) == pytest.approx(0.5, abs=0.01)


def test_mixture_weight_grammar():
    assert parse_mixture_weight("0.2", 10) == pytest.approx(0.2)
    assert parse_mixture_weight("1/d", 10) == pytest.approx(0.1)
    assert parse_mixture_weight("1/d^2", 10) == pytest.approx(0.01)
    assert parse_mixture_weight("1/d^3", 10) == pytest.approx(0.001)
    with pytest.raises(ValueError):
        parse_mixture_weight("2.0", 10)
    with pytest.raises(ValueError):
        parse_mixture_weight("d/3", 10)


def test_mixture_requires_d_at_least_two():
    with pytest.raises(ValueError):
        parse_target_spec("mixture:p=1/d^2", 1)
    t = parse_target_spec("mixture:p=1/d^2", 2)
    assert isinstance(t, RadialModel)


def test_mixture_density_matches_direct_formula():
    d, p = 4, 0.25
    t = parse_target_spec("mixture:p=0.25", d)
    r = np.array([0.5, 1.0, 2.0, 4.0, 9.0])
    direct = (1 - p) * np.exp(-0.5 * r * r) + p * d ** (-d) * np.exp(
        -0.5 * r * r / d ** 2)
    ratio = np.exp(t.log_pi(r)) / direct
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_parse_target_spec_grammar_and_errors():
    assert parse_target_spec("gaussian", 3).family == "gaussian"
    # laplace is an alias for the exponential family (identical at d = 1)
    assert parse_target_spec("laplace", 1).family == "exponential"
    with pytest.raises(ValueError):
        parse_target_spec("gauss", 3)
    with pytest.raises(ValueError):
        parse_target_spec("mixture:p=oops", 5)
    with pytest.raises(ValueError):
        parse_target_spec("gaussian", 0)


def test_custom_target_from_file(tmp_path):
    # Half-normal law supplied as a two-column 'r log_pi' table.
    r = np.linspace(1e-3, 8, 400)
    path = tmp_path / "halfnormal.tsv"
    path.write_text("\n".join(f"{a} {-0.5 * a * a}" for a in r))
    t = parse_target_spec(f"custom:{path}", 1)
    assert t.moment(2.0) == pytest.approx(1.0, rel=1e-3)


def test_shell_constants_and_limit_tags():
    cases = {
        "gaussian": ("point:1", True),
        "exponential": ("point:1", True),
        "radial-gaussian": ("halfnormal", True),
        "radial-exponential": ("exp", True),
        "lognormal": ("lognormal", True),
    }
    d = 9
    for family, (tag, has_k) in cases.items():
        t = build_example_target(family, d)
        assert t.limit_mixing == tag
        assert (t.k is not None) == has_k
    assert build_example_target("gaussian", d).k == pytest.approx(math.sqrt(d))
    assert build_example_target("exponential", d).k == pytest.approx(d)
    assert build_example_target("radial-gaussian", d).k == pytest.approx(1.0)


def test_radial_from_density_scan_finds_support():
    t = radial_from_density(2, lambda r: -0.5 * (np.log(r) - 3.0) ** 2 - np.log(r))
    # log R ~ N(3, 1) up to the r^{d-1} tilt; support needs to reach e^{3+several}
    assert t.r_hi > math.exp(6.0)
    assert t.moment(0.0) == pytest.approx(1.0, rel=1e-9)


def test_breakpoints_sorted_within_support():
    for family in FAMILIES:
        t = build_example_target(family, 3 if family != "laplace" else 1)
        bp = t.breakpoints()
        assert np.all(np.diff(bp) > 0)
        assert bp[0] >= t.r_lo and bp[-1] <= t.r_hi

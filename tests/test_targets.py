"""Tests for radial target construction, sampling, and the spec-string grammar."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from rwmscaling import targets
from rwmscaling.quadrature import adaptive_quad
from rwmscaling.targets import (
    RadialModel,
    build_example_target,
    parse_mixture_weight,
    parse_target_spec,
    radial_from_density,
    sample_radius,
)

FAMILIES = ["gaussian", "exponential", "laplace", "radial-gaussian",
            "radial-exponential", "lognormal"]


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


def test_quantile_inverts_the_integrated_pdf():
    # The mass below quantile(p), integrated afresh from the density (to
    # 1e-16 of the chi law's CDF here).  Between its knots the monotone cubic
    # quantile is off by up to 5.7e-9 in level (at p = 0.025).
    t = build_example_target("gaussian", 5)
    for p in np.linspace(1e-6, 1 - 1e-6, 41):
        mass = adaptive_quad(t.radial_pdf, t.r_lo, t.quantile(p), epsabs=1e-13).value
        assert abs(mass - p) <= 1e-8


def test_sample_radius_reproducible_and_calibrated():
    t = build_example_target("exponential", 3)
    a = sample_radius(t, 50_000, np.random.default_rng(11))
    b = sample_radius(t, 50_000, np.random.default_rng(11))
    assert np.array_equal(a, b)
    # Gamma(3,1): mean 3, variance 3.
    assert a.mean() == pytest.approx(3.0, abs=5 * math.sqrt(3 / 50_000))
    # empirical CDF at the median
    assert np.mean(a <= t.quantile(0.5)) == pytest.approx(0.5, abs=0.01)


def test_sample_radius_draws_nothing_for_a_zero_count():
    t = build_example_target("gaussian", 2)
    assert sample_radius(t, 0, np.random.default_rng(0)).shape == (0,)
    assert sample_radius(t, 5.0, np.random.default_rng(0)).shape == (5,)


@pytest.mark.parametrize("n", [0, 1, 65_537])
@pytest.mark.parametrize("spec", ["gaussian", "exponential", "mixture:p=1/d^2",
                                  "custom"])
def test_sample_radius_is_the_quantile_of_its_uniforms(spec, n, tmp_path):
    # Bit for bit, in draw order: however the quantile is evaluated, a draw
    # is the quantile of the uniform the generator gave in its place.
    t = _pinned_model(f"{spec}@10", tmp_path)
    r = sample_radius(t, n, np.random.default_rng(7))
    want = t._quantile_fn(np.random.default_rng(7).random(n))
    assert r.shape == (n,)
    assert r.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("family", ["mixture", "custom"])
def test_families_with_a_parameter_are_built_by_parse_target_spec(family):
    with pytest.raises(ValueError, match=rf"parse_target_spec\('{family}:"):
        build_example_target(family, 10)


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


def test_model_fits_once_on_first_read(monkeypatch):
    calls = []
    real = targets.stacked_quad

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(targets, "stacked_quad", counted)
    t = build_example_target("exponential", 4)
    # what is known up front reads without a fit
    assert (t.d, t.family, t.k, t.limit_mixing) == (4, "exponential", 4.0, "point:1")
    assert "exponential" in repr(t)
    assert not calls
    t.quantile(0.5)
    assert len(calls) == 1
    t.r_lo, t.r_hi, t.log_norm, t.breakpoints()
    t.radial_pdf(2.0), t.moment(1.0), sample_radius(t, 10, np.random.default_rng(0))
    assert len(calls) == 1
    with pytest.raises(AttributeError, match="no attribute 'r_mid'"):
        t.r_mid


def test_scan_errors_are_raised_on_first_read():
    # A density still rising at the top of its scan window builds, and
    # says so when first read.
    t = radial_from_density(3, lambda r: 2.0 * np.log(r), scan=(0.1, 5.0))
    assert t.k is None
    for _ in range(2):
        with pytest.raises(ValueError, match="extend beyond the scan window"):
            t.r_hi


_PINS = json.loads((Path(__file__).parent / "radial_fit_pins.json").read_text())
_PIN_LEVELS = [1e-6, 0.1, 0.5, 0.9, 1 - 1e-6]


def _pinned_model(case, tmp_path):
    spec, d = case.rsplit("@", 1)
    if spec == "custom":
        r = np.geomspace(0.05, 12.0, 80)
        path = tmp_path / "table.txt"
        np.savetxt(path, np.column_stack([r, -0.5 * r ** 2 + 0.3 * np.sin(r)]), fmt="%.17g")
        spec = f"custom:{path}"
    return parse_target_spec(spec, int(d))


@pytest.mark.parametrize("first_read", ["quantile", "r_lo"])
@pytest.mark.parametrize("case", sorted(_PINS))
def test_fitted_values_are_pinned_bit_for_bit(case, first_read, tmp_path):
    # float.hex values of the fit as the model built it eagerly (recorded at
    # commit a9b8323); whichever field is read first, the fit is the same.
    # The breakpoints lists were re-recorded when the seed rule went from 17
    # quantile levels to 7; each new list is a subset of its old one.
    pins = _PINS[case]
    t = _pinned_model(case, tmp_path)
    q = t.quantile(_PIN_LEVELS) if first_read == "quantile" else None
    assert t.r_lo.hex() == pins["r_lo"]
    assert t.r_hi.hex() == pins["r_hi"]
    assert t.log_norm.hex() == pins["log_norm"]
    assert [float(v).hex() for v in t.breakpoints()] == pins["breakpoints"]
    if q is None:
        q = t.quantile(_PIN_LEVELS)
    assert [float(v).hex() for v in q] == pins["quantile"]

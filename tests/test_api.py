"""The public API surface: every exported name resolves, every name the
package re-exports from a submodule is in that submodule's ``__all__``, and
every entry point applies the same rules to its proposal scale, to the
dimensions of its target and proposal, and to its other scales, mu values
and dimension lists."""

import importlib
import inspect
import io
import math

import pytest

import rwmscaling

SUBMODULES = ["asymptotics", "cli", "elliptical", "engine", "optimizer",
              "quadrature", "simulate", "special", "targets"]


@pytest.mark.parametrize("name", ["rwmscaling"] + [f"rwmscaling.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_reexports_are_in_their_module_all():
    missing = []
    for name in rwmscaling.__all__:
        obj = getattr(rwmscaling, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = importlib.import_module(obj.__module__)
            if name not in home.__all__:
                missing.append(f"{obj.__module__}.{name}")
    assert missing == []


_T2 = rwmscaling.build_example_target("gaussian", 2)
_T3 = rwmscaling.build_example_target("gaussian", 3)
_SPEC = rwmscaling.EllipticalSpec(d=2, eigenvalues=(1.0, 2.0),
                                  spherical_core=_T2, proposal_core=_T2)

SCALE_ENTRY_POINTS = {
    "run_rwm": lambda lam: rwmscaling.run_rwm(_T2, _T2, lam, n_iters=1_000),
    "mc_expectation": lambda lam: rwmscaling.mc_expectation(_T2, _T2, lam),
    "elliptical_ear_esjd": lambda lam: rwmscaling.elliptical_ear_esjd(_SPEC, lam),
    "ear_esjd": lambda lam: rwmscaling.ear_esjd(_T2, _T2, lam),
    "closed_form_gaussian_1d": rwmscaling.closed_form_gaussian_1d,
    "closed_form_laplace_1d": rwmscaling.closed_form_laplace_1d,
}


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", list(SCALE_ENTRY_POINTS))
def test_scale_must_be_finite_and_positive(entry, lam):
    with pytest.raises(ValueError, match="finite|positive"):
        SCALE_ENTRY_POINTS[entry](lam)


DIMENSION_ENTRY_POINTS = {
    "run_rwm": lambda: rwmscaling.run_rwm(_T2, _T3, 1.0, n_iters=1_000),
    "mc_expectation": lambda: rwmscaling.mc_expectation(_T2, _T3, 1.0),
    "ear_esjd": lambda: rwmscaling.ear_esjd(_T2, _T3, 1.0),
    "curve": lambda: rwmscaling.curve(_T2, _T3, [0.5, 1.0]),
    "table_point": lambda: rwmscaling.table_point(
        rwmscaling.get_marginal_table(_T2), _T3, 1.0),
}


@pytest.mark.parametrize("entry", list(DIMENSION_ENTRY_POINTS))
def test_target_and_proposal_dimensions_must_agree(entry):
    with pytest.raises(ValueError, match="target and proposal dimensions differ"):
        DIMENSION_ENTRY_POINTS[entry]()


_POINT = rwmscaling.mixing_point(1.0)

# Each site takes one bad value v.  Scales, radii, atoms, weights, exponents
# and eigenvalues must be finite and positive.
POSITIVE_SITES = {
    "curve": lambda v: rwmscaling.curve(_T2, _T2, [0.5, v]),
    "table_point": lambda v: rwmscaling.table_point(
        rwmscaling.get_marginal_table(_T2), _T2, v),
    "optimize lam_lo": lambda v: rwmscaling.optimize(_T2, _T2, lam_lo=v, lam_hi=10.0),
    "optimize lam_hi": lambda v: rwmscaling.optimize(_T2, _T2, lam_lo=1e-3, lam_hi=v),
    "aos mu_hat": lambda v: rwmscaling.aos(v, 1.0, 1.0, 4),
    "aos k_x": lambda v: rwmscaling.aos(1.19, lambda d: v, 1.0, 4),
    "aos k_y": lambda v: rwmscaling.aos(1.19, 1.0, v, 4),
    "transformed_scale lambda": lambda v: rwmscaling.transformed_scale(v, 4, 1.0, 1.0),
    "transformed_scale k_x": lambda v: rwmscaling.transformed_scale(1.0, 4, v, 1.0),
    "scaled": lambda v: _POINT.scaled(v),
    "mixing_point": rwmscaling.mixing_point,
    "mixing_atoms value": lambda v: rwmscaling.mixing_atoms([1.0, v], [1.0, 1.0]),
    "mixing_atoms weight": lambda v: rwmscaling.mixing_atoms([1.0], [v]),
    "mixing_samples": lambda v: rwmscaling.mixing_samples([1.0] * 199 + [v]),
    "pareto exponent": lambda v: rwmscaling.mixing_from_spec(f"pareto:{v}"),
    "atoms spec": lambda v: rwmscaling.mixing_from_spec(f"atoms:1@1,{v}@1"),
    "eigenvalues": lambda v: rwmscaling.parse_eigenvalue_rule(f"const:{v}", 3),
    "custom table radius": lambda v: rwmscaling.CustomRadialTable(
        io.StringIO(f"{v} 0\n1 0\n2 0\n3 0\n")),
}
# mu must be >= 0: 0 and inf are limits in their own right, NaN is not.
MU_SITES = {
    "theta_prime_neg": lambda v: rwmscaling.theta_prime_neg(_POINT, v),
    "limit_ear": lambda v: rwmscaling.limit_ear(_POINT, v),
    "limit_esjd": lambda v: rwmscaling.limit_esjd(_POINT, [1.0, v]),
    "limit_ear_general": lambda v: rwmscaling.limit_ear_general(_POINT, _POINT, v),
    "limit_esjd_general": lambda v: rwmscaling.limit_esjd_general(_POINT, _POINT, v),
}
# Every entry of a dimension list must be a positive integer.
DIMENSION_LIST_SITES = {
    "sweep_dimension": lambda v: rwmscaling.sweep_dimension(
        "gaussian", "gaussian", [v, 40]),
    "eccentricity_condition": lambda v: rwmscaling.eccentricity_condition(
        "iota", [v, 40, 160]),
    "lemma5_numeric_check": lambda v: rwmscaling.lemma5_numeric_check(
        "iota", [v, 40]),
    "parse_eigenvalue_rule d": lambda v: rwmscaling.parse_eigenvalue_rule("iota", v),
    "parse_dims": lambda v: rwmscaling.cli.parse_dims(f"{v},40"),
}
_BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_INPUTS = ([(site, v) for site in POSITIVE_SITES for v in _BAD]
              + [(site, v) for site in MU_SITES for v in (math.nan, -math.inf, -1.0)]
              + [(site, v) for site in DIMENSION_LIST_SITES for v in _BAD + [2.5]])
_SITES = {**POSITIVE_SITES, **MU_SITES, **DIMENSION_LIST_SITES}


@pytest.mark.parametrize("site, value", BAD_INPUTS,
                         ids=[f"{site}-{v}" for site, v in BAD_INPUTS])
def test_bad_input_raises_value_error(site, value):
    # A RuntimeWarning is an error under pyproject's filterwarnings, so the
    # value must be rejected before it reaches any arithmetic.
    with pytest.raises(ValueError):
        _SITES[site](value)

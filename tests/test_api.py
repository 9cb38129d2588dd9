"""The public API surface: every exported name resolves, every name the
package re-exports from a submodule is in that submodule's ``__all__``, and
every entry point applies the same rules to its proposal scale and to the
dimensions of its target and proposal."""

import importlib
import inspect
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

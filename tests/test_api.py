"""The public API surface: every exported name resolves, and every name the
package re-exports from a submodule is in that submodule's ``__all__``."""

import importlib
import inspect

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

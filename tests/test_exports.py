"""Every name that a betareif module lists in its `__all__` resolves."""

import importlib
import pkgutil

import pytest

import betareif

MODULES = sorted(m.name for m in pkgutil.iter_modules(betareif.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"betareif.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

"""The public surface: every name a module exports exists in it."""

import importlib
import pkgutil

import pytest

import migsched

MODULES = ["migsched"] + [f"migsched.{m.name}" for m in pkgutil.iter_modules(migsched.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [export for export in exported if not hasattr(module, export)] == []

"""The public surface: every name a module exports exists in it, and a
submodule exports only what it defines."""

import importlib
import inspect
import pkgutil

import pytest

import migsched

MODULES = ["migsched"] + [f"migsched.{m.name}" for m in pkgutil.iter_modules(migsched.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [export for export in exported if not hasattr(module, export)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_submodules_export_only_what_they_define(name):
    # A class or function re-exported from another submodule is a second
    # public path to one object; the package __init__ is the one place that
    # gathers them.
    module = importlib.import_module(name)
    exported = [getattr(module, export) for export in getattr(module, "__all__", [])]
    defined_elsewhere = [
        obj.__name__ for obj in exported
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name
    ]
    assert defined_elsewhere == []

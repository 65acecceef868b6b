"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import ccegeom


def test_every_module_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(ccegeom.__path__)]
    assert "integrals" in names and "models" in names
    for name in names:
        module = importlib.import_module(f"ccegeom.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"ccegeom.{name}.{export}"

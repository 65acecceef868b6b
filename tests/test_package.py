"""Package surface: every exported name resolves, and the CLI needs no scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys

import ccegeom


def test_every_module_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(ccegeom.__path__)]
    assert "integrals" in names and "models" in names
    for name in names:
        module = importlib.import_module(f"ccegeom.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"ccegeom.{name}.{export}"


def test_cli_import_loads_no_scipy():
    """numpy and sympy are the runtime dependencies: importing the CLI in
    a fresh interpreter must not load any scipy module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccegeom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, ccegeom.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out

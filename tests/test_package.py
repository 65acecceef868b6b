"""Package surface: every exported name resolves, and the CLI needs neither
scipy nor sympy, nor numpy.random, numpy.ma, csv, dataclasses, fractions
or decimal."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ccegeom
from ccegeom.integrals import RadialDomain
from ccegeom.topology import gate


def test_every_module_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(ccegeom.__path__)]
    assert "integrals" in names and "models" in names
    for name in names:
        module = importlib.import_module(f"ccegeom.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"ccegeom.{name}.{export}"


def _run_fresh(code):
    """Run code in a fresh interpreter that imports this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccegeom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def _loaded(package):
    return (f"import sys, ccegeom.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == '{package}'))")


def test_cli_import_loads_no_scipy():
    """numpy is the one runtime dependency: importing the CLI in a fresh
    interpreter must not load any scipy module."""
    out = _run_fresh(_loaded("scipy"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout


def test_runtime_needs_no_sympy(tmp_path):
    """sympy is a test dependency only: the CLI imports without loading it,
    and check and analyze run with it unimportable."""
    out = _run_fresh(_loaded("sympy"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout
    runs = (["check", "--model", "hyperbolic"],
            ["analyze", "--model", "ads_schwarzschild", "--m", "1.0",
             "--out", str(tmp_path / "ads")])
    for argv in runs:
        out = _run_fresh("import sys; sys.modules['sympy'] = None; "
                         "from ccegeom.cli import main; "
                         f"sys.exit(main({argv!r}))")
        assert out.returncode == 0, (argv, out.stdout, out.stderr)


def test_commands_load_no_rng_masked_arrays_csv_dataclasses_fractions_or_decimal(tmp_path):
    """check, an AdS analyze and an AdS curvature dump, run in one fresh
    interpreter, load none of numpy.random, numpy.ma, csv, dataclasses,
    fractions and decimal (a fresh one, since pytest and sympy load some
    of them here)."""
    runs = (["check"],
            ["analyze", "--model", "ads_schwarzschild", "--m", "1.0",
             "--out", str(tmp_path / "ads")],
            ["curvature", "--model", "ads_schwarzschild", "--m", "1.0",
             "--out", str(tmp_path / "curv")])
    out = _run_fresh("import sys; from ccegeom.cli import main; "
                     f"codes = [main(argv) for argv in {runs!r}]; "
                     "print(codes, sorted(m for m in ('numpy.random', "
                     "'numpy.ma', 'csv', 'dataclasses', 'fractions', 'decimal') "
                     "if m in sys.modules))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] []", out.stdout


@pytest.mark.parametrize("kind, field", [
    ("Check", "value"), ("Chart", "lo"), ("RadialDomain", "y_hi"),
    ("BoundaryGeometry", "volume"), ("RadialProfile", "r_interior")])
def test_immutable_records_refuse_field_assignment(kind, field,
                                                   hyperbolic_radial_profile):
    """A record built once is never changed: assigning to a field raises."""
    boundary = hyperbolic_radial_profile.boundary
    record = {"Check": gate("g", 1.0, 2.0), "Chart": boundary.field.chart,
              "RadialDomain": RadialDomain(0.01, 1.0, boundary),
              "BoundaryGeometry": boundary,
              "RadialProfile": hyperbolic_radial_profile}[kind]
    assert type(record).__name__ == kind
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))

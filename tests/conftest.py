"""Shared fixtures: models and the expensive solves, computed once."""

import numpy as np
import pytest
import sympy as sp

from ccegeom import cli, models
from ccegeom.autodiff import cos, exp, sin
from ccegeom.eigenfunction import compactification_checks, solve_eigenfunction
from ccegeom.integrals import integrate_curvature
from ccegeom.normal_form import ProfileBlock, RadialProfile, normal_form_from_profile
from ccegeom.tensor import Chart, MetricField, conformal_rescale
from ccegeom.volume import fit_renormalized_volume


def _warped_test_metric():
    """A dense analytic 4-metric with no special symmetry."""
    x1, x2, x3, x4 = coords = sp.symbols("x1 x2 x3 x4", real=True)
    g = sp.Matrix([
        [2 + sp.sin(x2) / 4, sp.Rational(1, 10) * x3, 0, 0],
        [sp.Rational(1, 10) * x3, 3 + x1**2 / 5, 0, sp.Rational(1, 20) * x1],
        [0, 0, 1 + sp.exp(x4 / 3) / 2, 0],
        [0, sp.Rational(1, 20) * x1, 0, 2 + sp.cos(x1 * x3) / 5],
    ])
    return coords, g


def _warped_components(x1, x2, x3, x4):
    """The same metric as jet expressions, differentiated by autodiff."""
    return [[2 + sin(x2) / 4, x3 / 10, 0.0, 0.0],
            [x3 / 10, 3 + x1**2 / 5, 0.0, x1 / 20],
            [0.0, 0.0, 1 + exp(x4 / 3) / 2, 0.0],
            [0.0, x1 / 20, 0.0, 2 + cos(x1 * x3) / 5]]


@pytest.fixture(scope="session")
def warped():
    """(coordinates, sympy component matrix, MetricField) of the warped
    test metric on the box (-1, 1)^4."""
    coords, g = _warped_test_metric()
    chart = Chart(("x1", "x2", "x3", "x4"), (-1.0,) * 4, (1.0,) * 4)
    return coords, g, MetricField.from_function(chart, _warped_components, name="warped-test")


@pytest.fixture(scope="session")
def hyperbolic():
    return models.build("hyperbolic")


@pytest.fixture(scope="session")
def ads():
    return models.build("ads_schwarzschild", m=1.0)


@pytest.fixture(scope="session")
def perturbed():
    return models.build("perturbed_hyperbolic")


@pytest.fixture(scope="session")
def conformal_fubini_study():
    """Fubini-Study (off-diagonal g_pq, reads r and t) rescaled by a factor
    in r, t and q: the composite reads every axis but p."""
    base = models.build("fubini_study").field
    return conformal_rescale(
        base, lambda r, t, q: 0.1 * sin(2 * r) * cos(t) + 0.05 * sin(q / 2) * sin(r) ** 2)


@pytest.fixture(scope="session")
def hyperbolic_radial_profile():
    """The hyperbolic metric as a cohomogeneity-one radial profile.

    In r = cosh t, dt^2 + sinh^2 t ghat has block factor
    (r - 1)(r + 1) = rho (rho + 2), rho = r - 1, and radial factor
    (rho (rho + 2))^{-1/2}, whose regular part is (rho + 2)^{-1/2}: a
    square-root interior at r = 1 and the boundary at r = inf, the shape
    of every fill. Its map is s = 2/(r + sqrt(r^2 - 1)), r(s) =
    (s^2 + 4)/(4s), and its warp (1 - s^2/4)^2.
    """
    return RadialProfile(
        name="hyperbolic-profile",
        boundary=models.round_sphere_boundary(),
        blocks=(ProfileBlock((0, 1, 2), lambda rho: rho * (rho + 2.0)),),
        radial_factor=lambda rho: (rho + 2.0) ** -0.5,
        r_interior=1.0,
        tip_multiplicity=3,
        einstein=True,
    )


@pytest.fixture(scope="session")
def hyperbolic_profile(hyperbolic_radial_profile):
    """The hyperbolic metric again, but built from a radial profile."""
    return normal_form_from_profile(hyperbolic_radial_profile)


@pytest.fixture(scope="session")
def hyp_solution(hyperbolic):
    return solve_eigenfunction(hyperbolic)


@pytest.fixture(scope="session")
def ads_solution(ads):
    return solve_eigenfunction(ads)


@pytest.fixture(scope="session")
def pert_solution(perturbed):
    return solve_eigenfunction(perturbed)


# the compactification checks' (section, gates) of each solution above
@pytest.fixture(scope="session")
def hyp_checks(hyp_solution):
    return compactification_checks(hyp_solution)


@pytest.fixture(scope="session")
def ads_checks(ads_solution):
    return compactification_checks(ads_solution)


@pytest.fixture(scope="session")
def pert_checks(pert_solution):
    return compactification_checks(pert_solution)


@pytest.fixture(scope="session")
def hyp_fit(hyperbolic):
    return fit_renormalized_volume(hyperbolic)


def _suite(name):
    mdl = models.build(name)
    return mdl, integrate_curvature(mdl.field, mdl.domain,
                                    orientation=mdl.orientation)


@pytest.fixture(scope="session")
def sphere_suite():
    return _suite("round_sphere")


@pytest.fixture(scope="session")
def torus_suite():
    return _suite("flat_torus")


@pytest.fixture(scope="session")
def product_suite():
    return _suite("product_spheres")


@pytest.fixture(scope="session")
def cp2_suite():
    return _suite("fubini_study")


@pytest.fixture
def flipped_riemann(monkeypatch):
    """check's curvature packets with R_0101 sign-flipped: a corrupted
    component that the bianchi-symmetries gate must catch."""
    real = cli.curvature

    def flipped(*args, **kwargs):
        pack = real(*args, **kwargs)
        riem = np.array(pack.riemann, copy=True)
        riem[..., 0, 1, 0, 1] *= -1.0
        pack.riemann = riem
        return pack

    monkeypatch.setattr(cli, "curvature", flipped)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)

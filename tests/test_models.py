"""Model catalogue: metadata, reference values, and parameter validation."""

import numpy as np
import pytest
import sympy as sp

from ccegeom import models
from ccegeom.eigenfunction import solve_eigenfunction
from ccegeom.errors import ModelParameterError, NotAvailable
from ccegeom.normal_form import FGMetric
from ccegeom.tensor import curvature, einstein_residual
from ccegeom.topology import build_topology_report


def _radial_points(fg, svals):
    n = len(svals)
    pad = [np.full(n, 0.9), np.full(n, 1.1), np.full(n, 1.3)]
    return np.column_stack([np.asarray(svals)] + pad)


def test_registry_lists_both_families():
    names = models.model_names()
    assert set(names) == {"closed", "conformally_compact"}
    assert "round_sphere" in names["closed"]
    assert "ads_schwarzschild" in names["conformally_compact"]
    for group in names.values():
        for nm in group:
            assert models.build(nm) is not None


def test_build_rejects_unknown_name():
    with pytest.raises(ModelParameterError, match="unknown model"):
        models.build("klein_bottle")


def test_closed_model_metadata():
    table = {
        # name: (euler, signature, volume, orientation)
        "round_sphere": (2, 0, 8 * np.pi ** 2 / 3, 1),
        "flat_torus": (0, 0, (2 * np.pi) ** 4, 1),
        "product_spheres": (4, 0, 16 * np.pi ** 2, 1),
        "fubini_study": (3, 1, np.pi ** 2 / 2, -1),
    }
    for nm, (chi, tau, vol, orient) in table.items():
        mdl = models.build(nm)
        assert mdl.euler == chi
        assert mdl.signature == tau
        assert mdl.volume == pytest.approx(vol, rel=1e-12)
        assert mdl.orientation == orient


def test_einstein_models_have_tiny_residual(hyperbolic, ads):
    pts = _radial_points(hyperbolic, np.linspace(0.1, 1.6, 6))
    assert np.max(einstein_residual(hyperbolic.four_metric(), pts)) < 1e-9
    pts = _radial_points(ads, np.linspace(0.1, 0.9 * ads.s_max, 6))
    assert np.max(einstein_residual(ads.four_metric(), pts)) < 1e-9


def test_perturbed_model_is_not_einstein(perturbed):
    pts = _radial_points(perturbed, np.linspace(0.2, 1.4, 6))
    res = einstein_residual(perturbed.four_metric(), pts)
    assert np.max(res) > 1e-1
    assert not perturbed.einstein
    assert perturbed.parameters == {"amplitude": 0.05}


def test_horizon_radius_and_period():
    # r_+^3 + r_+ = 2m, so m = 1 gives r_+ = 1 exactly
    assert models.horizon_radius(1.0) == pytest.approx(1.0, abs=1e-14)
    for m in (0.3, 1.0, 2.5, 7.0):
        rp = models.horizon_radius(m)
        assert rp ** 3 + rp == pytest.approx(2 * m, rel=1e-13)
    fg = models.ads_schwarzschild(m=1.0)
    ref = models.exact_reference("ads_schwarzschild", m=1.0)
    assert ref["period"] == pytest.approx(np.pi, abs=1e-14)
    assert ref["horizon_radius"] == pytest.approx(1.0, abs=1e-14)
    assert fg.s_max == pytest.approx(1.348093076044499, abs=1e-12)


@pytest.mark.parametrize("name", models.model_names()["conformally_compact"])
def test_reference_resolves_from_the_built_parameters(name):
    """A fill's parameters are what its builder takes, so they look up
    its closed forms; derived data such as the AdS horizon stays there."""
    refs = models.exact_reference(name, **models.build(name).parameters)
    assert "euler" in refs


def test_exact_reference_hyperbolic_entries():
    ref = models.exact_reference("hyperbolic")
    assert ref["renormalized_volume"] == pytest.approx(4 * np.pi ** 2 / 3, rel=1e-14)
    assert ref["c0"] == pytest.approx(2 * np.pi ** 2 / 3, rel=1e-12)
    assert ref["c2"] == pytest.approx(-1.5 * np.pi ** 2, rel=1e-12)
    assert ref["w2"] == 0.25
    assert ref["compactified_scalar"] == 12.0
    assert ref["euler"] == 1
    s = np.linspace(0.05, 1.9, 11)
    assert np.allclose(ref["eigenfunction"](s), 1.0 / s + s / 4.0)
    assert np.allclose(ref["warp"](s), (1.0 - s ** 2 / 4.0) ** 2)


def test_exact_reference_scaled_boundary():
    lam = 2.0
    ref = models.exact_reference("hyperbolic", boundary_radius=lam)
    # the renormalized volume is a conformal invariant of the filling
    assert ref["renormalized_volume"] == pytest.approx(4 * np.pi ** 2 / 3, rel=1e-14)
    assert ref["boundary_volume"] == pytest.approx(2 * np.pi ** 2 * lam ** 3, rel=1e-13)
    assert ref["c0"] == pytest.approx(2 * np.pi ** 2 * lam ** 3 / 3, rel=1e-12)


def test_exact_reference_compactified_scalar_off_unit_radius():
    """48 w2 = 12 / lambda^2, as the eigenfunction solve gives it."""
    lam = 1.3
    ref = models.exact_reference("hyperbolic", boundary_radius=lam)
    sol = solve_eigenfunction(models.build("hyperbolic", boundary_radius=lam))
    s = np.geomspace(sol.s_lo, sol.s_hi, 50)
    assert ref["compactified_scalar"] == pytest.approx(12.0 / lam ** 2, rel=1e-15)
    assert np.max(np.abs(sol.compactified_scalar(s) - ref["compactified_scalar"])) < 1e-5


def test_exact_reference_ads_entries():
    ref = models.exact_reference("ads_schwarzschild", m=1.0)
    assert ref["w2"] == 1 / 12
    beta, rp = np.pi, 1.0
    assert ref["weyl_energy"] == pytest.approx(64 * np.pi * beta * 1.0 / rp ** 3, rel=1e-13)
    assert ref["weyl_energy"] == pytest.approx(64 * np.pi ** 2, rel=1e-13)
    assert ref["euler"] == 2
    assert ref["boundary_volume"] == pytest.approx(4 * np.pi * beta, rel=1e-13)


def test_exact_reference_single_quantity_and_gaps():
    v = models.exact_reference("hyperbolic", "renormalized_volume")
    assert v == pytest.approx(4 * np.pi ** 2 / 3, rel=1e-14)
    # the definitional AdS volume agrees with Anderson's identity
    # 8 pi^2 chi = W/4 + 6V at chi = 2, and vanishes at m = 1
    for m in (0.02, 0.5, 1.0, 2.0, 3.0):
        ref = models.exact_reference("ads_schwarzschild", m=m)
        identity = (16 * np.pi ** 2 - 0.25 * ref["weyl_energy"]) / 6
        assert ref["renormalized_volume"] == pytest.approx(identity, rel=1e-12)
    assert models.exact_reference("ads_schwarzschild", "renormalized_volume", m=1.0) == 0.0
    with pytest.raises(NotAvailable):
        models.exact_reference("klein_bottle")
    with pytest.raises(NotAvailable):
        models.exact_reference("hyperbolic", "magic_number")


def test_parameter_validation():
    with pytest.raises(ModelParameterError, match="positive"):
        models.round_sphere4(radius=-1.0)
    with pytest.raises(ModelParameterError, match="positive"):
        models.hyperbolic(boundary_radius=0.0)
    with pytest.raises(ModelParameterError, match="positive"):
        models.ads_schwarzschild(m=-2.0)
    with pytest.raises(ModelParameterError, match="amplitude"):
        models.perturbed_hyperbolic(amplitude=1.5)
    # exact_reference refuses what build refuses, with the same exceptions
    for bad in (-2.0, 0.0):
        with pytest.raises(ModelParameterError, match="positive"):
            models.exact_reference("hyperbolic", boundary_radius=bad)
    with pytest.raises(ModelParameterError, match="positive"):
        models.exact_reference("product_spheres", "volume", a=1.0, b=-1.0)
    with pytest.raises(TypeError, match="radius"):
        models.exact_reference("hyperbolic", radius=2.0)
    for bad in (1.5, float("nan")):
        with pytest.raises(ModelParameterError, match="amplitude"):
            models.exact_reference("perturbed_hyperbolic", amplitude=bad)
    # a flat 4-torus takes four lengths, its boundary 3-torus three
    for lengths in ([1, 2, 3, 4, 5], [1, 2]):
        with pytest.raises(ModelParameterError, match="lengths"):
            models.exact_reference("flat_torus", lengths=lengths)
    for lengths in ([1, 2, 3, 4], [1, 2]):
        with pytest.raises(ModelParameterError, match="lengths"):
            models.flat_torus_boundary(lengths)
    with pytest.raises(TypeError, match="radius"):
        models.build("hyperbolic", radius=2.0)


def test_boundary_geometry_catalogue():
    bdry = models.round_sphere_boundary(radius=1.0)
    assert bdry.dim == 3
    circ = models.circle_sphere_boundary(length=2 * np.pi, radius=1.0)
    assert circ.dim == 3
    tor = models.flat_torus_boundary()
    assert tor.dim == 3
    berger = models.berger_sphere_boundary(lam=0.8)
    assert berger.dim == 3


def test_fg_metric_metadata(hyperbolic, ads, perturbed):
    assert hyperbolic.einstein and ads.einstein
    assert hyperbolic.n == 3 and ads.n == 3
    assert hyperbolic.s_max == pytest.approx(2.0)
    assert hyperbolic.yamabe_positive
    # scalar curvature of the chosen boundary representatives
    assert hyperbolic.boundary.scalar_curvature == pytest.approx(6.0)
    assert ads.boundary.scalar_curvature == pytest.approx(2.0)
    assert perturbed.boundary.scalar_curvature == pytest.approx(6.0)
    assert hyperbolic.boundary.volume == pytest.approx(2 * np.pi ** 2, rel=1e-13)


_BOUNDARIES = {
    "S3": lambda: models.round_sphere_boundary(1.0),
    "S3(1.3)": lambda: models.round_sphere_boundary(1.3),
    "S1xS2": lambda: models.circle_sphere_boundary(2.5),
    "T3": models.flat_torus_boundary,
    "berger-S3": lambda: models.berger_sphere_boundary(0.8),
}


@pytest.mark.parametrize("name", sorted(_BOUNDARIES))
def test_boundary_scalar_curvature_is_the_stored_constant(name):
    # the Yamabe sign is read off the stored R^, so it must be the
    # curvature of the boundary metric everywhere
    bdy = _BOUNDARIES[name]()
    pack = curvature(bdy.field, bdy.field.chart.sample(32, seed=5))
    assert np.max(np.abs(pack.scalar - float(bdy.scalar_curvature))) <= 1e-12


def test_yamabe_sign_follows_the_boundary_curvature(hyperbolic, ads):
    assert hyperbolic.yamabe_positive is True and ads.yamabe_positive is True
    flat = FGMetric(models.flat_torus_boundary(), 2.0, [(0, 1, 2)],
                    lambda s: [1.0 + 0.0 * s], einstein=True)
    assert flat.yamabe_positive is False
    with pytest.raises(NotAvailable, match="Yamabe"):
        build_topology_report(1, 0.0, flat.yamabe_positive)


def _catalogue_oracles():
    """The catalogue's metric fields next to their sympy component matrices."""
    sin, cos = sp.sin, sp.cos
    t1, t2, t3, t4 = sp.symbols("t1 t2 t3 t4")
    ph, th, ps, t, p, u, v, r, q = sp.symbols("ph th ps t p u v r q")
    x4 = sp.symbols("x1 x2 x3 x4")
    lam2, a2, b2, lam, rho = 1.3**2, 1.2**2, 0.7**2, 0.8, 1.1
    s2, c2 = sin(r) ** 2, cos(r) ** 2
    hopf = sp.Matrix([0, cos(th), 1])
    berger = sp.diag(sp.Rational(1, 4), sin(th) ** 2 / 4, 0) + lam**2 * hopf * hopf.T / 4
    cp2 = sp.zeros(4, 4)
    cp2[0, 0], cp2[1, 1] = 1, s2 / 4
    cp2[2, 2] = s2 * sin(t) ** 2 / 4 + s2 * c2 * cos(t) ** 2 / 4
    cp2[3, 3] = s2 * c2 / 4
    cp2[2, 3] = cp2[3, 2] = s2 * c2 * cos(t) / 4
    return {
        "S3": (models.round_sphere_boundary(1.3).field, (t1, t2, t3),
               sp.diag(lam2, lam2 * sin(t1) ** 2, lam2 * sin(t1) ** 2 * sin(t2) ** 2)),
        "S1xS2": (models.circle_sphere_boundary(2.5, 1.2).field, (ph, th, ps),
                  sp.diag(1, a2, a2 * sin(th) ** 2)),
        "T3": (models.flat_torus_boundary().field, x4[:3], sp.eye(3)),
        "berger-S3": (models.berger_sphere_boundary(lam).field, (th, ph, ps), berger),
        "S4": (models.round_sphere4(rho).field, (t1, t2, t3, t4),
               rho**2 * sp.diag(1, sin(t1) ** 2, sin(t1) ** 2 * sin(t2) ** 2,
                                sin(t1) ** 2 * sin(t2) ** 2 * sin(t3) ** 2)),
        "T4": (models.flat_torus4().field, x4, sp.eye(4)),
        "S2xS2": (models.product_spheres(1.2, 0.7).field, (t, p, u, v),
                  sp.diag(a2, a2 * sin(t) ** 2, b2, b2 * sin(u) ** 2)),
        "CP2": (models.fubini_study().field, (r, t, p, q), cp2),
    }


@pytest.mark.parametrize("name", ["S3", "S1xS2", "T3", "berger-S3", "S4", "T4",
                                  "S2xS2", "CP2"])
def test_catalogue_jets_match_sympy_oracles(name):
    field, coords, gmat = _catalogue_oracles()[name]
    assert field.chart.names == tuple(str(x) for x in coords)
    assert field.cyclic_axes == tuple(i for i, x in enumerate(coords)
                                      if x not in gmat.free_symbols)
    d = len(coords)
    dg = [gmat.diff(x) for x in coords]
    d2g = [[m.diff(y) for y in coords] for m in dg]
    oracle = sp.lambdify(coords, [gmat.tolist(), [m.tolist() for m in dg],
                                  [[m.tolist() for m in row] for row in d2g]], "numpy")
    pts = field.chart.sample(64, seed=21)
    got = field.jet(pts)
    want = [np.empty(a.shape) for a in got]
    for n, pt in enumerate(pts):
        for arr, ref in zip(want, oracle(*pt)):
            arr[n] = np.asarray(ref, dtype=float)
    assert got[1].shape == (64, d, d, d)
    for a, b in zip(got, want):
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))

"""Integrated invariants: Gauss-Bonnet, signature, conformal invariance."""

import copy
import warnings

import numpy as np
import pytest

from ccegeom import cli, models, quadrature
from ccegeom import integrals as ig
from ccegeom import volume as vol
from ccegeom.autodiff import cos, diag, sin
from ccegeom.eigenfunction import (compactified_metric_field, compactified_radial_domain,
                                   solve_eigenfunction)
from ccegeom.errors import DomainError
from ccegeom.tensor import Chart, MetricField, conformal_rescale, curvature

_REVERSED = {"weyl_plus": "weyl_minus", "weyl_minus": "weyl_plus"}


def test_round_sphere_suite(sphere_suite):
    mdl, suite = sphere_suite
    assert abs(suite.sigma2_integral - 16 * np.pi ** 2) < 1e-6
    assert abs(suite.euler_gb - 2.0) < 1e-6
    assert abs(suite.signature) < 1e-8
    assert abs(suite.weyl_energy) < 1e-8
    assert suite.volume == pytest.approx(8 * np.pi ** 2 / 3, abs=1e-6)


def test_flat_torus_suite(torus_suite):
    _, suite = torus_suite
    assert abs(suite.euler_gb) < 1e-10
    assert abs(suite.signature) < 1e-10
    assert abs(suite.weyl_energy) < 1e-10
    assert abs(suite.sigma2_integral) < 1e-10
    assert suite.volume == pytest.approx((2 * np.pi) ** 4, rel=1e-10)


def test_product_spheres_suite(product_suite):
    mdl, suite = product_suite
    v = 16 * np.pi ** 2
    assert suite.volume == pytest.approx(v, rel=1e-9)
    assert suite.weyl_energy == pytest.approx(16 * v / 3, rel=1e-9)
    assert suite.weyl_plus == pytest.approx(8 * v / 3, rel=1e-9)
    assert suite.weyl_minus == pytest.approx(8 * v / 3, rel=1e-9)
    assert suite.sigma2_integral == pytest.approx(2 * v / 3, rel=1e-9)
    assert abs(suite.euler_gb - 4.0) < 1e-6
    assert abs(suite.signature) < 1e-8


def test_fubini_study_suite(cp2_suite):
    mdl, suite = cp2_suite
    assert abs(suite.euler_gb - 3.0) < 1e-6
    assert abs(suite.signature - 1.0) < 1e-6
    # self-dual side only
    assert suite.weyl_plus == pytest.approx(96 * np.pi ** 2 / 2, rel=1e-9)
    assert abs(suite.weyl_minus) < 1e-8
    assert suite.volume == pytest.approx(np.pi ** 2 / 2, rel=1e-9)


def test_combined_formulas_vanish(sphere_suite, product_suite, cp2_suite, torus_suite):
    """chi and tau within the closed gates' 5e-6, which holds the
    orientation-refined formulas 4 pi^2 (2 chi +- 3 tau) =
    1/2 int |W+-|^2 + int sigma2 within 4 pi^2 * 5 * 5e-6 < 1e-3."""
    for (mdl, suite) in (sphere_suite, product_suite, cp2_suite, torus_suite):
        assert abs(suite.euler_gb - mdl.euler) < 5e-6
        assert abs(suite.signature - mdl.signature) < 5e-6
        for sign, weyl in ((1, suite.weyl_plus), (-1, suite.weyl_minus)):
            combined = 4 * np.pi ** 2 * (2 * mdl.euler + 3 * sign * mdl.signature)
            assert abs(combined - (0.5 * weyl + suite.sigma2_integral)) < 1e-3


def test_orientation_reversal_swaps_split(cp2_suite):
    mdl, suite = cp2_suite
    rev = ig.integrate_curvature(mdl.field, mdl.domain,
                                 orientation=-mdl.orientation)
    assert rev.signature == pytest.approx(-suite.signature, abs=1e-8)
    assert rev.weyl_plus == pytest.approx(suite.weyl_minus, abs=1e-8)
    assert rev.weyl_minus == pytest.approx(suite.weyl_plus, abs=1e-8)
    assert rev.euler_gb == pytest.approx(suite.euler_gb, abs=1e-9)


def test_weyl_energy_is_conformally_invariant(product_suite, rng):
    """|W|^2 dV is a pointwise conformal invariant in dimension 4, so the
    integral must not move under metric rescaling by random factors. The
    factors are smooth on both spheres, so each rescaled metric is a
    metric on S2 x S2 and keeps chi = 4 and tau = 0."""
    mdl, suite = product_suite
    for trial in range(2):
        a, b, c = (round(float(x), 3) for x in 0.3 * rng.standard_normal(3))
        k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rescaled = conformal_rescale(mdl.field, cli._conformal_factor(a, b, c, k1, k2))
        out = ig.integrate_curvature(rescaled, mdl.domain,
                                     orientation=mdl.orientation)
        assert abs(out.weyl_energy - suite.weyl_energy) \
            < 1e-6 * max(1.0, suite.weyl_energy)
        assert abs(out.weyl_plus - suite.weyl_plus) \
            < 1e-6 * max(1.0, suite.weyl_plus)
        assert abs(out.euler_gb - 4.0) < 1e-4
        assert abs(out.signature) < 1e-4


def test_sigma2_bridge_on_compactified_collar(hyp_solution, hyp_fit):
    """int sigma2 over the compactified fill is 6 V."""
    mbar = compactified_metric_field(hyp_solution)
    dom = compactified_radial_domain(hyp_solution)
    suite = ig.integrate_curvature(mbar, dom)
    res = ig.sigma2_volume_bridge(suite.sigma2_integral, hyp_fit.V)
    assert abs(res) < 1e-4
    assert suite.sigma2_integral == pytest.approx(8 * np.pi ** 2, abs=1e-4)
    # the same fill reproduces chi of the ball with geodesic boundary
    assert suite.euler_gb == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("name, params", [
    ("ads_schwarzschild", {"m": 0.5}), ("ads_schwarzschild", {"m": 1.0}),
    ("ads_schwarzschild", {"m": 2.0}), ("ads_schwarzschild", {"m": 3.0}),
    ("hyperbolic", {"boundary_radius": 1.0})])
def test_whole_compactified_fill_closes_the_identities(name, params):
    """Integrated from the boundary to the tip, the compactified fill gives
    chi by Gauss-Bonnet, int sigma2 = 6 V against V from its definition
    (the reference's; AdS: V = (4 pi beta / 3)(r+ - m), no use of
    Anderson's identity) and the closed-form Weyl energy
    64 pi beta m^2 / r+^3. Measured: 1e-11, 1.1e-11 and 2.2e-12, over m
    in {0.02, 0.5, 1, 2, 3, 10} and the hyperbolic fill at radius 1 and 4."""
    ref = models.exact_reference(name, **params)
    volume = ref["renormalized_volume"]
    sol = solve_eigenfunction(models.build(name, **params))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        suite = ig.integrate_curvature(compactified_metric_field(sol),
                                       compactified_radial_domain(sol))
    chi = ref["euler"]
    assert abs(suite.euler_gb - chi) <= 1e-8
    assert abs(suite.sigma2_integral - 6 * volume) <= 1e-6 * 8 * np.pi ** 2 * chi
    assert abs(suite.weyl_energy - ref["weyl_energy"]) \
        <= 1e-8 * max(1.0, ref["weyl_energy"])


def test_radial_domain_volume_matches_sublevel(hyperbolic, hyp_solution, ads, ads_solution):
    """A radial node's weight is the kernel's sqrt(det g) times the fiber
    constant Vol(ghat)/sqrt(det ghat(p)): pointwise the sublevel volume
    density Vol(ghat) s^-4 D(s) ds/dy of the fill in its chart, and
    Vol(ghat) u^-4 s^-4 D(s) ds/dy on the compactified field. Integrated,
    the collar volume meets the sublevel volume above the chart point
    COLLAR_S_LO within its own error estimate."""
    for fg, sol in ((hyperbolic, hyp_solution), (ads, ads_solution)):
        collar = ig.fg_radial_domain(fg)
        assert (collar.y_lo, collar.y_hi) == (ig.COLLAR_S_LO, fg.y_max)
        fill = compactified_radial_domain(sol)
        assert (fill.y_lo, fill.y_hi) == (0.0, fg.y_max)
        (ref,), _ = vol.sublevel_volumes(fg, [ig.COLLAR_S_LO])
        suite = ig.integrate_curvature(fg.four_metric(), collar)
        assert abs(suite.volume - ref) <= suite.error_estimates["volume"]
        cases = ((fg.four_metric(), collar, lambda s: 1.0),
                 (compactified_metric_field(sol), fill, sol.u))
        for field, dom, u in cases:
            pts, fine, _ = ig._rule(field, dom)
            y, w, _ = quadrature.kronrod_rule(dom.y_lo, dom.y_hi, ig.RADIAL_PANELS)
            assert np.array_equal(pts[:, 0], y)
            got = curvature(field, pts).volume_density * fine / w
            want = fg.boundary.volume * fg.density(y) / u(fg.warp(y).s) ** 4
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13, dom.label


def test_gauss_bonnet_volume_residual_identity(hyp_fit):
    res = ig.gauss_bonnet_volume_residual(1.0, 0.0, hyp_fit.V)
    assert abs(res) < 1e-5  # 8 pi^2 = 6 V for the hyperbolic filling
    assert ig.gauss_bonnet_volume_residual(2.0, 64 * np.pi ** 2, 0.0) \
        == pytest.approx(0.0, abs=1e-12)


def test_error_paths():
    flat2 = MetricField.from_function(Chart(("a", "b"), (0, 0), (1, 1)),
                                      lambda: diag(1.0, 1.0))
    with pytest.raises(DomainError, match="4-metrics"):
        ig.integrate_curvature(flat2, ig.ProductChartDomain(axes=((0.1, 0.9, "kronrod"),) * 2))
    mdl = models.build("round_sphere")
    with pytest.raises(DomainError, match="orientation"):
        ig.integrate_curvature(mdl.field, mdl.domain, orientation=2)
    box3 = ig.ProductChartDomain(axes=((0.1, 0.9, "kronrod"),) * 3)
    with pytest.raises(DomainError, match="3 axes.*4 coordinates"):
        ig.integrate_curvature(mdl.field, box3)


def test_cyclic_axes_recorded(hyperbolic, conformal_fubini_study):
    expected = {"round_sphere": (3,), "product_spheres": (1, 3),
                "fubini_study": (2, 3), "flat_torus": (0, 1, 2, 3)}
    for name, axes in expected.items():
        assert models.build(name).field.cyclic_axes == axes
    # composites take the union of their parts' axes: a conformal factor
    # in t alone keeps p and v cyclic, and the round S3 boundary of the
    # hyperbolic fill does not read its last angle
    sph = models.build("product_spheres").field
    assert conformal_rescale(sph, lambda t: 0.1 * cos(t)).cyclic_axes == (1, 3)
    assert hyperbolic.four_metric().cyclic_axes == (3,)
    assert conformal_fubini_study.cyclic_axes == (2,)


def _full_grid(field):
    """The same closures with no cyclic axes: the whole 4-D tensor grid."""
    full = copy.copy(field)
    full.cyclic_axes = ()
    return full


@pytest.mark.parametrize("name", ("round_sphere", "product_spheres",
                                  "fubini_study", "flat_torus"))
def test_collapsed_axes_match_full_grid(name):
    mdl = models.build(name)
    assert mdl.field.cyclic_axes  # else both sides run the same grid
    full = ig.integrate_curvature(_full_grid(mdl.field), mdl.domain, 1)
    ref = {key: (getattr(full, key), full.error_estimates[key])
           for key in ig._FIELDS}
    for orientation in (1, -1):
        got = ig.integrate_curvature(mdl.field, mdl.domain, orientation)
        for key in ig._FIELDS:
            # reversing the orientation only exchanges the Weyl halves
            value, error = ref[_REVERSED.get(key, key) if orientation < 0 else key]
            # an error estimate is a difference of two integrals of this size
            tol = 1e-12 * max(1.0, abs(value))
            assert abs(getattr(got, key) - value) <= tol
            assert abs(got.error_estimates[key] - error) <= tol


def _counted(field, batches):
    """Copy of field whose jet appends the rows it is asked for to
    batches: the kernel asks once per batch, so the sum is the curvature
    points."""
    counted = copy.copy(field)
    jet = counted.jet

    def jet_counted(points, *args, **kwargs):
        batches.append(len(points))
        return jet(points, *args, **kwargs)

    counted.jet = jet_counted
    return counted


def test_curvature_points_per_integration():
    # one pass: 15 Kronrod nodes per bounded axis, 7 per polar axis, 8
    # trapezoid nodes per periodic axis, one node per cyclic axis
    expected = {"round_sphere": 735, "product_spheres": 49,
                "fubini_study": 105, "flat_torus": 1}
    for name, points in expected.items():
        mdl = models.build(name)
        batches = []
        ig.integrate_curvature(_counted(mdl.field, batches), mdl.domain,
                               mdl.orientation)
        assert sum(batches) == points, name
    # a conformal factor on all four coordinates keeps the full 4-D grid
    mdl = models.build("product_spheres")

    def w(t, p, u, v):
        return 0.1 * sin(t) * cos(p) + 0.1 * cos(u) + 0.1 * sin(v)

    batches = []
    ig.integrate_curvature(_counted(conformal_rescale(mdl.field, w), batches),
                           mdl.domain, mdl.orientation)
    assert sum(batches) == 3136


def test_radial_integration_is_one_jet_call(ads, ads_solution):
    """A radial domain is one Kronrod-15 pass: the field's jet is
    evaluated once, on 15 nodes per panel."""
    for field, dom in ((ads.four_metric(), ig.fg_radial_domain(ads)),
                       (compactified_metric_field(ads_solution),
                        compactified_radial_domain(ads_solution))):
        batches = []
        ig.integrate_curvature(_counted(field, batches), dom)
        assert batches == [15 * ig.RADIAL_PANELS], dom.label


def test_high_frequency_factor_keeps_euler_characteristic(product_suite):
    """The k = (3, 3) factor of the conformal-invariance criterion: its
    rescaled S2 x S2 integrates to chi = 4 within 1e-12 (about 3e-15
    with Kronrod-7 in cos(theta) on the polar axes, 9.5e-9 with
    Kronrod-15 in theta, 5.0e-5 with Gauss-Legendre 16 on every axis),
    and the reported estimates bound the deviation."""
    mdl, _ = product_suite
    w = cli._conformal_factor(0.083, -0.094, 0.385, 3, 3)
    out = ig.integrate_curvature(conformal_rescale(mdl.field, w), mdl.domain,
                                 orientation=mdl.orientation)
    assert abs(out.euler_gb - 4.0) < 1e-12
    est = out.error_estimates
    assert 8 * np.pi ** 2 * abs(out.euler_gb - 4.0) \
        <= 0.25 * est["weyl_energy"] + est["sigma2_integral"]


def test_periodic_rule_resolves_the_rescaled_products(product_suite, monkeypatch):
    """check's two factors and criterion 07's k = (3, 3) factor give the
    same integrals with the shipped 8-point trapezoid as with 16 points,
    and each lands on chi = 4 within its reported estimate; a factor that
    needs more periodic nodes fails here."""
    mdl, _ = product_suite
    factors = cli._conformal_factors() + [cli._conformal_factor(0.083, -0.094, 0.385, 3, 3)]
    fields = [conformal_rescale(mdl.field, w) for w in factors]

    def integrate():
        return [ig.integrate_curvature(f, mdl.domain, mdl.orientation) for f in fields]

    shipped = integrate()
    monkeypatch.setattr(quadrature, "PERIODIC_NODES", 16)
    finer = integrate()
    for got, ref in zip(shipped, finer):
        for key in ("weyl_energy", "sigma2_integral", "euler_gb", "signature"):
            value = getattr(ref, key)
            assert abs(getattr(got, key) - value) <= 1e-12 * max(1.0, abs(value)), key
        est = got.error_estimates
        bound = (0.25 * est["weyl_energy"] + est["sigma2_integral"]) / (8 * np.pi ** 2)
        assert abs(got.euler_gb - 4.0) <= bound


def _rescaled_volume(w):
    """Oracle for the volume of e^{2w} times the unit S2 x S2: the integral
    of e^{4w} sin(t) sin(u) by Kronrod-15 in t and u on three panels and
    the 16-point trapezoid in p and v, without the curvature kernel."""
    axes = [quadrature.kronrod_rule(0.0, np.pi, 3),
            quadrature.periodic_rule(0.0, 2 * np.pi, 2)]
    pts, weights, _ = quadrature.product_rule(axes * 2)
    t, p, u, v = pts.T
    return float(weights @ (np.exp(4 * w(t, p, u, v)) * np.sin(t) * np.sin(u)))


def test_polar_rule_meets_the_closed_forms():
    """Kronrod-7 in cos(theta) on the polar axes: the closed models, check's
    two rescaled S2 x S2 metrics and criterion 07's k = (3, 3) one give
    their closed-form integrals within 1e-12 relative (a rescaling keeps
    int |W+|^2 and int |W-|^2, so Gauss-Bonnet keeps int sigma_2), and
    chi within the reported estimates. The rescaled volume, e^{4w} dv,
    is no polynomial in cos(theta): it only stays within its estimate."""
    factors = cli._conformal_factors() + [cli._conformal_factor(0.083, -0.094, 0.385, 3, 3)]
    cases = [(name, None) for name in ("round_sphere", "product_spheres", "fubini_study")]
    cases += [("product_spheres", w) for w in factors]
    for name, w in cases:
        mdl, ref = models.build(name), models.exact_reference(name)
        field = mdl.field if w is None else conformal_rescale(mdl.field, w)
        got = ig.integrate_curvature(field, mdl.domain, mdl.orientation)
        keys = ["weyl_energy", "weyl_plus", "weyl_minus", "sigma2_integral",
                "euler", "signature"]
        if w is None:
            keys.append("volume")
        else:
            volume = _rescaled_volume(w)
            assert abs(got.volume - volume) <= got.error_estimates["volume"], name
        values = dict(vars(got), euler=got.euler_gb, signature=got.signature)
        for key in keys:
            value = ref.get(key, 0.0)  # the round S4 has no Weyl halves listed
            assert abs(values[key] - value) <= 1e-12 * max(1.0, abs(value)), (name, key)
        est = got.error_estimates
        bound = (0.25 * est["weyl_energy"] + est["sigma2_integral"]) / (8 * np.pi ** 2)
        assert abs(got.euler_gb - mdl.euler) <= bound, name


def test_polar_axes_are_checked():
    with pytest.raises(DomainError, match="exactly"):
        ig.ProductChartDomain(((0.0, np.pi, "kronrod"), (0.0, 2 * np.pi, "polar")))
    with pytest.raises(DomainError, match="exactly"):
        ig.ProductChartDomain(((0.0, 3.0, "polar"),))
    with pytest.raises(DomainError, match="unknown axis rule 'gauss'"):
        ig.ProductChartDomain(((0.0, 1.0, "gauss"),))
    axes = ((0.0, np.pi, "polar"), (0.0, 2 * np.pi, "periodic"))
    assert ig.ProductChartDomain(axes).axes == axes


def test_error_estimates_floor_at_roundoff(torus_suite, hyperbolic):
    # every flat-torus axis is cyclic, so the companion equals the fine
    # rule and only the round-off floor is left
    _, suite = torus_suite
    floor = ig.ROUNDOFF * np.finfo(float).eps
    assert suite.error_estimates["volume"] == pytest.approx(
        floor * suite.volume, rel=1e-14)
    assert suite.error_estimates["weyl_energy"] == 0.0
    # a radial domain reports at least the floor of its Kronrod-15 pass
    out = ig.integrate_curvature(hyperbolic.four_metric(),
                                 ig.fg_radial_domain(hyperbolic))
    for key in ig._FIELDS:
        assert out.error_estimates[key] >= floor * abs(getattr(out, key))


def test_suite_document(sphere_suite):
    _, suite = sphere_suite
    doc = ig.suite_document(suite)
    for key in ("weyl_energy", "weyl_plus", "weyl_minus", "sigma2_integral",
                "volume", "euler_gb", "signature", "orientation", "domain",
                "error_estimates"):
        assert key in doc
    assert doc["euler_gb"] == pytest.approx(suite.euler_gb)
    assert doc["orientation"] == 1

"""Geodesic normal form: expansion fits, radial profiles, documents."""

import csv

import numpy as np
import pytest

from ccegeom import models, normal_form as nf
from ccegeom.errors import DomainError, FitConditioning, UnsupportedDimension
from ccegeom.quadrature import gauss_legendre_rule
from ccegeom.tensor import curvature


def test_order2_extraction_matches_closed_form(hyperbolic):
    p = hyperbolic.boundary.default_point
    ser = nf.extract_expansion(hyperbolic, max_order=3)
    closed = nf.order2_coefficient(hyperbolic.boundary.field, 3, p)
    assert np.max(np.abs(ser.coefficient(2) - closed)) < 1e-10
    # unit round S^3: Ric = 2 ghat, R = 6, so g2 = -ghat/2
    ghat = hyperbolic.boundary.field.g(np.asarray([p]))[0]
    assert np.max(np.abs(closed + 0.5 * ghat)) < 1e-12
    # even expansion: no cubic term
    assert np.max(np.abs(ser.coefficient(3))) < 1e-9
    assert ser.condition_number < 1e6
    assert ser.fit_residuals[3] < 1e-3


def test_order2_extraction_second_boundary(ads):
    """Same check on a boundary that is not a round sphere."""
    p = ads.boundary.default_point
    ser = nf.extract_expansion(ads, max_order=3,
                               ladder=nf.default_ladder(s0=0.05),
                               tail_orders=(4, 5, 6))
    closed = nf.order2_coefficient(ads.boundary.field, 3, p)
    assert np.max(np.abs(ser.coefficient(2) - closed)) < 1e-8
    # the cubic coefficient carries the mass: nonzero but trace free
    g3 = ser.coefficient(3)
    assert np.max(np.abs(g3)) > 0.1
    ghat = ads.boundary.field.g(np.asarray([p]))[0]
    trace = abs(float(np.trace(np.linalg.solve(ghat, g3))))
    assert trace < 1e-5 * np.max(np.abs(g3))


def test_gauge_diagnostic_column(hyperbolic):
    ser = nf.extract_expansion(hyperbolic, max_order=3, diagnose_gauge=True)
    assert ser.gauge_coefficient is not None
    assert np.max(np.abs(ser.gauge_coefficient)) < 1e-10


def test_polynomial_family_recovery():
    bnd = models.round_sphere_boundary()
    rng = np.random.default_rng(7)

    def sym():
        a = 0.1 * rng.normal(size=(3, 3))
        return 0.5 * (a + a.T)

    c2, c3 = sym(), sym()
    fam = models.polynomial_family(bnd, {2: c2, 3: c3})
    ser = nf.extract_expansion(fam, max_order=3)
    ghat = bnd.field.g(np.asarray([bnd.default_point]))[0]
    assert np.max(np.abs(ser.coefficient(0) - ghat)) < 1e-12
    assert np.max(np.abs(ser.coefficient(2) - c2)) < 1e-10
    assert np.max(np.abs(ser.coefficient(3) - c3)) < 1e-10
    assert not fam.einstein
    assert fam.tip_multiplicity is None


def test_profile_reconstructs_hyperbolic(hyperbolic, hyperbolic_profile):
    fg = hyperbolic_profile
    assert fg.einstein
    assert fg.tip_multiplicity == 3
    assert fg.s_max == pytest.approx(2.0, abs=1e-8)
    p = fg.boundary.default_point
    s = np.linspace(0.05, 1.9, 40)
    ghat = fg.boundary.field.g(np.asarray([p]))[0]
    warp = fg.gs(s, p)[:, 0, 0] / ghat[0, 0]
    assert np.max(np.abs(warp - (1.0 - s ** 2 / 4.0) ** 2)) < 1e-9
    # and it agrees with the closed-form model it rebuilds
    direct = hyperbolic.gs(s, p)
    assert np.max(np.abs(fg.gs(s, p) - direct)) < 1e-9
    assert fg.boundary_limit_residual() < 1e-6


def test_profile_lower_boundary_side():
    """A profile already written in the defining-function variable.

    With radial factor 1/r the arc-length map is the identity s = r,
    which pins down the orientation conventions for a boundary at the
    lower end of the coordinate interval.
    """
    bnd = models.round_sphere_boundary()
    prof = nf.RadialProfile(
        name="hyperbolic-s", boundary=bnd,
        blocks=(nf.ProfileBlock(
            (0, 1, 2),
            lambda r: (1.0 - r ** 2 / 4.0) ** 2 / r ** 2,
            lambda r: -(1.0 - r ** 2 / 4.0) / r - 2.0 * (1.0 - r ** 2 / 4.0) ** 2 / r ** 3,
            lambda r: 0.5 + 3.0 * (1.0 - r ** 2 / 4.0) / r ** 2
            + 6.0 * (1.0 - r ** 2 / 4.0) ** 2 / r ** 4,
        ),),
        radial_factor=lambda r: 1.0 / r,
        radial_factor_deriv=lambda r: -1.0 / r ** 2,
        r_interior=2.0, r_boundary=0.0, boundary_side="lower",
        tip_multiplicity=3, einstein=True)
    rmap = nf.RadialMap(prof)
    s = np.geomspace(0.02, 1.8, 9)
    r = np.array([rmap.r_of_s(float(x)) for x in s])
    assert np.max(np.abs(r - s)) < 1e-10
    fg = nf.normal_form_from_profile(prof)
    p = bnd.default_point
    ghat = bnd.field.g(np.asarray([p]))[0]
    warp = fg.gs(s, p)[:, 0, 0] / ghat[0, 0]
    assert np.max(np.abs(warp - (1.0 - s ** 2 / 4.0) ** 2)) < 1e-9


def test_radial_map_sample_and_gauge(hyperbolic_radial_profile):
    rmap = nf.RadialMap(hyperbolic_radial_profile)  # a fresh map, empty cache
    rr, ss = rmap.sample(x_spacing=5e-3)
    assert rr.size > 500
    assert ss.min() < 1e-4 and ss.max() > 1.9
    assert np.all(np.diff(ss) > 0)
    # forward samples land in the inverse cache: exact round trip
    sub = ss[::50]
    back = np.array([rmap.r_of_s(float(x)) for x in sub])
    assert np.max(np.abs(rmap.s_of_r(back) - sub)) == 0.0
    # substitution s = 2(1 - y)/(1 + y) in closed form
    y = 0.5
    assert rmap.s_of_r(y) == pytest.approx(2 * (1 - y) / (1 + y), abs=1e-10)
    assert rmap.gauge_residual(np.geomspace(0.05, 1.8, 7)) < 1e-8


def test_radial_map_queries_are_one_composite_panel(ads):
    """lns_of_r is the edge table plus one gauss_legendre_rule panel, bitwise."""
    rmap = ads.radial_map
    pr = rmap.profile
    f = pr.radial_factor
    r0 = pr.r_interior
    tau_hi, x_lo = rmap._tau_region[1], rmap._x_region[0]

    def reference(r):
        idx = int(np.searchsorted(rmap.edges, r, side="right")) - 1
        a = float(rmap.edges[idx])
        if r <= tau_hi:
            t, w = gauss_legendre_rule(np.sqrt(max(a - r0, 0.0)), np.sqrt(r - r0),
                                       1, rmap.order)
            seg = np.dot(w, np.asarray(f(r0 + t**2)) * 2.0 * t)
        elif a >= x_lo:
            x, w = gauss_legendre_rule(1.0 / r, 1.0 / a, 1, rmap.order)
            seg = np.dot(w, np.asarray(f(1.0 / x)) / x**2)
        else:
            nodes, w = gauss_legendre_rule(a, r, 1, rmap.order)
            seg = np.dot(w, np.asarray(f(nodes)))
        return rmap._sign * (rmap._arc[idx] + float(seg)) + rmap.kappa

    radii = np.concatenate([
        r0 + (tau_hi - r0) * np.array([1e-6, 0.013, 0.37, 0.8]),   # tau region
        tau_hi + (x_lo - tau_hi) * np.array([0.01, 0.29, 0.61, 0.97]),  # direct
        x_lo * np.array([1.3, 17.0, 4.1e3, 2.2e8]),                 # x = 1/r
    ])
    for r in radii:
        assert rmap.lns_of_r(float(r)) == reference(float(r)), r


def test_extraction_error_paths(hyperbolic):
    with pytest.raises(DomainError, match="global data"):
        nf.extract_expansion(hyperbolic, max_order=4)
    with pytest.raises(DomainError):
        nf.extract_expansion(hyperbolic, max_order=1)
    with pytest.raises(DomainError, match="5 rungs"):
        nf.extract_expansion(hyperbolic, ladder=[0.2, 0.1, 0.05])
    with pytest.raises(FitConditioning):
        nf.extract_expansion(hyperbolic, ladder=0.2 * 0.995 ** np.arange(8))


def test_order2_closed_form_guards():
    bnd = models.round_sphere_boundary()
    p = bnd.default_point
    with pytest.raises(UnsupportedDimension):
        nf.order2_coefficient(bnd.field, 2, p)
    with pytest.raises(UnsupportedDimension):
        nf.order2_coefficient(bnd.field, 1, p)
    with pytest.raises(DomainError, match="dim"):
        nf.order2_coefficient(bnd.field, 4, p)


def test_boundary_limit_residual(hyperbolic, ads, perturbed):
    assert hyperbolic.boundary_limit_residual() < 1e-6
    assert ads.boundary_limit_residual() < 1e-6
    assert perturbed.boundary_limit_residual() < 1e-6


def test_fg_document_and_gs_table(hyperbolic, tmp_path):
    doc = nf.fg_document(hyperbolic)
    assert doc["family"] == "hyperbolic"
    assert doc["n"] == 3
    assert doc["einstein"] is True
    assert doc["yamabe_positive"] is True
    assert doc["boundary"]["scalar_curvature"] == pytest.approx(6.0)
    svals = [0.4, 0.2, 0.1]
    rows = nf.gs_table_rows(hyperbolic, svals)
    assert len(rows) == 3
    assert rows[0][0] == 0.4
    assert len(rows[0]) == 1 + 3 + 6  # s, coords, upper triangle
    path = tmp_path / "gs.csv"
    nf.write_gs_table(hyperbolic, svals, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# gs-table v1"
    reader = csv.reader(lines[1:])
    header = next(reader)
    assert header[0] == "s" and header[-1] == "g_22"
    data = [[float(x) for x in row] for row in reader]
    assert np.allclose(np.asarray(data), np.asarray(rows))


def test_one_radial_inversion_per_block_and_point(ads, monkeypatch):
    """Each reader asks every warp for one jet, so it inverts the map once
    per block and point: AdS has two blocks, curvature reads g, dg, d2g."""
    rmap = ads.radial_map
    r_of_s = rmap.r_of_s
    calls = [0]

    def counted(s):
        calls[0] += 1
        return r_of_s(s)

    monkeypatch.setattr(rmap, "r_of_s", counted)
    s = np.linspace(0.05, 0.9 * ads.s_max, 10)
    pts = np.column_stack([s, np.tile(ads.boundary.default_point, (10, 1))])
    four = ads.four_metric()
    for read, expected in ((lambda: curvature(four, pts), 60),
                           (lambda: ads.density_logderiv(s), 20),
                           (lambda: ads.density_logderiv2(s), 20)):
        calls[0] = 0
        read()
        assert calls[0] == expected


@pytest.mark.parametrize("build, kwargs", [
    ("hyperbolic", {"boundary_radius": 1.0}),
    ("hyperbolic", {"boundary_radius": 1.3}),
    ("perturbed_hyperbolic", {"amplitude": 0.05}),
    ("ads_schwarzschild", {"m": 1.0}),
])
def test_warp_jet_derivatives_match_central_differences(build, kwargs):
    fg = models.build(build, **kwargs)
    s = np.linspace(0.1, 0.8, 8) * fg.s_max
    step = 1e-4 * fg.s_max
    for blk in fg.blocks:
        h, dh, d2h = blk.jet(s)
        hp, dhp, _ = blk.jet(s + step)
        hm, dhm, _ = blk.jet(s - step)
        assert h.shape == dh.shape == d2h.shape == s.shape
        np.testing.assert_allclose(dh, (hp - hm) / (2 * step), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(d2h, (dhp - dhm) / (2 * step), rtol=1e-6, atol=1e-8)

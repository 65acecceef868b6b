"""Geodesic normal form: the boundary fit, radial profiles, documents."""

import numpy as np
import pytest

from ccegeom import models, normal_form as nf
from ccegeom.autodiff import variable
from ccegeom.eigenfunction import (compactification_checks, compactified_metric_field,
                                   solve_eigenfunction)
from ccegeom.errors import DomainError, UnsupportedDimension
from ccegeom.quadrature import gauss_legendre_rule
from ccegeom.tensor import curvature
from ccegeom.volume import fit_renormalized_volume


def _taylor_matrix(fg, row):
    """The n x n coefficient of g_s at the boundary's default point whose
    block b is row[b] times ghat on that block."""
    ghat = fg.boundary.field.g(np.asarray([fg.boundary.default_point]))[0]
    out = np.zeros_like(ghat)
    for b, idx in enumerate(fg.blocks):
        i = np.asarray(idx)
        out[i[:, None], i] = row[b] * ghat[i[:, None], i]
    return out


def test_order2_extraction_matches_closed_form(hyperbolic):
    p = hyperbolic.boundary.default_point
    rows = hyperbolic.boundary_expansion()
    closed = nf.order2_coefficient(hyperbolic.boundary.field, 3, p)
    assert np.max(np.abs(_taylor_matrix(hyperbolic, rows[2]) - closed)) < 1e-10
    # unit round S^3: Ric = 2 ghat, R = 6, so g2 = -ghat/2
    ghat = hyperbolic.boundary.field.g(np.asarray([p]))[0]
    assert np.max(np.abs(closed + 0.5 * ghat)) < 1e-12
    # even expansion: no cubic term
    assert np.max(np.abs(_taylor_matrix(hyperbolic, rows[3]))) < 1e-9
    # in units of s_max the design matrix is the same on every fill
    lo, hi = nf.BOUNDARY_FIT_WINDOW
    s = nf._chebyshev_nodes(lo, hi, nf.BOUNDARY_FIT_NODES)
    cols = s[:, None] ** np.arange(nf.BOUNDARY_FIT_DEGREE + 1)
    assert np.linalg.cond(cols / np.linalg.norm(cols, axis=0)) < 1e6


def test_order2_extraction_second_boundary(ads):
    """Same check on a boundary that is not a round sphere."""
    p = ads.boundary.default_point
    rows = ads.boundary_expansion()
    closed = nf.order2_coefficient(ads.boundary.field, 3, p)
    assert np.max(np.abs(_taylor_matrix(ads, rows[2]) - closed)) < 1e-8
    # the cubic coefficient carries the mass: nonzero but trace free
    g3 = _taylor_matrix(ads, rows[3])
    assert np.max(np.abs(g3)) > 0.1
    ghat = ads.boundary.field.g(np.asarray([p]))[0]
    trace = abs(float(np.trace(np.linalg.solve(ghat, g3))))
    assert trace < 1e-5 * np.max(np.abs(g3))


def test_gauge_diagnostic_column(hyperbolic):
    """In the geodesic gauge g_s has no s^1 term."""
    assert np.max(np.abs(hyperbolic.boundary_expansion()[1])) < 1e-10


def test_polynomial_family_recovery():
    """A fill whose warps are 1 + a_b s^2 + b_b s^3 checks the fit's rows
    against known answers, block by block.

    Rounding in row k grows like s_max^-k, since the fit samples
    [0.001, 0.05] s_max. At s_max = 4 it samples [0.004, 0.2], the
    s range of the absolute ladder the fit replaced.
    """
    a, b = 0.1 * np.random.default_rng(7).normal(size=(2, 2))
    fam = nf.FGMetric(models.round_sphere_boundary(), 4.0, [(0,), (1, 2)],
                      lambda S: [1.0 + a[k] * S**2 + b[k] * S**3 for k in range(2)])
    rows = fam.boundary_expansion()
    assert np.max(np.abs(rows[0] - 1.0)) < 1e-12
    assert np.max(np.abs(rows[1])) < 1e-12
    assert np.max(np.abs(rows[2] - a)) < 1e-10
    assert np.max(np.abs(rows[3] - b)) < 1e-9


def _region_radii(rmap):
    """Radii in the tau, direct and x = 1/r regions of a radial map."""
    r0, x_lo = rmap.profile.r_interior, rmap._r_direct
    tau_hi = r0 + 1.0
    return np.concatenate([
        r0 + (tau_hi - r0) * np.array([1e-6, 0.013, 0.37, 0.8]),   # tau region
        tau_hi + (x_lo - tau_hi) * np.array([0.01, 0.29, 0.61, 0.97]),  # direct
        x_lo * np.array([1.3, 17.0, 4.1e3, 2.2e8]),                 # x = 1/r
    ])


def _round_trip(rmap):
    """(s, r_of_s(s)) on an s grid from 1.5 s_floor to 0.99 s_interior,
    after checking that r reaches the tau, direct and x = 1/r regions and
    that lns_of_r(r) gives ln s back to 1e-13."""
    s = np.concatenate([np.geomspace(1.5 * rmap.s_floor, 0.9 * rmap.s_interior, 40),
                        rmap.s_interior * np.array([0.95, 0.99])])
    r = rmap.r_of_s(s)
    tau_hi, x_lo = rmap.profile.r_interior + 1.0, rmap._r_direct
    assert np.any(r < tau_hi) and np.any(r > x_lo)
    assert np.any((r > tau_hi) & (r < x_lo))
    assert np.max(np.abs(rmap.lns_of_r(r) - np.log(s))) <= 1e-13
    return s, r


def test_profile_reconstructs_hyperbolic(hyperbolic, hyperbolic_profile):
    """Read at chart points, s is the closed form of the map at
    r = 1 + chi^2/(1 - chi^2), chi = 1 - y/2, and the warp at that s is
    the closed-form model's."""
    fg = hyperbolic_profile
    assert fg.einstein
    assert fg.tip_multiplicity == 3
    assert fg.s_max == pytest.approx(2.0, abs=1e-8)
    assert fg.y_max == 2.0
    y = np.linspace(0.05, 1.9, 40)
    w = fg.warp(y)
    chi = 1.0 - y / 2.0
    r = 1.0 + chi**2 / (1.0 - chi**2)
    np.testing.assert_allclose(w.s, 2.0 / (r + np.sqrt(r**2 - 1.0)), rtol=1e-13)
    assert np.max(np.abs(w.h[:, 0] - (1.0 - w.s ** 2 / 4.0) ** 2)) <= 1e-11
    # and it agrees with the closed-form model it rebuilds
    assert np.max(np.abs(w.h - hyperbolic.warp(w.s).h)) <= 1e-11
    assert fg.boundary_limit_residual() <= 1e-12


def test_radial_map_closed_form_and_gauge(hyperbolic_radial_profile, hyperbolic_profile):
    """In r = cosh t the hyperbolic map is s = 2/(r + sqrt(r^2 - 1))
    and r(s) = (s^2 + 4)/(4s); the AdS round trip's s grid reaches the
    tau, direct and x = 1/r regions here as well, and the chart's
    d ln s/dy meets central differences of the map (the gauge)."""
    rmap = nf.RadialMap(hyperbolic_radial_profile)
    r = np.array([1.5, 3.0, 40.0])
    np.testing.assert_allclose(np.exp(rmap.lns_of_r(r)), 2.0 / (r + np.sqrt(r**2 - 1.0)),
                               rtol=1e-13)
    s, r = _round_trip(rmap)
    np.testing.assert_allclose(r, (s**2 + 4.0) / (4.0 * s), rtol=1e-12)
    assert hyperbolic_profile.gauge_residual < 1e-8


def test_radial_map_queries_are_one_composite_panel(ads):
    """lns_of_r is the edge table plus one gauss_legendre_rule panel, bitwise.

    The table and the panel are in rho = r - r_interior, with a dr =
    radial_factor(rho) rho^-1/2 drho. Each panel is contracted as a
    plain sum of weight times value, the row-wise reduction the batched
    query applies.
    """
    rmap = ads.radial_map
    pr = rmap.profile
    f = pr.radial_factor
    r0 = pr.r_interior
    x_lo = rmap._r_direct

    def reference(r):
        rho = r - r0
        idx = int(np.searchsorted(rmap._rho, rho, side="right")) - 1
        a = float(rmap._rho[idx])
        if rho <= 1.0:
            t, w = gauss_legendre_rule(np.sqrt(a), np.sqrt(rho), 1, rmap._ORDER)
            seg = np.sum(w * (2.0 * np.asarray(f(t**2))))
        elif a >= x_lo - r0:
            x, w = gauss_legendre_rule(1.0 / (r0 + rho), 1.0 / (r0 + a), 1, rmap._ORDER)
            seg = np.sum(w * (np.asarray(f(1.0 / x - r0)) * (1.0 / x - r0) ** -0.5 / x**2))
        else:
            nodes, w = gauss_legendre_rule(a, rho, 1, rmap._ORDER)
            seg = np.sum(w * (np.asarray(f(nodes)) * nodes**-0.5))
        return rmap.kappa - (rmap._arc[idx] + float(seg))

    for r in _region_radii(rmap):
        assert rmap.lns_of_r(float(r)).tolist() == [reference(float(r))], r


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
    # the fit is scale-free: the exact fills stay at rounding level away
    # from lambda = 1, and AdS well inside the gate at m = 3
    for lam in (0.7, 0.9):
        fg = models.build("hyperbolic", boundary_radius=lam)
        assert fg.boundary_limit_residual() < 1e-12
    assert models.build("ads_schwarzschild", m=3.0).boundary_limit_residual() < 1e-6


def test_fg_document(hyperbolic):
    doc = nf.fg_document(hyperbolic)
    assert doc["family"] == "hyperbolic"
    assert doc["n"] == 3
    assert doc["einstein"] is True
    assert doc["yamabe_positive"] is True
    assert doc["boundary"]["scalar_curvature"] == pytest.approx(6.0)


def test_no_reader_inverts_the_radial_map(ads, monkeypatch):
    """Every reader takes chart points and reads s forward: the
    four-metric's curvature, the densities, the volume fit, the
    eigenfunction solve with its checks and the compactified field never
    call r_of_s."""
    def refuse(self, s):
        raise AssertionError("the radial map was inverted")

    monkeypatch.setattr(nf.RadialMap, "r_of_s", refuse)
    y = np.linspace(0.05, 0.9 * ads.y_max, 10)
    pts = np.column_stack([y, np.tile(ads.boundary.default_point, (10, 1))])
    curvature(ads.four_metric(), pts)
    ads.density(y)
    fit_renormalized_volume(ads)
    sol = solve_eigenfunction(ads)
    compactification_checks(sol)
    curvature(compactified_metric_field(sol), pts)


def test_one_warp_call_per_batch(ads, ads_solution, monkeypatch):
    """density, the warp and each curvature batch of the four-metric
    read the chart jets once; compactification_checks reads
    them once for the Bochner grid (L included) and once for the
    boundary fit that reads the second form."""
    chart_jets = ads.chart_jets
    calls = [0]

    def counted(Y):
        calls[0] += 1
        return chart_jets(Y)

    monkeypatch.setattr(ads, "chart_jets", counted)
    y = np.linspace(0.05, 0.9 * ads.y_max, 10)
    pts = np.column_stack([y, np.tile(ads.boundary.default_point, (10, 1))])
    four = ads.four_metric()
    for read, expected in ((lambda: ads.density(y), 1),
                           (lambda: ads.warp(y), 1),
                           (lambda: curvature(four, pts), 1),
                           (lambda: compactification_checks(ads_solution), 2)):
        calls[0] = 0
        read()
        assert calls[0] == expected


@pytest.mark.parametrize("build, kwargs", [
    ("hyperbolic", {"boundary_radius": 1.0}),
    ("hyperbolic", {"boundary_radius": 1.3}),
    ("perturbed_hyperbolic", {"amplitude": 0.05}),
    ("ads_schwarzschild", {"m": 1.0}),
    ("hyperbolic_profile", None),  # hyperbolic space in r = cosh rho
])
def test_warp_jet_derivatives_match_central_differences(build, kwargs, request):
    """The chart's jets of s and of the warps, in y, against central
    differences of their values; on a fill written in s, y = s."""
    fg = (request.getfixturevalue(build) if kwargs is None
          else models.build(build, **kwargs))
    y = np.linspace(0.1, 0.8, 8) * fg.y_max
    step = 1e-4 * fg.y_max
    w, wp, wm = (fg.warp(y + d) for d in (0.0, step, -step))
    assert w.h.shape == w.dh.shape == w.d2h.shape == (y.size, len(fg.blocks))
    # column b is block b's warp; the comparison is elementwise
    for f, df, d2f in (("s", "ds", "d2s"), ("h", "dh", "d2h")):
        np.testing.assert_allclose(getattr(w, df), (getattr(wp, f) - getattr(wm, f)) / (2 * step),
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(getattr(w, d2f), (getattr(wp, df) - getattr(wm, df)) / (2 * step),
                                   rtol=1e-6, atol=1e-8)


def test_profile_jets_match_hand_derivatives(ads, hyperbolic_profile):
    """Each profile function, evaluated on the jet of rho = r - r_interior,
    gives the closed-form derivatives written out by hand in r, and on
    the jet the same values bitwise as on a plain array: the warp and
    RadialMap read the same numbers. The AdS block V = r^2 + 1 - 2m/r
    and the regular part F^-1/2 of its radial factor, F = V/rho."""
    rmap = ads.radial_map
    m, rp = rmap.profile.parameters["m"], rmap.profile.r_interior
    ads_r = _region_radii(rmap)
    dV = 2.0 * ads_r + 2.0 * m / ads_r**2
    F = ads_r + rp + (rp**2 + 1.0) / ads_r
    ads_oracles = [
        (rmap.profile.blocks[0].beta_sq, dV, 2.0 - 4.0 * m / ads_r**3),
        (rmap.profile.blocks[1].beta_sq, 2.0 * ads_r, np.full_like(ads_r, 2.0)),
        (rmap.profile.radial_factor, -0.5 * (1.0 - (rp**2 + 1.0) / ads_r**2) * F**-1.5, None),
    ]
    hyp = hyperbolic_profile.radial_map.profile
    y = _region_radii(hyperbolic_profile.radial_map)
    hyp_oracles = [
        (hyp.blocks[0].beta_sq, 2.0 * y, np.full_like(y, 2.0)),
        (hyp.radial_factor, -0.5 * (y + 1.0) ** -1.5, None),
    ]
    for r, r0, oracles in ((ads_r, rp, ads_oracles), (y, 1.0, hyp_oracles)):
        for f, d1, d2 in oracles:
            jet = f(variable(r - r0))
            assert np.array_equal(jet.v, f(r - r0))
            np.testing.assert_allclose(jet.d[0], d1, rtol=1e-13)
            if d2 is not None:
                np.testing.assert_allclose(jet.h[0, 0], d2, rtol=1e-13)


def test_radial_map_inverse_round_trip(ads):
    """r_of_s inverts lns_of_r to 1e-13 in ln s, one-point queries equal
    the batch entries bitwise, and s outside [s_floor, s_interior] is
    refused.

    The AdS s grid reaches the tau, direct and x = 1/r regions of the
    edge table. The grid stops at 0.99 s_interior: next to the AdS tip
    V(r) = r^2 + 1 - 2m/r loses digits to cancellation, and ln s itself
    carries about 1e-13 of rounding there.
    """
    rmap = ads.radial_map
    s, r = _round_trip(rmap)
    assert np.array_equal(np.concatenate([rmap.r_of_s(float(x)) for x in s]), r)
    for bad in (0.5 * rmap.s_floor, rmap.s_interior * (1.0 + 1e-9)):
        with pytest.raises(DomainError):
            rmap.r_of_s(bad)
        with pytest.raises(DomainError):
            rmap.r_of_s(np.asarray([s[10], bad]))


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_chart_warps_match_the_inverse_composition(m):
    """h_b and its first two s-derivatives, read forward in the chart,
    against the composition h_b = s^2 beta_sq_b(r(s)) through the
    inverse map r_of_s at the same s, with the jet of r(s) from the
    gauge dr/ds = -1/(a s): within 1e-12 of each column's largest
    magnitude over the chart."""
    fg = models.build("ads_schwarzschild", m=m)
    rmap = fg.radial_map
    pr, r0 = rmap.profile, rmap.profile.r_interior
    w = fg.warp(np.linspace(0.02, 0.98, 25) * fg.y_max)
    S = variable(w.s)
    rho = rmap.r_of_s(w.s) - r0
    A = pr.radial_factor(variable(rho)) * variable(rho) ** -0.5
    rp = -1.0 / (A.v * w.s)
    rpp = (A.d[0] * rp * w.s + A.v) / (A.v * w.s) ** 2
    parent = [S**2 * b.beta_sq(S.chain(rho, rp, rpp)) for b in pr.blocks]
    dh = w.dh / w.ds[:, None]
    d2h = (w.d2h - dh * w.d2s[:, None]) / w.ds[:, None] ** 2
    for got, want in ((w.h, [j.v for j in parent]), (dh, [j.d[0] for j in parent]),
                      (d2h, [j.h[0, 0] for j in parent])):
        want = np.stack(want, axis=1)
        assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-12


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_warps_and_four_metric_are_finite_at_the_tip(m):
    """Chart points whose s lies within 1e-12 s_max of the tip, and
    closer, give finite warps, jets of s and four-metric jets: the
    closure V = rho F is never formed from r."""
    fg = models.build("ads_schwarzschild", m=m)
    y = fg.y_max - np.array([1e-15, 1e-14, 1e-13, 1e-12])
    w = fg.warp(y)
    assert np.all(fg.s_max - w.s <= 1e-12 * fg.s_max)
    assert all(np.all(np.isfinite(col)) for col in w)
    pts = np.column_stack([y, np.tile(fg.boundary.default_point, (y.size, 1))])
    assert all(np.all(np.isfinite(a)) for a in fg.four_metric().jet(pts, check=False))

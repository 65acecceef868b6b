"""Eigenfunction compactification: asymptotics, solver accuracy, checks."""

import numpy as np
import pytest

from ccegeom import models
from ccegeom import eigenfunction as ef
from ccegeom.errors import DomainError, PositivityViolation, UnsupportedDimension
from ccegeom.integrals import integrate_curvature
from ccegeom.tensor import curvature


def test_indicial_roots():
    assert ef.indicial_roots(3) == (-1, 4)
    assert ef.indicial_roots(4) == (-1, 5)
    assert ef.indicial_roots(2) == (-1, 3)
    for bad in (1, 0, -3, True, 3.0):
        with pytest.raises(UnsupportedDimension):
            ef.indicial_roots(bad)


def test_asymptotic_data_exact_cases(hyperbolic, ads):
    """R/24 in floats is the correctly rounded 1/4 and 1/12."""
    assert ef.asymptotic_data(hyperbolic) == 0.25
    assert ef.asymptotic_data(ads) == 1 / 12


@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_asymptotic_data_real_boundary_curvature(lam):
    """An Einstein fill whose boundary scalar curvature is a float still
    takes w2 = R/24 from the boundary, not from the matched density."""
    w2 = ef.asymptotic_data(models.hyperbolic(boundary_radius=lam))
    assert w2 == pytest.approx(1.0 / (4 * lam**2), rel=1e-15, abs=0.0)


def test_asymptotic_data_matched_case(perturbed):
    """Non-Einstein family: w2 must come from matching the density."""
    w2 = ef.asymptotic_data(perturbed)
    ref = models.exact_reference("perturbed_hyperbolic", "w2", **perturbed.parameters)
    assert abs(w2 - ref) < 1e-6


def test_hyperbolic_solution_closed_form(hyp_solution):
    """u = 1/s + s/4 exactly; derivative errors gated relative to size."""
    sol = hyp_solution
    s = np.geomspace(sol.s_lo, sol.s_hi, 400)
    u, du, d2u, d3u = sol.jet(s, 3)
    assert np.max(np.abs(u - (1 / s + s / 4))) < 1e-8
    assert np.max(np.abs(du - (-1 / s ** 2 + 0.25))) < 1e-8
    d2, d3 = 2 / s ** 3, -6 / s ** 4
    assert np.max(np.abs((d2u - d2) / d2)) < 1e-6
    assert np.max(np.abs((d3u - d3) / d3)) < 1e-4
    # on the whole fill (0, 2] the minimum of 1/s + s/4 is u(2) = 1 exactly
    assert sol.u_min == pytest.approx(1.0, abs=1e-12)
    assert sol.collocation_residual < 1e-9
    assert sol.asymptotic_residual() < 1e-12
    assert sol.equation_residual() < 1e-9
    assert sol.boundary_scalar == pytest.approx(48 * sol.w2)
    assert sol.boundary_scalar == pytest.approx(12.0)


def test_jet_matches_accessors_bitwise(ads_solution):
    """Entry k of jet(s, 3) equals entry k of jet(s, k), and one-point
    queries equal the batch entries bitwise."""
    sol = ads_solution
    s = np.geomspace(sol.s_lo, sol.s_hi, 37)
    jet = sol.jet(s, 3)
    assert np.array_equal(jet[0], sol.u(s))
    assert np.array_equal(np.concatenate([sol.u(float(x)) for x in s]), jet[0])
    for k, got in enumerate(jet):
        assert np.array_equal(sol.jet(s, k)[k], got)
        scalars = [sol.jet(float(x), k)[k][0] for x in s]
        assert np.array_equal(np.asarray(scalars), got)
    assert sol.compactified_scalar(float(s[3])).tolist() == [sol.compactified_scalar(s)[3]]


def test_spline_path_matches_closed_form(hyperbolic_profile):
    """The same solve through the radial-map machinery of a profile."""
    sol = ef.solve_eigenfunction(hyperbolic_profile)
    assert sol.w2 == 0.25
    s = np.geomspace(sol.s_lo, sol.s_hi, 400)
    assert np.max(np.abs(sol.u(s) - (1 / s + s / 4))) < 1e-8


def test_compactified_scalar_is_constant(hyp_solution):
    sol = hyp_solution
    s = np.geomspace(1e-4, sol.s_hi, 200)
    assert np.max(np.abs(sol.compactified_scalar(s) - 12.0)) < 1e-5


def test_compactified_metric_engine_cross_check(hyp_solution):
    """Feed ubar^2 g back through the curvature engine: the compactified
    metric must be the round sphere slice metric, Ric = 3 gbar."""
    mbar = ef.compactified_metric_field(hyp_solution)
    pts = np.column_stack([np.linspace(0.08, 1.1, 7), np.full(7, 0.7),
                           np.full(7, 0.9), np.full(7, 1.1)])
    pack = curvature(mbar, pts)
    assert np.max(np.abs(pack.scalar - 12.0)) < 1e-10
    assert np.max(np.abs(pack.ricci - 3.0 * pack.metric)) < 1e-10
    assert np.max(pack.norms["weyl_sq"]) < 1e-10


def test_collar_volume_through_compactified_domain(hyp_solution):
    """The compactified hyperbolic fill is the round unit hemisphere: the
    domain spans it from the boundary to the tip, and its volume is
    4 pi^2 / 3."""
    dom = ef.compactified_radial_domain(hyp_solution)
    assert dom.y_lo == 0.0 and dom.y_hi == hyp_solution.s_hi
    suite = integrate_curvature(ef.compactified_metric_field(hyp_solution), dom)
    assert abs(suite.volume - 4 * np.pi ** 2 / 3) <= 1e-10


def test_solution_domain_guards(hyp_solution):
    with pytest.raises(DomainError, match="does not extend"):
        hyp_solution.u(np.asarray([hyp_solution.s_hi * 1.05]))
    with pytest.raises(DomainError):
        hyp_solution.u(np.asarray([0.0]))


def _verdicts(gates):
    return {g.name: g.verdict for g in gates}


_EINSTEIN_GATES = ("scalar-lower-bound", "totally-geodesic-boundary",
                   "bochner-identity")


def test_hyperbolic_report(hyp_checks):
    rep, gates = hyp_checks
    assert _verdicts(gates) == dict.fromkeys(_EINSTEIN_GATES, "pass")
    assert rep["u_min"] == pytest.approx(1.0, abs=1e-12)  # u(s_max) = u(2) = 1
    assert rep["scalar_boundary"] == pytest.approx(12.0)
    assert rep["scalar_gap"] > -1e-4
    assert rep["bochner_sup"] < 1e-6
    assert rep["second_form_linear"] < 1e-6


def test_ads_report(ads_checks):
    rep, gates = ads_checks
    assert _verdicts(gates) == dict.fromkeys(_EINSTEIN_GATES, "pass")
    assert rep["scalar_boundary"] == pytest.approx(4.0)
    # scalar of the compactified metric stays above twice the boundary scalar
    assert rep["scalar_min"] >= 2 * 2.0 - 1e-4
    assert rep["bochner_sup"] < 1e-6
    assert rep["second_form_linear"] < 1e-6
    assert rep["u_min"] > 1.0


def test_perturbed_report_flags_bochner_only(pert_checks):
    """The non-Einstein control records the scalar gap ungated, keeps
    the boundary gate and trips the Bochner flag instead of certifying
    the identity."""
    rep, gates = pert_checks
    assert _verdicts(gates) == {
        "totally-geodesic-boundary": "pass", "bochner-flag-trips": "pass"}
    assert np.isfinite(rep["scalar_gap"])
    assert rep["bochner_sup"] >= ef.BOCHNER_TOL
    assert rep["bochner_sup"] > 0.1
    assert rep["u_min"] > 0.0


def test_gates_carry_the_report_values_and_module_tolerances(hyp_checks, pert_checks):
    """Each gate is decided once, on the measured value against its
    module tolerance, with no boundary band; the scalar bound is gated
    on the Einstein fill alone."""
    for rep, gates in (hyp_checks, pert_checks):
        bochner = gates[-1].name
        expect = {
            "scalar-lower-bound": (rep["scalar_gap"], -ef.SCALAR_SLACK, ">="),
            "totally-geodesic-boundary": (rep["second_form_linear"],
                                          ef.SECOND_FORM_TOL, "<"),
            bochner: (rep["bochner_sup"], ef.BOCHNER_TOL,
                      "<" if bochner == "bochner-identity" else ">="),
        }
        for g in gates:
            value, threshold, comparison = expect[g.name]
            assert (g.value, g.threshold, g.comparison) == (value, threshold, comparison)
            assert g.margin == value - threshold
    assert [g.name for g in hyp_checks[1]] == list(_EINSTEIN_GATES)
    assert [g.name for g in pert_checks[1]] == ["totally-geodesic-boundary",
                                                "bochner-flag-trips"]


def test_solve_refuses_a_nonpositive_eigenfunction(hyperbolic, monkeypatch):
    """Positivity is the solve's own check, not a gate: a series whose u
    dips below zero never reaches compactification_checks. phi = -1 on
    the hyperbolic fill gives u(2) = 1/2 + 1/2 - 4 < 0."""
    monkeypatch.setattr(ef, "_collocate", lambda fg, w2, n: -np.eye(n)[0])
    with pytest.raises(PositivityViolation, match="attains"):
        ef.solve_eigenfunction(hyperbolic)


#: AdS masses from s_max = 2.1 to 0.37, boundary radii from s_max = 0.6
#: to 12, and non-Einstein bumps of both signs
_SWEEP = ([("ads_schwarzschild", {"m": float(m)}) for m in np.geomspace(0.02, 40, 9)]
          + [("hyperbolic", {"boundary_radius": r}) for r in (0.3, 1.0, 1.3, 4.0, 6.0)]
          + [("perturbed_hyperbolic", {"amplitude": a}) for a in (0.05, 0.3, -0.3)])


@pytest.mark.parametrize("name, params", _SWEEP,
                         ids=[f"{n}-{v:g}" for n, p in _SWEEP for v in p.values()])
def test_boundary_data_over_the_families(name, params):
    """The boundary limit, the second form and the matched w2 read the
    warps' Taylor rows at rounding level on every fill, whatever its
    s_max."""
    fg = models.build(name, **params)
    sol = ef.solve_eigenfunction(fg)
    assert fg.boundary_limit_residual() <= 1e-12
    assert ef.compactification_checks(sol)[0]["second_form_linear"] <= 1e-10
    if not fg.einstein:
        assert abs(sol.w2 - (0.25 - params["amplitude"])) <= 1e-9


def test_charts_span_the_whole_fill(hyperbolic, ads, hyp_solution, ads_solution):
    """The normal-form and compactified metrics live on 0 < y < y_max,
    the fill's radial chart: y = s on the hyperbolic fill, and the
    chart y = 2(1 - chi) of the AdS profile."""
    assert (hyperbolic.y_max, ads.y_max) == (hyperbolic.s_max, 2.0)
    for fg, sol in ((hyperbolic, hyp_solution), (ads, ads_solution)):
        for field in (fg.four_metric(), ef.compactified_metric_field(sol)):
            assert (field.chart.lo[0], field.chart.hi[0]) == (0.0, fg.y_max)
            assert field.chart.lo[1:] == fg.boundary.field.chart.lo
            assert field.chart.hi[1:] == fg.boundary.field.chart.hi


def test_scalar_lower_bound_over_einstein_models(hyp_checks, ads_checks):
    """min over the grid of the compactified scalar >= 2 * boundary scalar."""
    for (rep, _), rhat in ((hyp_checks, 6.0), (ads_checks, 2.0)):
        assert rep["scalar_min"] >= 2 * rhat - 1e-4


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_ads_solution_on_the_whole_fill(m):
    """The collocation reaches the tip: u_min is u(s_max), below every
    value on the old truncated interval, the scalar bound holds up to
    the tip, and the equation holds between the collocation nodes."""
    fg = models.build("ads_schwarzschild", m=m)
    sol = ef.solve_eigenfunction(fg)
    sm = fg.s_max
    assert sol.s_hi == sm and sol.s_lo == ef.S_LO
    assert sol.mesh_size == sol.coefficients.size
    assert sol.mesh_size in ef.COLLOCATION_NODES and sol.mesh_size <= 64
    assert sol.coefficient_tail <= ef.TAIL_LIMIT
    assert abs(sol.u_min - sol.u(sm)) <= 1e-12
    truncated = sol.u(np.geomspace(ef.S_LO, sm - 0.05, 2000))
    assert sol.u_min < truncated.min()
    scan = np.geomspace(ef.S_LO, sm, 4000)
    assert np.min(sol.compactified_scalar(scan)) >= sol.boundary_scalar - ef.SCALAR_SLACK
    rep, gates = ef.compactification_checks(sol)
    assert _verdicts(gates)["scalar-lower-bound"] == "pass"
    assert rep["u_min"] == sol.u_min
    assert sol.equation_residual() <= 1e-8  # between the collocation points
    assert sol.collocation_residual == sol.equation_residual()
    with pytest.raises(DomainError, match="does not extend"):
        sol.u(sm * (1.0 + 1e-9))


def test_ads_collocation_ladder_calls(ads, monkeypatch):
    """At m = 1 the tail at N = 16 is above TAIL_TOL, so the solve
    collocates once per rung of the ladder, twice in all."""
    collocate = ef._collocate
    sizes = []

    def counted(fg, w2, n):
        sizes.append(n)
        return collocate(fg, w2, n)

    monkeypatch.setattr(ef, "_collocate", counted)
    sol = ef.solve_eigenfunction(ads)
    assert sizes == [16, 64]
    assert sol.mesh_size == 64

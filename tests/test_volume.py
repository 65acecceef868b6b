"""Renormalized volume: quadrature oracle, expansion fits, failure modes."""

import warnings

import numpy as np
import pytest
import sympy as sp

from ccegeom import models, volume as vol
from ccegeom.errors import DomainError, FitConditioning, QuadratureTolerance, UnstableFit
from ccegeom.normal_form import FGMetric


def _hyperbolic_sublevel_oracle(eps: float) -> float:
    """Antiderivative of 2 pi^2 (1 - s^2/4)^3 s^-4 on [eps, 2], via sympy."""
    s = sp.symbols("s", positive=True)
    F = sp.integrate(2 * sp.pi ** 2 * (1 - s ** 2 / 4) ** 3 / s ** 4, s)
    return float((F.subs(s, 2) - F.subs(s, sp.Rational(eps))).evalf(30))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.04])
def test_sublevel_volume_against_antiderivative(hyperbolic, eps):
    (value,), (err_est,) = vol.sublevel_volumes(hyperbolic, [eps])
    exact = _hyperbolic_sublevel_oracle(eps)
    assert value == pytest.approx(exact, abs=1e-9)
    assert err_est < 1e-8


def test_default_ladder_against_antiderivative(hyperbolic):
    values, errs = vol.sublevel_volumes(hyperbolic, vol.DEFAULT_LADDER)
    for eps, value, err in zip(vol.DEFAULT_LADDER, values, errs):
        exact = _hyperbolic_sublevel_oracle(eps)
        assert value == pytest.approx(exact, abs=1e-9)
        # the estimate brackets the error
        assert abs(value - exact) <= err


def test_each_rung_matches_its_one_rung_ladder(ads):
    """On the AdS fill a rung is a point of its radial chart (y = s to
    first order), and each of twelve gives the volume it gives alone."""
    ladder = 0.3 * 0.78 ** np.arange(12)
    values, _ = vol.sublevel_volumes(ads, ladder)
    for eps, value in zip(ladder, values):
        (alone,), _ = vol.sublevel_volumes(ads, [eps])
        assert value == pytest.approx(alone, rel=1e-12)


def test_sublevel_volumes_are_deterministic(ads):
    first = vol.sublevel_volumes(ads, vol.DEFAULT_LADDER)
    again = vol.sublevel_volumes(ads, vol.DEFAULT_LADDER)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_sublevel_volumes_refuse_what_the_grid_cannot_resolve(hyperbolic):
    with pytest.raises(DomainError, match="eps must lie"):
        vol.sublevel_volumes(hyperbolic, [0.1, hyperbolic.s_max])
    # a density with a square-root kink at s = 1, off every breakpoint:
    # the halved panels and the whole ones disagree there
    kinked = models.hyperbolic()
    kinked.density = lambda s: 1.0 + np.sqrt(np.abs(s - 1.0))
    with pytest.raises(QuadratureTolerance, match="did not reach"):
        vol.sublevel_volumes(kinked, vol.DEFAULT_LADDER)
    # and a density that is not a number somewhere
    broken = models.hyperbolic()
    broken.density = lambda s: np.where(s > 1.5, np.nan, 1.0)
    with pytest.raises(QuadratureTolerance, match="did not reach"):
        vol.sublevel_volumes(broken, vol.DEFAULT_LADDER)


@pytest.mark.parametrize("m", [3.0, 5.0])
def test_deep_ads_ladder(m):
    """Twelve chart rungs of 0.3 * 0.78^k, at the eps = s(y) read
    forward, reach the definitional V to 1e-6, with no invalid value
    met on the way."""
    exact = models.exact_reference("ads_schwarzschild", "renormalized_volume", m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = vol.fit_renormalized_volume(models.ads_schwarzschild(m=m),
                                          ladder=0.3 * 0.78 ** np.arange(12))
    assert abs(fit.V - exact) <= 1e-6


def test_no_panel_next_to_the_tip():
    """Graded plainly from 0.01321, the grid at m = 3 would close with a
    panel 7e-4 wide, whose nodes reach where the warp is not a number."""
    fg = models.ads_schwarzschild(m=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vol.sublevel_volumes(fg, (0.4, 0.3, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01321))


def test_volume_fit_reads_the_density_once(ads, monkeypatch):
    points = []
    density = FGMetric.density

    def counted(self, s):
        points.append(np.size(s))
        return density(self, s)

    monkeypatch.setattr(FGMetric, "density", counted)
    vol.fit_renormalized_volume(ads)
    assert len(points) == 1 and points[0] <= 800


@pytest.mark.parametrize("fg", [lambda: models.hyperbolic(boundary_radius=0.9),
                                lambda: models.hyperbolic(boundary_radius=1.3),
                                lambda: models.ads_schwarzschild(m=1.0)])
def test_no_rung_estimate_claims_exactness(fg):
    fit = vol.fit_renormalized_volume(fg())
    assert np.all(fit.quadrature_errors > 0)


def test_hyperbolic_volume_fit(hyp_fit):
    assert abs(hyp_fit.V - 4 * np.pi ** 2 / 3) < 1e-6
    assert abs(hyp_fit.c0 - 2 * np.pi ** 2 / 3) < 1e-6
    assert abs(hyp_fit.c2 + 1.5 * np.pi ** 2) < 1e-6
    assert hyp_fit.residual < 1e-9
    assert hyp_fit.condition_number < 1e4
    assert hyp_fit.stability_change < 1e-6
    assert hyp_fit.boundary_volume == pytest.approx(2 * np.pi ** 2, rel=1e-13)
    # c0 must reproduce bvol / n
    assert hyp_fit.c0 == pytest.approx(hyp_fit.boundary_volume / 3.0, abs=1e-9)


def test_boundary_rescaling_leaves_volume_invariant():
    """Doubling the boundary radius scales c0, c2 but not V."""
    lam = 2.0
    fit = vol.fit_renormalized_volume(models.hyperbolic(boundary_radius=lam))
    assert abs(fit.V - 4 * np.pi ** 2 / 3) < 1e-6
    assert fit.c0 == pytest.approx(2 * np.pi ** 2 * lam ** 3 / 3, abs=1e-8)
    assert fit.c2 == pytest.approx(-1.5 * np.pi ** 2 * lam, abs=1e-8)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_ads_volume_against_definitional_volume(m):
    """The fit against V = (4 pi beta / 3)(r+ - m), the reference's value
    from the definition of V, apart from Anderson's identity."""
    exact = models.exact_reference("ads_schwarzschild", "renormalized_volume", m=m)
    fit = vol.fit_renormalized_volume(models.ads_schwarzschild(m=m))
    assert abs(fit.V - exact) <= 1e-5
    assert fit.stability_change <= 1e-5


@pytest.mark.parametrize("lam", [0.7, 1.0, 1.5])
def test_hyperbolic_volume_across_boundary_radii(lam):
    fit = vol.fit_renormalized_volume(models.hyperbolic(boundary_radius=lam))
    assert abs(fit.V - 4 * np.pi ** 2 / 3) <= 1e-9


def test_fit_ladder_synthetic_exactness():
    eps = np.asarray(vol.DEFAULT_LADDER)
    c0t, c2t, vt, t1, t2 = 3.7, -1.9, 0.83, 0.41, -0.22
    vals = c0t * eps ** -3.0 + c2t / eps + vt + t1 * eps + t2 * eps ** 2
    bvol = 3 * c0t
    fit = vol.fit_ladder(eps, vals, boundary_volume=bvol,
                         scalar_curvature=-8 * c2t / bvol)
    assert abs(fit.c0 - c0t) < 1e-12
    assert abs(fit.c2 - c2t) < 1e-10
    assert abs(fit.V - vt) < 1e-9
    assert fit.tail_coefficients[1] == pytest.approx(t1, abs=1e-8)
    assert fit.tail_coefficients[2] == pytest.approx(t2, abs=1e-8)
    assert fit.tail_coefficients[3] == pytest.approx(0.0, abs=1e-7)


def test_non_einstein_family_trips_stability_gate(perturbed):
    # the density has an odd cubic term, so the even basis cannot settle
    with pytest.raises(UnstableFit, match="largest rung"):
        vol.fit_renormalized_volume(perturbed)


def test_ladder_validation():
    hyp = models.hyperbolic()
    with pytest.raises(DomainError, match="basis needs"):
        vol.fit_renormalized_volume(hyp, ladder=np.asarray([0.2, 0.15, 0.1, 0.07]))
    with pytest.raises(DomainError, match="strictly decreasing"):
        vol.fit_renormalized_volume(hyp, ladder=np.asarray([0.2, 0.25, 0.15, 0.1, 0.07]))
    with pytest.raises(DomainError, match="decade"):
        vol.fit_renormalized_volume(hyp, ladder=np.asarray([0.2, 0.19, 0.18, 0.17, 0.16]))
    with pytest.raises(DomainError, match="basis needs"):
        vol.fit_renormalized_volume(hyp, ladder=np.asarray([0.3, 0.2, 0.1, 0.05, 0.02]))
    with pytest.raises(FitConditioning):
        vol.fit_renormalized_volume(
            hyp, ladder=np.asarray([0.3, 0.29999, 0.29998, 0.29997, 0.029997, 0.0299]))


def test_short_user_ladder_still_accurate(hyperbolic):
    # three rungs continued geometrically at ratio 0.7 to eight
    rungs = np.asarray([0.2, 0.1, 0.05, 0.035, 0.0245, 0.01715, 0.012005,
                        0.0084035])
    fit = vol.fit_renormalized_volume(hyperbolic, ladder=rungs)
    assert abs(fit.V - 4 * np.pi ** 2 / 3) < 1e-6


def test_write_volume_table(hyp_fit, tmp_path):
    path = tmp_path / "volumes.csv"
    vol.write_volume_table(hyp_fit, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    body = [ln for ln in lines if not ln.startswith("#")]
    header, *rows = body
    assert header.split(",")[0] == "epsilon"
    assert len(rows) == hyp_fit.epsilons.size
    eps0, vol0 = (float(x) for x in rows[0].split(",")[:2])
    assert eps0 == hyp_fit.epsilons[0]
    assert vol0 == pytest.approx(hyp_fit.volumes[0], rel=1e-12)

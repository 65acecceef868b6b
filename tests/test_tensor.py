import numpy as np
import pytest
import sympy as sp

from ccegeom import models, tensor
from ccegeom.errors import DomainError, SingularMetric
from ccegeom.tensor import (
    CentralDifference,
    Chart,
    MetricField,
    ScalarField,
    christoffel,
    conformal_rescale,
    curvature,
    einstein_residual,
    riemann_symmetry_residuals,
    tensor_norm_sq,
)
from ccegeom.integrals import integrate_curvature

_CHART = Chart(("x1", "x2", "x3", "x4"), (-1.0,) * 4, (1.0,) * 4)


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


@pytest.fixture(scope="module")
def warped():
    coords, g = _warped_test_metric()
    return coords, g, MetricField.from_sympy(coords, g, _CHART, name="warped-test")


def test_christoffel_against_symbolic_oracle(warped):
    coords, g, field = warped
    # independent derivation: Gamma^k_ij = g^{kl}(d_i g_lj + d_j g_li - d_l g_ij)/2
    ginv = g.inv()
    d = 4
    gamma_exprs = [[[sum(ginv[k, l] * (sp.diff(g[l, j], coords[i])
                                       + sp.diff(g[l, i], coords[j])
                                       - sp.diff(g[i, j], coords[l]))
                         for l in range(d)) / 2
                     for j in range(d)] for i in range(d)] for k in range(d)]
    oracle = sp.lambdify(coords, gamma_exprs, "numpy")
    pts = _CHART.sample(6, seed=3)
    got = christoffel(field, pts)
    for p, gam in zip(pts, got):
        want = np.asarray(oracle(*p), dtype=float)
        assert np.max(np.abs(gam - want)) < 1e-11


def test_round_sphere_riemann_is_constant_curvature():
    mdl = models.build("round_sphere")
    pts = mdl.field.chart.sample(4, seed=1)
    pack = curvature(mdl.field, pts)
    g = pack.metric
    # unit sphere, sectional curvature one: R_ijkl = g_ik g_jl - g_il g_jk
    want = (np.einsum("nik,njl->nijkl", g, g)
            - np.einsum("nil,njk->nijkl", g, g))
    assert np.max(np.abs(pack.riemann - want)) < 1e-9
    assert np.max(np.abs(pack.scalar - 12.0)) < 1e-10
    assert np.max(np.abs(pack.ricci - 3.0 * g)) < 1e-10
    assert np.max(np.abs(pack.sigma2 - 6.0)) < 1e-10
    assert pack.norms["weyl_sq"].max() < 1e-18


def test_fubini_study_goldens():
    mdl = models.build("fubini_study")
    pts = mdl.field.chart.sample(5, seed=2)
    pack = curvature(mdl.field, pts, orientation=mdl.orientation)
    assert np.max(np.abs(pack.scalar - 24.0)) < 1e-9
    assert np.max(np.abs(pack.norms["weyl_plus_sq"] - 96.0)) < 1e-7
    assert np.max(np.abs(pack.norms["weyl_minus_sq"])) < 1e-7
    assert np.max(np.abs(pack.sigma2 - 24.0)) < 1e-8
    assert np.max(np.abs(pack.norms["traceless_ricci_sq"])) < 1e-8


def test_product_spheres_goldens():
    mdl = models.build("product_spheres")
    pts = mdl.field.chart.sample(5, seed=4)
    pack = curvature(mdl.field, pts)
    assert np.max(np.abs(pack.norms["weyl_sq"] - 16.0 / 3.0)) < 1e-9
    assert np.max(np.abs(pack.sigma2 - 2.0 / 3.0)) < 1e-10
    # half the Weyl energy in each dual half
    assert np.max(np.abs(pack.norms["weyl_plus_sq"] - 8.0 / 3.0)) < 1e-9


def test_flat_torus_everything_vanishes():
    mdl = models.build("flat_torus")
    pts = mdl.field.chart.sample(3, seed=5)
    pack = curvature(mdl.field, pts)
    assert np.max(np.abs(pack.riemann)) == 0.0
    assert np.max(np.abs(christoffel(mdl.field, pts))) == 0.0


def test_riemann_symmetries_and_corruption(warped):
    _, _, field = warped
    pts = _CHART.sample(4, seed=6)
    pack = curvature(field, pts)
    res = riemann_symmetry_residuals(pack.riemann)
    assert max(res.values()) < 1e-10
    bad = np.array(pack.riemann, copy=True)
    bad[..., 0, 1, 0, 1] *= -1.0
    res_bad = riemann_symmetry_residuals(bad)
    assert res_bad["first_pair"] > 1e-3
    assert res_bad["first_bianchi"] > 1e-3
    with pytest.raises(ValueError):
        riemann_symmetry_residuals(np.zeros((4, 4, 3, 4)))


def test_weyl_trace_free(warped):
    _, _, field = warped
    pts = _CHART.sample(4, seed=7)
    pack = curvature(field, pts)
    trace = np.einsum("nik,nijkl->njl", pack.inverse, pack.weyl)
    assert np.max(np.abs(trace)) < 1e-9


def test_weyl_split_energies(warped):
    _, _, field = warped
    pts = _CHART.sample(4, seed=8)
    pack = curvature(field, pts)
    total = pack.norms["weyl_plus_sq"] + pack.norms["weyl_minus_sq"]
    assert total == pytest.approx(pack.norms["weyl_sq"], rel=1e-10, abs=1e-12)
    assert np.max(np.abs(pack.weyl_plus + pack.weyl_minus - pack.weyl)) < 1e-10
    # the halves are orthogonal
    cross = tensor_norm_sq(pack.weyl, pack.inverse) - tensor_norm_sq(
        pack.weyl_plus, pack.inverse) - tensor_norm_sq(pack.weyl_minus, pack.inverse)
    assert np.max(np.abs(cross)) < 1e-9


def test_sigma2_dual_formula(warped):
    # sigma2 as stored (R^2/24 - |E|^2/2) equals 2((tr P)^2 - |P|^2)
    # with P the Schouten tensor (Ric - R/6 g)/2
    _, _, field = warped
    pts = _CHART.sample(5, seed=9)
    pack = curvature(field, pts)
    p = 0.5 * pack.schouten
    tr = np.einsum("nij,nij->n", pack.inverse, p)
    psq = tensor_norm_sq(p, pack.inverse)
    assert np.max(np.abs(pack.sigma2 - 2.0 * (tr**2 - psq))) < 1e-10


def test_conformal_covariance_pointwise(warped):
    coords, _, field = warped
    x1, x2, x3, x4 = coords
    w = ScalarField.from_sympy(coords, sp.sin(x1) / 5 + x2 * x4 / 7)
    rescaled = conformal_rescale(field, w)
    pts = _CHART.sample(5, seed=10)
    base = curvature(field, pts)
    tilt = curvature(rescaled, pts)
    factor = np.exp(-4.0 * np.asarray(w.value(pts)))
    # |W|^2 is conformally covariant of weight -4 pointwise
    assert np.max(np.abs(tilt.norms["weyl_sq"]
                         - factor * base.norms["weyl_sq"])) < 1e-8
    # and the lowered Weyl tensor scales like the metric
    scale = np.exp(2.0 * np.asarray(w.value(pts)))[:, None, None, None, None]
    assert np.max(np.abs(tilt.weyl - scale * base.weyl)) < 1e-8


def test_orientation_swap(warped):
    _, _, field = warped
    pts = _CHART.sample(3, seed=11)
    plus = curvature(field, pts, orientation=1)
    minus = curvature(field, pts, orientation=-1)
    assert np.max(np.abs(plus.weyl_plus - minus.weyl_minus)) < 1e-12
    assert np.max(np.abs(plus.weyl_minus - minus.weyl_plus)) < 1e-12
    with pytest.raises(ValueError):
        curvature(field, pts, orientation=0)


def test_finite_difference_agrees_with_analytic(warped):
    _, _, field = warped
    fd = field.with_scheme(CentralDifference(step=1e-4, levels=3))
    assert not fd.analytic and field.analytic
    pts = _CHART.sample(3, seed=12) * 0.8
    assert np.max(np.abs(fd.dg(pts) - field.dg(pts))) < 1e-9
    assert np.max(np.abs(fd.d2g(pts) - field.d2g(pts))) < 5e-6
    pack_a = curvature(field, pts)
    pack_f = curvature(fd, pts)
    assert np.max(np.abs(pack_a.scalar - pack_f.scalar)) < 1e-5


def test_einstein_residual(hyperbolic):
    pts = np.column_stack([np.linspace(0.1, 1.5, 5),
                           np.full(5, 1.1), np.full(5, 1.2), np.full(5, 2.0)])
    res = einstein_residual(hyperbolic.four_metric(s_floor=0.05), pts)
    assert np.max(res) < 1e-9
    # the round sphere has Ric = +3g, nowhere near Ric = -3g
    mdl = models.build("round_sphere")
    res2 = einstein_residual(mdl.field, mdl.field.chart.sample(3, seed=13))
    assert np.min(res2) > 1.0


def test_error_paths():
    bad_sym = MetricField(_CHART, lambda p: np.tile(
        np.array([[1.0, 0.5, 0, 0], [0.4, 1.0, 0, 0],
                  [0, 0, 1.0, 0], [0, 0, 0, 1.0]]), (p.shape[0], 1, 1)))
    with pytest.raises(SingularMetric, match="not symmetric"):
        bad_sym.g(np.zeros(4))
    indefinite = MetricField(_CHART, lambda p: np.tile(
        np.diag([1.0, -1.0, 1.0, 1.0]), (p.shape[0], 1, 1)))
    with pytest.raises(SingularMetric, match="minor"):
        indefinite.g(np.zeros(4))
    # only the second point fails, in its leading 3x3 block
    mixed = MetricField(_CHART, lambda p: np.stack(
        [np.diag([1.0, 1.0, 1.0 - 4 * x[3], 1.0]) for x in p]))
    with pytest.raises(SingularMetric, match=r"leading 3x3 minor .* 0\.5\]"):
        mixed.g(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]]))
    flat = MetricField(_CHART, lambda p: np.tile(np.eye(4), (p.shape[0], 1, 1)))
    with pytest.raises(DomainError):
        flat.g(np.array([0.0, 0.0, 0.0, 5.0]))
    with pytest.raises(DomainError):
        flat.g(np.zeros(3))
    # curvature itself is dimension agnostic; the split quantities are 4-d only
    flat2 = MetricField(Chart(("a", "b"), (0, 0), (1, 1)),
                        lambda p: np.tile(np.eye(2), (p.shape[0], 1, 1)))
    pack2 = curvature(flat2, np.array([0.5, 0.5]))
    assert abs(pack2.scalar) < 1e-12
    assert pack2.weyl_plus is None
    assert "weyl_plus_sq" not in pack2.norms


@pytest.mark.parametrize("orientation", [1, -1])
def test_frame_weyl_norms_match_coordinate_norms(warped, orientation):
    # pins the factor 4 of the pair-basis Frobenius norm and the frame lift
    _, _, field = warped
    pack = curvature(field, _CHART.sample(6, seed=14), orientation=orientation)
    for name, weyl in (("weyl_sq", pack.weyl), ("weyl_plus_sq", pack.weyl_plus),
                       ("weyl_minus_sq", pack.weyl_minus)):
        assert pack.norms[name] == pytest.approx(
            tensor_norm_sq(weyl, pack.inverse), rel=1e-10)


def test_single_point_weyl_views(warped):
    _, _, field = warped
    pts = _CHART.sample(3, seed=15)
    batch = curvature(field, pts)
    single = curvature(field, pts[1])
    assert single.weyl_plus.shape == (4, 4, 4, 4)
    assert np.max(np.abs(single.weyl_plus - batch.weyl_plus[1])) < 1e-12


def test_integrator_builds_no_rank4_weyl(monkeypatch, sphere_suite):
    def forbidden(*args):
        raise AssertionError("rank-4 Weyl tensor built")

    monkeypatch.setattr(tensor, "_kulkarni_nomizu", forbidden)
    monkeypatch.setattr(tensor, "_frame_lift", forbidden)
    mdl, reference = sphere_suite
    suite = integrate_curvature(mdl.field, mdl.domain, orientation=mdl.orientation)
    assert suite.weyl_energy == reference.weyl_energy
    assert suite.volume == pytest.approx(8 * np.pi**2 / 3, rel=1e-10)


def test_non_finite_component_raises_singular_metric():
    field = MetricField(Chart(("a", "b"), (0, 0), (1, 1)), lambda p: np.stack(
        [[[np.nan if x[0] > 0.5 else 1.0, 0.0], [0.0, 1.0]] for x in p]))
    assert np.array_equal(field.g(np.array([0.25, 0.5])), np.eye(2))
    with pytest.raises(SingularMetric, match=r"not finite at point \[0\.75 0\.5 \]"):
        field.g(np.array([[0.25, 0.5], [0.75, 0.5]]))

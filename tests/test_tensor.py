import itertools

import numpy as np
import pytest
import sympy as sp

from ccegeom import cli, models, tensor
from ccegeom.autodiff import cos, diag, sin
from ccegeom.eigenfunction import compactified_metric_field
from ccegeom.errors import DomainError, SingularMetric
from ccegeom.tensor import (
    Chart,
    MetricField,
    conformal_rescale,
    curvature,
    einstein_residual,
    riemann_symmetry_residuals,
)
from ccegeom.integrals import integrate_curvature

_CHART = Chart(("x1", "x2", "x3", "x4"), (-1.0,) * 4, (1.0,) * 4)


def _central_differences(g, pts, h=1e-4):
    """dg and d2g of the component closure g at pts: central differences
    at steps h, h/2 and h/4, Richardson-extrapolated in even powers."""
    d = pts.shape[1]
    g0 = g(pts)
    levels = []
    for step in (h, h / 2, h / 4):
        e = step * np.eye(d)
        plus, minus = [g(pts + e[k]) for k in range(d)], [g(pts - e[k]) for k in range(d)]
        first = np.stack([(plus[k] - minus[k]) / (2 * step) for k in range(d)], axis=1)
        second = np.empty(first.shape[:2] + first.shape[1:])
        for k in range(d):
            second[:, k, k] = (plus[k] - 2 * g0 + minus[k]) / step**2
            for l in range(k):
                second[:, k, l] = second[:, l, k] = (
                    g(pts + e[k] + e[l]) - g(pts + e[k] - e[l])
                    - g(pts - e[k] + e[l]) + g(pts - e[k] - e[l])) / (4 * step**2)
        levels.append((first, second))
    out = []
    for rows in zip(*levels):
        fac = 4.0
        while len(rows) > 1:
            rows = [(fac * fine - coarse) / (fac - 1) for coarse, fine in zip(rows, rows[1:])]
            fac *= 4.0
        out.append(rows[0])
    return out


def _norm_sq(t, ginv):
    """Squared norm of a lowered rank-2 or rank-4 tensor, every index
    raised with ginv."""
    if t.ndim == 3:
        return np.einsum("nij,nia,njb,nab->n", t, ginv, ginv, t, optimize=True)
    return np.einsum("nijkl,nia,njb,nkc,nld,nabcd->n", t, ginv, ginv, ginv, ginv, t,
                     optimize=True)


def _kulkarni_nomizu(h, k):
    # h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il
    s = np.einsum("nik,njl->nijkl", h, k) + np.einsum("njl,nik->nijkl", h, k)
    return s - np.swapaxes(s, -1, -2)


# the permutation symbol in dimension 4
_LEVI_CIVITA = np.zeros((4,) * 4)
for _perm in itertools.permutations(range(4)):
    _LEVI_CIVITA[_perm] = round(np.linalg.det(np.eye(4)[list(_perm)]))


class _Oracle:
    """The coordinate tensors of a 4-d curvature packet, built from its
    metric, riemann and ricci alone, so that they share no code with the
    kernel's frame readout: the inverse by np.linalg.inv, the Schouten
    form Ric - (R/6) g, W by the Kulkarni-Nomizu decomposition
    Rm = W + (Ric - (R/6) g) o g / 2, and W+- = (W +- *W)/2 with the Hodge
    star of the volume form sqrt(det g) eps_ijkl times the orientation."""

    def __init__(self, pack, orientation=1):
        g = pack.metric
        self.inverse = np.linalg.inv(g)
        scalar = np.einsum("nij,nij->n", self.inverse, pack.ricci)
        self.schouten = pack.ricci - (scalar / 6.0)[:, None, None] * g
        self.weyl = pack.riemann - _kulkarni_nomizu(self.schouten, g) / 2.0
        # (*W)_ijkl = W_ij^pq vol_pqkl / 2
        vol = orientation * np.sqrt(np.linalg.det(g))[:, None, None, None, None] * _LEVI_CIVITA
        star = 0.5 * np.einsum("nijab,nap,nbq,npqkl->nijkl", self.weyl, self.inverse,
                               self.inverse, vol, optimize=True)
        self.weyl_plus = 0.5 * (self.weyl + star)
        self.weyl_minus = 0.5 * (self.weyl - star)


def _bare(func):
    """A jet of the component closure func with zero derivatives, for
    fields that only the screens of g read."""
    def jet(pts):
        g = func(pts)
        n, d = g.shape[:2]
        return g, np.zeros((n, d, d, d)), np.zeros((n, d, d, d, d))
    return jet


def test_jet_first_derivatives_against_symbolic_oracle(warped):
    coords, g, field = warped
    # independent derivation: dg[k, i, j] = d g_ij / dx^k differentiated by sympy
    d = 4
    oracle = sp.lambdify(coords, [[[sp.diff(g[i, j], coords[k]) for j in range(d)]
                                   for i in range(d)] for k in range(d)], "numpy")
    pts = _CHART.sample(6, seed=3)
    got = field.jet(pts)[1]
    for p, dg in zip(pts, got):
        assert np.max(np.abs(dg - np.asarray(oracle(*p), dtype=float))) < 1e-11


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
    assert np.max(np.abs(mdl.field.dg(pts))) == 0.0


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
    oracle = _Oracle(curvature(field, pts))
    trace = np.einsum("nik,nijkl->njl", oracle.inverse, oracle.weyl)
    assert np.max(np.abs(trace)) < 1e-9


def test_weyl_split_energies(warped):
    _, _, field = warped
    pts = _CHART.sample(4, seed=8)
    pack = curvature(field, pts)
    total = pack.norms["weyl_plus_sq"] + pack.norms["weyl_minus_sq"]
    assert total == pytest.approx(pack.norms["weyl_sq"], rel=1e-10, abs=1e-12)
    oracle = _Oracle(pack)
    assert np.max(np.abs(oracle.weyl_plus + oracle.weyl_minus - oracle.weyl)) < 1e-10
    # the halves are orthogonal
    cross = _norm_sq(oracle.weyl, oracle.inverse) - _norm_sq(
        oracle.weyl_plus, oracle.inverse) - _norm_sq(oracle.weyl_minus, oracle.inverse)
    assert np.max(np.abs(cross)) < 1e-9


def test_sigma2_dual_formula(warped):
    # sigma2 as stored (R^2/24 - |E|^2/2) equals 2((tr P)^2 - |P|^2)
    # with P the Schouten tensor (Ric - R/6 g)/2
    _, _, field = warped
    pts = _CHART.sample(5, seed=9)
    pack = curvature(field, pts)
    oracle = _Oracle(pack)
    p = 0.5 * oracle.schouten
    tr = np.einsum("nij,nij->n", oracle.inverse, p)
    psq = _norm_sq(p, oracle.inverse)
    assert np.max(np.abs(pack.sigma2 - 2.0 * (tr**2 - psq))) < 1e-10


def test_conformal_covariance_pointwise(warped):
    _, _, field = warped

    def w(x1, x2, x4):
        return sin(x1) / 5 + x2 * x4 / 7

    rescaled = conformal_rescale(field, w)
    pts = _CHART.sample(5, seed=10)
    base = curvature(field, pts)
    tilt = curvature(rescaled, pts)
    w_value = w(pts[:, 0], pts[:, 1], pts[:, 3])
    factor = np.exp(-4.0 * w_value)
    # |W|^2 is conformally covariant of weight -4 pointwise
    assert np.max(np.abs(tilt.norms["weyl_sq"]
                         - factor * base.norms["weyl_sq"])) < 1e-8
    # and the lowered Weyl tensor scales like the metric
    scale = np.exp(2.0 * w_value)[:, None, None, None, None]
    assert np.max(np.abs(_Oracle(tilt).weyl - scale * _Oracle(base).weyl)) < 1e-8


def test_orientation_swap(warped):
    _, _, field = warped
    pts = _CHART.sample(3, seed=11)
    plus = curvature(field, pts, orientation=1)
    minus = curvature(field, pts, orientation=-1)
    assert np.array_equal(plus.norms["weyl_plus_sq"], minus.norms["weyl_minus_sq"])
    assert np.array_equal(plus.norms["weyl_minus_sq"], minus.norms["weyl_plus_sq"])
    with pytest.raises(ValueError):
        curvature(field, pts, orientation=0)


def test_finite_difference_agrees_with_analytic(warped):
    _, _, field = warped
    fd = MetricField(_CHART, lambda p: (field.g(p), *_central_differences(field.g, p)))
    pts = _CHART.sample(3, seed=12) * 0.8
    assert np.max(np.abs(fd.dg(pts) - field.dg(pts))) < 1e-9
    assert np.max(np.abs(fd.d2g(pts) - field.d2g(pts))) < 5e-6
    pack_a = curvature(field, pts)
    pack_f = curvature(fd, pts)
    assert np.max(np.abs(pack_a.scalar - pack_f.scalar)) < 1e-5


def _conformal_product_spheres():
    base = models.build("product_spheres").field
    return conformal_rescale(base, cli._conformal_factor(0.083, -0.094, 0.385, 3, 3))


# composite fields, whose component functions call their parts' functions,
# each built from the fixtures it names
_COMPOSED = {
    "conformal-product-spheres": lambda fixture: _conformal_product_spheres(),
    "conformal-fubini-study": lambda fixture: fixture("conformal_fubini_study"),
    "normal-form-hyperbolic": lambda fixture: fixture("hyperbolic").four_metric(),
    "normal-form-perturbed": lambda fixture: fixture("perturbed").four_metric(),
    "normal-form-ads": lambda fixture: fixture("ads").four_metric(),
    "compactified-hyperbolic": lambda fixture: compactified_metric_field(
        fixture("hyp_solution")),
    "compactified-ads": lambda fixture: compactified_metric_field(fixture("ads_solution")),
}


@pytest.mark.parametrize("which", list(_COMPOSED))
def test_composed_jets_agree_with_finite_differences(which, request):
    field = _COMPOSED[which](request.getfixturevalue)
    pts = field.chart.sample(3, seed=12)
    dg, d2g = _central_differences(lambda p: field.g(p, check=False), pts)
    assert np.max(np.abs(dg - field.dg(pts))) < 1e-9 * max(1.0, np.max(np.abs(dg)))
    assert np.max(np.abs(d2g - field.d2g(pts))) < 5e-6 * max(1.0, np.max(np.abs(d2g)))


def test_einstein_residual(hyperbolic):
    pts = np.column_stack([np.linspace(0.1, 1.5, 5),
                           np.full(5, 1.1), np.full(5, 1.2), np.full(5, 2.0)])
    res = einstein_residual(hyperbolic.four_metric(), pts)
    assert np.max(res) < 1e-9
    # the round sphere has Ric = +3g, nowhere near Ric = -3g
    mdl = models.build("round_sphere")
    res2 = einstein_residual(mdl.field, mdl.field.chart.sample(3, seed=13))
    assert np.min(res2) > 1.0


def test_error_paths():
    bad_sym = MetricField(_CHART, _bare(lambda p: np.tile(
        np.array([[1.0, 0.5, 0, 0], [0.4, 1.0, 0, 0],
                  [0, 0, 1.0, 0], [0, 0, 0, 1.0]]), (p.shape[0], 1, 1))))
    with pytest.raises(SingularMetric, match="not symmetric"):
        bad_sym.g(np.zeros((1, 4)))
    indefinite = MetricField(_CHART, _bare(lambda p: np.tile(
        np.diag([1.0, -1.0, 1.0, 1.0]), (p.shape[0], 1, 1))))
    with pytest.raises(SingularMetric, match="minor"):
        indefinite.g(np.zeros((1, 4)))
    # only the second point fails, in its leading 3x3 block
    mixed = MetricField(_CHART, _bare(lambda p: np.stack(
        [np.diag([1.0, 1.0, 1.0 - 4 * x[3], 1.0]) for x in p])))
    with pytest.raises(SingularMetric, match=r"leading 3x3 minor .* 0\.5\]"):
        mixed.g(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]]))
    flat = MetricField(_CHART, _bare(lambda p: np.tile(np.eye(4), (p.shape[0], 1, 1))))
    with pytest.raises(DomainError):
        flat.g(np.array([[0.0, 0.0, 0.0, 5.0]]))
    with pytest.raises(DomainError):
        flat.g(np.zeros(3))
    with pytest.raises(DomainError, match=r"\(1, 3\)"):
        flat.g(np.zeros((1, 3)))
    # curvature itself is dimension agnostic; the split quantities are 4-d only
    flat2 = MetricField(Chart(("a", "b"), (0, 0), (1, 1)),
                        _bare(lambda p: np.tile(np.eye(2), (p.shape[0], 1, 1))))
    pack2 = curvature(flat2, np.array([[0.5, 0.5]]))
    assert np.max(np.abs(pack2.scalar)) < 1e-12
    assert "weyl_plus_sq" not in pack2.norms
    # a jet function names chart coordinates; any other name is refused
    with pytest.raises(DomainError, match=r"\['zz'\] are not coordinates"):
        MetricField.from_function(_CHART, lambda zz: diag(1.0, 1.0, 1.0, 1.0 + zz ** 2))
    sphere = models.build("round_sphere").field
    with pytest.raises(DomainError, match=r"\['zz'\] are not coordinates"):
        conformal_rescale(sphere, lambda zz: 0.1 * sin(zz))


@pytest.mark.parametrize("orientation", [1, -1])
def test_frame_weyl_norms_match_coordinate_norms(warped, conformal_fubini_study, orientation):
    # pins the factor 4 of the pair-basis Frobenius norm and the dual
    # basis of the frame readout against the oracle's Hodge star, on a
    # dense metric and on a self-dual one with off-diagonal g_pq, where
    # one half vanishes
    for field in (warped[2], conformal_fubini_study):
        pack = curvature(field, field.chart.sample(6, seed=14), orientation=orientation)
        oracle = _Oracle(pack, orientation)
        for name in ("weyl", "weyl_plus", "weyl_minus"):
            assert pack.norms[name + "_sq"] == pytest.approx(
                _norm_sq(getattr(oracle, name), oracle.inverse), rel=1e-10, abs=1e-12), \
                (field.name, name)


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("which", ["rescaled-product-spheres", "warped"])
def test_kernel_is_layout_agnostic_bitwise(which, orientation, warped):
    # a component-built field's jet comes back as views of batch-last
    # storage; the same jet as C-contiguous batch-first arrays, as a raw
    # jet hands them over, gives the same packet bit for bit
    field = warped[2]
    if which != "warped":
        # S2 x S2 under the first of check's conformal factors
        base = models.build("product_spheres").field
        field = conformal_rescale(base, cli._conformal_factors()[0])
    dense = MetricField(field.chart, lambda p: tuple(
        np.ascontiguousarray(a) for a in field.jet(p, check=False)))
    pts = field.chart.sample(64, seed=16)
    got, want = (curvature(f, pts, orientation) for f in (field, dense))
    for name in ("scalar", "sigma2", "volume_density"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert sorted(got.norms) == ["traceless_ricci_sq", "weyl_minus_sq",
                                 "weyl_plus_sq", "weyl_sq"]
    for name in got.norms:
        assert np.array_equal(got.norms[name], want.norms[name]), name


def test_single_point_is_refused(warped):
    # a point is a one-row batch; a bare (dim,) point has no batch axis
    _, _, field = warped
    point = _CHART.sample(1, seed=15)[0]
    for call in (curvature, einstein_residual, MetricField.jet):
        with pytest.raises(DomainError, match="batch"):
            call(field, point)


def test_integrator_builds_no_rank4_riemann(monkeypatch, sphere_suite):
    calls = []
    unpair = tensor._unpair

    def counted(*args):
        calls.append(args[0].shape)
        return unpair(*args)

    monkeypatch.setattr(tensor, "_unpair", counted)
    mdl, reference = sphere_suite
    suite = integrate_curvature(mdl.field, mdl.domain, orientation=mdl.orientation)
    assert suite.weyl_energy == reference.weyl_energy
    assert suite.volume == pytest.approx(8 * np.pi**2 / 3, rel=1e-10)
    assert calls == []
    # reading the rank-4 tensor builds it, once
    pack = curvature(mdl.field, mdl.field.chart.sample(3, seed=16))
    assert pack.riemann.shape == (3, 4, 4, 4, 4) and pack.riemann is pack.riemann
    assert calls == [(3, 6, 6)]


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_round_two_sphere_pair_basis(radius):
    # P = 1: the operator is the Gauss curvature 1/r^2
    chart = Chart(("th", "ph"), (0.0, 0.0), (np.pi, 2 * np.pi))
    field = MetricField.from_function(
        chart, lambda th: diag(radius**2, radius**2 * sin(th) ** 2))
    pts = chart.sample(5, seed=17)
    pack = curvature(field, pts)
    assert np.max(np.abs(pack.scalar - 2.0 / radius**2)) < 1e-12
    assert np.max(np.abs(pack.ricci - pack.metric / radius**2)) < 1e-12
    assert np.max(np.abs(pack.volume_density - radius**2 * np.sin(pts[:, 0]))) < 1e-12
    assert pack.sigma2 is None and list(pack.norms) == ["traceless_ricci_sq"]


def test_round_three_sphere_pair_basis():
    # P = 3, unit sectional curvature
    chart = Chart(("a", "b", "c"), (0.0, 0.0, 0.0), (np.pi, np.pi, 2 * np.pi))
    field = MetricField.from_function(
        chart, lambda a, b: diag(1.0, sin(a) ** 2, sin(a) ** 2 * sin(b) ** 2))
    pack = curvature(field, chart.sample(6, seed=18))
    g = pack.metric
    want = (np.einsum("nik,njl->nijkl", g, g)
            - np.einsum("nil,njk->nijkl", g, g))
    assert np.max(np.abs(pack.riemann - want)) < 1e-12
    assert np.max(np.abs(pack.scalar - 6.0)) < 1e-12
    assert np.max(np.abs(pack.ricci - 2.0 * g)) < 1e-12
    assert np.max(pack.norms["traceless_ricci_sq"]) < 1e-24


def test_non_finite_component_raises_singular_metric():
    field = MetricField(Chart(("a", "b"), (0, 0), (1, 1)), _bare(lambda p: np.stack(
        [[[np.nan if x[0] > 0.5 else 1.0, 0.0], [0.0, 1.0]] for x in p])))
    assert np.array_equal(field.g(np.array([[0.25, 0.5]]))[0], np.eye(2))
    with pytest.raises(SingularMetric, match=r"not finite at point \[0\.75 0\.5 \]"):
        field.g(np.array([[0.25, 0.5], [0.75, 0.5]]))

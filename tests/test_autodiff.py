"""Forward-mode jets: values bitwise the numpy result, derivatives against
sympy, and field_jet's batch-first views of its batch-last storage."""

import numpy as np
import pytest
import sympy as sp

from ccegeom import autodiff
from ccegeom.autodiff import Jet, cos, exp, field_jet, log, sin, variable


def _composite(x, y, lib):
    """One expression through + - * /, powers, sin, cos, exp and log,
    reflected operators included; lib supplies the four functions."""
    a = lib.sin(x) * y + 2.5 - lib.cos(y) / (1.5 + x * x)
    b = lib.exp(0.3 * x - y) ** 2 + lib.log(2.0 + lib.sin(x * y)) ** 0.5
    return a / b - 3.0 / (1.0 + b**3) - (x - 0.25) * (1.0 - y) + (-x) ** 2


def _points(n=257, seed=7):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, (n, 2))


def test_jet_values_are_the_numpy_values_bitwise():
    pts = _points()
    x, y = pts.T
    want = _composite(x, y, np)
    # two seed directions through field_jet, and one through variable with
    # the other argument a plain array
    assert np.array_equal(field_jet(lambda x, y: _composite(x, y, autodiff), (0, 1))(pts)[0],
                          want)
    jet = _composite(variable(x), y, autodiff)
    assert isinstance(jet, Jet)
    assert np.array_equal(jet.v, want)


def test_jet_derivatives_against_sympy():
    pts = _points(33, seed=8)
    sx, sy = sp.symbols("x y", real=True)
    expr = _composite(sx, sy, sp)
    grad = [sp.diff(expr, v) for v in (sx, sy)]
    hess = [[sp.diff(gr, v) for v in (sx, sy)] for gr in grad]
    oracle = sp.lambdify((sx, sy), [grad, hess], "numpy")
    _, d, h = field_jet(lambda x, y: _composite(x, y, autodiff), (0, 1))(pts)
    for p, dn, hn in zip(pts, d, h):
        gw, hw = (np.asarray(a, dtype=float) for a in oracle(*p))
        np.testing.assert_allclose(dn, gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hn, hw, rtol=1e-11, atol=1e-11)


def test_jet_storage_is_batch_last():
    x = np.linspace(0.1, 0.9, 5)
    seed = variable(x)
    assert seed.d.shape == (1, 5) and seed.h.shape == (1, 1, 5)
    jet = exp(sin(seed) * cos(seed)) / log(2.0 + seed)
    assert jet.v.shape == (5,) and jet.d.shape == (1, 5) and jet.h.shape == (1, 1, 5)


def test_field_jet_shapes_and_views(warped):
    coords, g, field = warped
    n, d = 9, 4
    pts = field.chart.sample(n, seed=4)
    scalar = field_jet(lambda x1, x3: sin(x1) * x3, (0, 2))(pts)
    assert [a.shape for a in scalar] == [(n,), (n, d), (n, d, d)]
    jet = field.jet(pts)
    assert [a.shape for a in jet] == [(n, d, d), (n, d, d, d), (n, d, d, d, d)]
    # views of batch-last storage: the batch axis has the smallest stride
    for a in jet:
        assert a.base is not None and a.strides[0] == a.itemsize
    # dg[n, k, i, j] = d_k g_ij and d2g[n, k, l, i, j] = d_k d_l g_ij
    oracle = sp.lambdify(coords, [
        [[[sp.diff(g[i, j], coords[k]) for j in range(d)] for i in range(d)]
         for k in range(d)],
        [[[[sp.diff(g[i, j], coords[k], coords[l]) for j in range(d)] for i in range(d)]
          for l in range(d)] for k in range(d)]], "numpy")
    for p, dg, d2g in zip(pts, jet[1], jet[2]):
        want_dg, want_d2g = (np.asarray(a, dtype=float) for a in oracle(*p))
        assert np.max(np.abs(dg - want_dg)) < 1e-12
        assert np.max(np.abs(d2g - want_d2g)) < 1e-12


@pytest.mark.parametrize("func", [sin, cos, exp, log])
def test_functions_fall_through_to_numpy(func):
    x = np.linspace(0.5, 1.5, 4)
    assert np.array_equal(func(x), getattr(np, func.__name__)(x))


def test_a_jet_keeps_only_its_directions():
    seen = []

    def func(t, p, u, v):
        seen.append(sin(t) * cos(p))
        return seen[-1] + u * v

    pts = np.random.default_rng(3).uniform(0.2, 1.2, (6, 4))
    field_jet(func, (0, 1, 2, 3))(pts)
    jet = seen[0]
    assert jet.d.shape == (2, 6) and jet.h.shape == (2, 2, 6)


def _every_direction(func):
    """func with every seed made to depend on every axis: x + 0.0 * sum(x)
    has the value of x and the directions of all seeds."""
    return lambda *x: func(*(xi + 0.0 * sum(x) for xi in x))


def _quotient(t, p, u, v):
    """Jet/Jet division, log and real powers of operands whose
    directions differ, overlap or nest."""
    a = log(2.0 + sin(t) * cos(u)) / (1.5 + cos(p)) ** 0.5
    b = (3.0 + sin(t * v)) ** 1.5 / (2.0 + cos(u) * sin(p))
    return [[a / b, a * u], [b - v / (1.0 + t * t), log(b) ** -2.5]]


def _chain(t, p, u, v):
    """chain_jet whose f' jet reads a strict subset of the argument's
    directions, alone and combined with jets of other directions."""
    x, w = t * p, t * p * u
    y = x.chain_jet(np.sin(x.v), cos(t))
    return [[y, y * u], [y + sin(v) * x, w.chain_jet(np.exp(w.v), exp(p) * u)]]


def _catalogue_jets():
    """(name, chart, func, axes, shape) of every catalogue metric, of
    check's two conformal factors and of the metrics they rescale, and of
    two synthetic functions on the product chart."""
    from ccegeom import cli, models
    from ccegeom.normal_form import FGMetric
    from ccegeom.tensor import conformal_rescale

    names = models.model_names()
    fields = []
    for name in names["closed"] + names["conformally_compact"]:
        model = models.build(name)
        fields.append((name, model.four_metric() if isinstance(model, FGMetric)
                       else model.field))
    base = models.build("product_spheres").field
    for i, w in enumerate(cli._conformal_factors(base.chart)):
        yield f"factor-{i}", base.chart, w.func, w.axes, ()
        fields.append((f"rescaled-{i}", conformal_rescale(base, w)))
    for func in (_quotient, _chain):
        yield func.__name__.lstrip("_"), base.chart, func, (0, 1, 2, 3), (2, 2)
    for name, f in fields:
        yield name, f.chart, f.func, f.axes, (f.dim, f.dim)


@pytest.mark.parametrize("name, chart, func, axes, shape", list(_catalogue_jets()),
                         ids=[case[0] for case in _catalogue_jets()])
def test_field_jet_equals_the_jet_in_every_direction(name, chart, func, axes, shape):
    """Each component carries only the directions it reads, and its value,
    gradient and Hessian equal those of a seeding where every component
    depends on every axis, bit for bit (zeros of either sign alike)."""
    pts = chart.sample(23, seed=9)
    sparse = field_jet(func, axes, shape)(pts)
    dense = field_jet(_every_direction(func), axes, shape)(pts)
    for got, want in zip(sparse, dense):
        assert np.array_equal(got, want)

import numpy as np
import pytest

from ccegeom import models, quadrature
from ccegeom.quadrature import (
    gauss_legendre_rule,
    geometric_panels,
    kronrod_rule,
    one_point_rule,
    panel_sums,
    periodic_rule,
    polar_rule,
    product_rule,
)
from ccegeom.volume import fit_renormalized_volume


def test_polynomial_exactness():
    # order-k Gauss integrates degree 2k-1 exactly
    for order in (2, 5, 8):
        coeffs = np.arange(1.0, 2 * order + 1)

        def f(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        exact = sum(c * (3.0 ** (k + 1) - 1.0) / (k + 1)
                    for k, c in enumerate(coeffs))
        nodes, weights = gauss_legendre_rule(1.0, 3.0, panels=1, order=order)
        assert float(np.dot(weights, f(nodes))) == pytest.approx(exact, rel=1e-14)


def test_weights_positive_and_sum_to_length():
    nodes, weights = gauss_legendre_rule(0.0, 2.0, panels=4, order=6)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.0 and nodes[-1] < 2.0


def test_breakpoint_panels():
    edges = np.array([0.0, 0.1, 0.5, 1.0])
    nodes, weights = gauss_legendre_rule(0.0, 1.0, panels=edges, order=4)
    assert nodes.size == 3 * 4
    assert weights.sum() == pytest.approx(1.0, rel=1e-15)


def test_geometric_panels_grading():
    edges = geometric_panels(1e-3, 1.0, ratio=2.0)
    assert edges[0] == 1e-3 and edges[-1] == 1.0
    widths = np.diff(edges)
    # widths grow away from the left endpoint until the final closing panel
    assert np.all(np.diff(widths[:-1]) > 0)
    # no sliver closes the grid
    for a in np.geomspace(1e-3, 0.1, 200):
        widths = np.diff(geometric_panels(a, 0.9))
        assert widths[-1] >= 0.5 * widths[-2]
    with pytest.raises(ValueError):
        geometric_panels(0.0, 1.0)


def test_panel_sums_are_per_panel_rules():
    edges = np.array([0.2, 0.25, 0.9, 1.7])
    seen = []

    def f(x):
        seen.append(x.shape)
        return np.exp(-x) * np.sin(7 * x)

    sums = panel_sums(edges[:-1], edges[1:], f, 16)
    # f sees one flat array of every panel's nodes
    assert seen == [(3 * 16,)]
    for i, got in enumerate(sums):
        nodes, weights = gauss_legendre_rule(edges[i], edges[i + 1], 1, 16)
        assert got == pytest.approx(float(np.dot(weights, f(nodes))), rel=1e-15)
        # a panel's sum does not depend on the panels called with it
        assert panel_sums(edges[i:i + 1], edges[i + 1:i + 2], f, 16)[0] == got


def test_product_rule_box_volume():
    pts, wts, comp = product_rule([kronrod_rule(0.0, 1.0, 2),
                                   periodic_rule(0.0, 2.0),
                                   kronrod_rule(0.0, 3.0, 1),
                                   one_point_rule(0.0, 0.5)])
    assert pts.shape == (2 * 15 * 8 * 15 * 1, 4)
    assert wts.shape == comp.shape == (pts.shape[0],)
    for w in (wts, comp):
        assert w.sum() == pytest.approx(1.0 * 2.0 * 3.0 * 0.5, rel=1e-14)
    # the companion lives on a subset of the nodes: Gauss-7 on the
    # Kronrod axes, every other node on the periodic one
    assert np.count_nonzero(comp) == 2 * 7 * 4 * 7 * 1
    # separable integrand, polynomial on the bounded axes
    for w in (wts, comp):
        val = float(np.dot(w, pts[:, 0] * pts[:, 2] ** 2))
        assert val == pytest.approx(0.5 * 2.0 * 9.0 * 0.5, rel=1e-13)


_NESTED = {
    "kronrod": lambda a, b: kronrod_rule(a, b, 1),
    "kronrod-panels": lambda a, b: kronrod_rule(a, b, np.array([a, a + 0.3, b])),
    "periodic": lambda a, b: periodic_rule(a, b),
    "periodic-panels": lambda a, b: periodic_rule(a, b, 3),
    "one-point": one_point_rule,
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nested_rules_integrate_constants(kind):
    nodes, weights, companion = _NESTED[kind](0.4, 2.9)
    assert nodes.shape == weights.shape == companion.shape
    assert np.all((nodes > 0.4) & (nodes < 2.9))
    assert np.all(weights > 0) and np.all(companion >= 0)
    assert weights.sum() == pytest.approx(2.5, rel=1e-14)
    assert companion.sum() == pytest.approx(2.5, rel=1e-14)


def _monomial_error(weights, nodes, degree, a, b):
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    return abs(float(np.dot(weights, nodes ** degree)) - exact)


def test_kronrod_exactness_degrees():
    # Kronrod-15 is exact to degree 23, its Gauss-7 companion to 13
    nodes, weights, companion = kronrod_rule(-1.0, 1.0, 1)
    for degree in range(24):
        assert _monomial_error(weights, nodes, degree, -1.0, 1.0) < 1e-14, degree
    for degree in range(14):
        assert _monomial_error(companion, nodes, degree, -1.0, 1.0) < 1e-14, degree
    assert _monomial_error(weights, nodes, 24, -1.0, 1.0) > 1e-10
    assert _monomial_error(companion, nodes, 14, -1.0, 1.0) > 1e-6
    # the companion is Gauss-Legendre of order 7 on the odd nodes
    x, w = gauss_legendre_rule(-1.0, 1.0, 1, 7)
    np.testing.assert_allclose(nodes[1::2], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(companion[1::2], w, rtol=0, atol=1e-15)
    assert not np.any(companion[0::2])


def test_periodic_exactness_degrees():
    # trigonometric polynomials of degree < 8 (fine) and < 4 (companion)
    a, b = 0.3, 0.3 + 4 * np.pi
    nodes, weights, companion = periodic_rule(a, b)
    theta = 2 * np.pi * (nodes - a) / (b - a)

    def error(w, degree):
        return abs(float(np.dot(w, np.cos(degree * theta + 0.7))))

    for degree in range(1, 8):
        assert error(weights, degree) < 1e-13, degree
    for degree in range(1, 4):
        assert error(companion, degree) < 1e-13, degree
    assert error(weights, 8) > 1.0
    assert error(companion, 4) > 1.0


def test_polar_exactness_degrees():
    # cos(theta)^k sin(theta) on [0, pi] is z^k on [-1, 1]: Kronrod-7 is
    # exact for k <= 11, its Gauss-3 companion for k <= 5
    nodes, weights, companion = polar_rule()
    assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] and nodes[-1] < np.pi
    assert np.all(weights > 0) and np.all(companion >= 0)
    assert np.count_nonzero(companion) == 3

    def error(w, k):
        return abs(float(np.dot(w, np.cos(nodes) ** k * np.sin(nodes)))
                   - (1 - (-1) ** (k + 1)) / (k + 1))

    for k in range(12):
        assert error(weights, k) < 1e-14, k
    for k in range(6):
        assert error(companion, k) < 1e-14, k
    assert error(weights, 12) > 1e-6
    assert error(companion, 6) > 1e-3
    # a density sin(theta)^2 is sqrt(1 - z^2) in z, which no polynomial
    # rule integrates exactly: the round S4's middle angle is not polar
    assert abs(float(np.dot(weights, np.sin(nodes) ** 2)) - np.pi / 2) > 1e-12
    # panels in z: two panels of the same rule, still ascending
    nodes2, weights2, _ = polar_rule(2)
    assert nodes2.size == 14 and np.all(np.diff(nodes2) > 0)
    assert float(np.dot(weights2, np.cos(nodes2) ** 10 * np.sin(nodes2))) \
        == pytest.approx(2 / 11, rel=1e-14)


def _fresh_rule(a, b, panels, order):
    """The composite rule from a fresh leggauss call, without the cache."""
    x, w = np.polynomial.legendre.leggauss(order)
    if np.isscalar(panels):
        edges = np.linspace(a, b, panels + 1)
    else:
        edges = np.asarray(panels, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


@pytest.mark.parametrize("order", [2, 12, 16, 24])
@pytest.mark.parametrize("panels", [1, 3, np.array([0.2, 0.25, 0.9, 1.7])])
def test_cached_rule_is_bitwise_fresh(order, panels):
    nodes, weights = gauss_legendre_rule(0.2, 1.7, panels, order)
    ref_nodes, ref_weights = _fresh_rule(0.2, 1.7, panels, order)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def test_returned_rule_is_a_fresh_array():
    nodes, weights = gauss_legendre_rule(0.0, 1.0, 1, 16)
    nodes[:] = -1.0
    weights *= 3.0
    again_nodes, again_weights = gauss_legendre_rule(0.0, 1.0, 1, 16)
    ref_nodes, ref_weights = _fresh_rule(0.0, 1.0, 1, 16)
    assert np.array_equal(again_nodes, ref_nodes)
    assert np.array_equal(again_weights, ref_weights)


def test_reference_rule_built_once_per_order(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    calls = {}

    def counting(order):
        calls[order] = calls.get(order, 0) + 1
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quadrature._reference_rule.cache_clear()
    fit_renormalized_volume(models.build("ads_schwarzschild", m=1.0))
    assert calls, "the volume fit built no Gauss-Legendre rule"
    assert max(calls.values()) == 1, calls


def test_nested_rules_reject_malformed_panels():
    with pytest.raises(ValueError, match="panels"):
        kronrod_rule(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="panels"):
        periodic_rule(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="panels"):
        polar_rule(0)


def test_rule_rejects_malformed_panels():
    with pytest.raises(ValueError, match="panels"):
        gauss_legendre_rule(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        gauss_legendre_rule(0.0, 1.0, np.array([0.0, 0.6, 0.5, 1.0]))

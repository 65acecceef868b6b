"""Deterministic composite quadrature: Gauss-Legendre, nested axis rules.

All rules are fixed meshes (no adaptive subdivision driven by runtime
state), so repeated runs with the same configuration sum the same floats
in the same order. The Gauss-Legendre reference rule on [-1, 1] is built
once per order and kept read-only; every rule mapped onto panels is a
fresh array. panel_sums applies it panel by panel, one sum per panel,
for callers that combine panels themselves (the radial map's
arclength table, the volume ladder's suffix sums). Every error estimate
is floored at ROUNDOFF eps times the integral of the integrand's
absolute value (QUADPACK's round-off floor).

A nested axis rule is a triple (nodes, weights, companion): the weights
give the value, and the companion weights, supported on a subset of the
same nodes, give a lower-order value whose distance from it estimates
the error from one set of integrand values. There are four kinds:

- kronrod_rule, for bounded axes: Kronrod-15 per panel, exact to
  degree 23, with the Gauss-7 rule on its odd nodes (degree 13);
- polar_rule, for a polar angle theta in [0, pi] whose integrand is a
  function of z = cos(theta) times sin(theta): Kronrod-7 per panel of
  z, exact on z^k for k <= 11, with Gauss-3 on its odd nodes (k <= 5);
- periodic_rule, for an axis that is one full period of the
  integrand: 8 equispaced midpoints per panel (exact on trigonometric
  polynomials of degree < 8), every other node at twice the weight
  (degree < 4);
- one_point_rule, for an axis the integrand does not depend on.

product_rule takes their tensor product, companion with companion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_rule",
    "geometric_panels",
    "kronrod_rule",
    "one_point_rule",
    "panel_sums",
    "periodic_rule",
    "polar_rule",
    "product_rule",
]

#: floor of every error estimate, in units of eps * int |integrand|
ROUNDOFF = 50.0


#: Kronrod-15 nodes on [-1, 1] and the weights of the Kronrod-15 and the
#: nested Gauss-7 rule (zero off the odd nodes), from QUADPACK's QK15
#: table (Piessens et al., 1983)
_K15_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082,
    0.0])
#: Kronrod-7 nodes on [-1, 1] and the weights of the Kronrod-7 and the
#: nested Gauss-3 rule, to double precision (Laurie, Math. Comp. 66, 1997)
_K7_NODES = np.array([-0.9604912687080203, -0.7745966692414834, -0.43424374934680254,
                      0.0, 0.43424374934680254, 0.7745966692414834, 0.9604912687080203])
_K7_WEIGHTS = np.array([0.10465622602646726, 0.26848808986833345, 0.40139741477596225,
                        0.45091653865847414, 0.40139741477596225, 0.26848808986833345,
                        0.10465622602646726])
_G3_WEIGHTS = np.array([0.0, 5 / 9, 0.0, 8 / 9, 0.0, 5 / 9, 0.0])
for _table in (_K15_NODES, _K15_WEIGHTS, _G7_WEIGHTS, _K7_NODES, _K7_WEIGHTS, _G3_WEIGHTS):
    _table.flags.writeable = False
#: nodes per panel of periodic_rule
PERIODIC_NODES = 8


@lru_cache(maxsize=None)
def _reference_rule(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_edges(a: float, b: float, panels):
    """Breakpoints of ``panels``: an int >= 1 (uniform subdivision of
    [a, b]) or a strictly increasing array starting at a, ending at b."""
    if np.isscalar(panels):
        if int(panels) < 1:
            raise ValueError(f"panels must be at least 1, got {panels}")
        edges = np.linspace(a, b, int(panels) + 1)
    else:
        edges = np.asarray(panels, dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("need at least two strictly increasing panel breakpoints")
    return edges


def _composite(a: float, b: float, panels, x, *ws):
    """Reference nodes x and weights ws on [-1, 1] mapped onto each panel."""
    edges = _panel_edges(a, b, panels)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return (nodes,) + tuple((half[:, None] * w[None, :]).ravel() for w in ws)


def gauss_legendre_rule(a: float, b: float, panels, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b];
    no program path calls it, it is kept for the benchmark's probes.

    ``panels`` is either an int >= 1 (uniform subdivision) or a strictly
    increasing array of breakpoints starting at a and ending at b.
    """
    return _composite(a, b, panels, *_reference_rule(order))


def panel_sums(lo, hi, f, order: int):
    """Gauss-Legendre of ``order`` on each panel [lo_i, hi_i], one sum per
    panel (the arithmetic of gauss_legendre_rule(lo_i, hi_i, 1, order)).

    f is called once, on the flat array of every panel's nodes, and each
    panel is summed on its own row, so a panel's sum does not depend on
    the other panels of the call.
    """
    x, w = _reference_rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x
    values = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    return np.sum(half[:, None] * w * values, axis=1)


def kronrod_rule(a: float, b: float, panels):
    """Composite Kronrod-15 rule on [a, b] with its nested Gauss-7 companion.

    Returns (nodes, weights, companion); ``panels`` as for
    gauss_legendre_rule.
    """
    return _composite(a, b, panels, _K15_NODES, _K15_WEIGHTS, _G7_WEIGHTS)


def polar_rule(panels=1):
    """Kronrod-7 with its Gauss-3 companion in z = cos(theta) on [0, pi]:
    the rule on ``panels`` of z in [-1, 1] (as for gauss_legendre_rule),
    mapped to ascending theta = arccos(z), its weights divided by
    sin(theta). Returns (nodes, weights, companion)."""
    z, *weights = _composite(-1.0, 1.0, panels, _K7_NODES, _K7_WEIGHTS, _G3_WEIGHTS)
    sin = np.sqrt((1.0 - z) * (1.0 + z))
    return tuple(a[::-1] for a in (np.arccos(z), *(w / sin for w in weights)))


def periodic_rule(a: float, b: float, panels: int = 1):
    """Trapezoid rule for an integrand of period b - a, with its companion.

    PERIODIC_NODES (8) equispaced midpoints per panel of a uniform
    subdivision into ``panels``, exact on trigonometric polynomials of
    degree < 8; the companion takes every other node at twice the
    weight (the 4-point rule, degree < 4). Returns (nodes, weights,
    companion).
    """
    n = PERIODIC_NODES * int(panels)
    if n < 1:
        raise ValueError(f"panels must be at least 1, got {panels}")
    step = (b - a) / n
    nodes = a + (np.arange(n) + 0.5) * step
    weights = np.full(n, step)
    companion = np.zeros(n)
    companion[0::2] = 2.0 * step
    return nodes, weights, companion


def one_point_rule(a: float, b: float):
    """The midpoint weighted by the length, for an axis the integrand does
    not depend on; its own companion. Returns (nodes, weights, companion)."""
    length = np.array([b - a])
    return np.array([0.5 * (a + b)]), length, length


def geometric_panels(a: float, b: float, ratio: float = 1.6):
    """Breakpoints of at most 64 panels on [a, b], graded geometrically
    away from a.

    Suited to integrands that vary fastest near the left endpoint
    (inverse-power growth toward a boundary). A closing panel narrower
    than half the one before it is merged into that one, so no rule puts
    nodes in a sliver at b, where a fill's warp may be singular. At the
    cap the last panel runs ungraded to b: a = 1e-20, b = 2 ends with
    [7.2e-8, 2]. The grading reaches b well before the cap for every a
    the package uses (the smallest, about 1e-3, in the convergence
    study's rungs).
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b for geometric grading")
    edges = [a]
    width = a * (ratio - 1.0)
    while edges[-1] + width < b and len(edges) < 64:
        edges.append(edges[-1] + width)
        width *= ratio
    if len(edges) > 1 and b - edges[-1] < 0.5 * (edges[-1] - edges[-2]):
        edges.pop()
    edges.append(b)
    return np.asarray(edges)


def product_rule(axes):
    """Tensor product of nested axis rules (nodes, weights, companion).

    Returns (points, weights, companion) with points shaped
    (N, len(axes)); the companion is the product of the axis
    companions. Node ordering is row-major over the axis grids, fixed
    by construction.
    """
    grids, wgts, comps = zip(*axes)
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    def outer(ws):
        out = ws[0]
        for w in ws[1:]:
            out = np.multiply.outer(out, w)
        return out.ravel()

    return points, outer(wgts), outer(comps)

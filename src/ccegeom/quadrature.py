"""Deterministic composite Gauss-Legendre quadrature.

All rules are fixed meshes (no adaptive subdivision driven by runtime
state), so repeated runs with the same configuration sum the same floats
in the same order. Error estimates come from doubling the panel count.
The reference rule on [-1, 1] is built once per order and kept read-only;
every rule mapped onto panels is a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureTolerance

__all__ = [
    "QuadResult",
    "gauss_legendre_rule",
    "geometric_panels",
    "integrate_fixed",
    "integrate_refined",
    "product_rule",
]


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    panels: int


@lru_cache(maxsize=None)
def _reference_rule(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_rule(a: float, b: float, panels, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    ``panels`` is either an int >= 1 (uniform subdivision) or a strictly
    increasing array of breakpoints starting at a and ending at b.
    """
    x, w = _reference_rule(order)
    if np.isscalar(panels):
        if int(panels) < 1:
            raise ValueError(f"panels must be at least 1, got {panels}")
        edges = np.linspace(a, b, int(panels) + 1)
    else:
        edges = np.asarray(panels, dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("need at least two strictly increasing panel breakpoints")
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def geometric_panels(a: float, b: float, ratio: float = 1.6, max_panels: int = 64):
    """Panel breakpoints on [a, b] graded geometrically away from a.

    Suited to integrands that vary fastest near the left endpoint
    (inverse-power growth toward a boundary).
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b for geometric grading")
    edges = [a]
    width = a * (ratio - 1.0)
    while edges[-1] + width < b and len(edges) < max_panels:
        edges.append(edges[-1] + width)
        width *= ratio
    edges.append(b)
    return np.asarray(edges)


def _split_panels(panels):
    """Halve every panel of a breakpoint array (or double an int count)."""
    if np.isscalar(panels):
        return int(panels) * 2
    edges = np.asarray(panels, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def integrate_fixed(f, a: float, b: float, panels, order: int = 16) -> float:
    nodes, weights = gauss_legendre_rule(a, b, panels, order)
    return float(np.dot(weights, f(nodes)))


def integrate_refined(
    f,
    a: float,
    b: float,
    panels,
    order: int = 16,
    tol: float = 1e-10,
    scale: float = 1.0,
    max_doublings: int = 3,
) -> QuadResult:
    """Composite GL value with a mesh-doubling error estimate.

    Doubles the panel count until |I_fine - I_coarse| <= tol * max(scale, |I|)
    or raises QuadratureTolerance. The fine value is returned.
    """
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be at least 1, got {max_doublings}")
    coarse = integrate_fixed(f, a, b, panels, order)
    for _ in range(max_doublings):
        panels = _split_panels(panels)
        fine = integrate_fixed(f, a, b, panels, order)
        err = abs(fine - coarse)
        if err <= tol * max(scale, abs(fine)):
            n = panels if np.isscalar(panels) else len(panels) - 1
            return QuadResult(fine, err, int(n))
        coarse = fine
    raise QuadratureTolerance(
        f"quadrature on [{a}, {b}] did not reach tol={tol}: last change {err:.3e}"
    )


def product_rule(axes):
    """Tensor-product rule from per-axis (a, b, panels, order) tuples.

    Returns (points, weights) with points shaped (N, len(axes)). Node
    ordering is row-major over the axis grids, fixed by construction.
    """
    grids = []
    wgts = []
    for (a, b, panels, order) in axes:
        n, w = gauss_legendre_rule(a, b, panels, order)
        grids.append(n)
        wgts.append(w)
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    weight = wgts[0]
    for w in wgts[1:]:
        weight = np.multiply.outer(weight, w)
    return points, weight.ravel()

"""Curvature integrals and the 4-dimensional index formulas.

Integrates pointwise curvature invariants over two kinds of domains:
product boxes in a single chart, and radial reductions for
cohomogeneity-one metrics where the angular integral is carried exactly
by the boundary volume.

On a box, only the axes the metric depends on are integrated. Along a
cyclic axis (MetricField.cyclic_axes) g, its derivatives, every
invariant and sqrt(det g) are constant, so the Gauss-Legendre weights
over it would only sum to its length: the axis takes the one-point rule
(its midpoint, weighted by the length) instead, exact up to round-off.

The integrated quantities feed two index formulas, stated here in the
tensor-norm convention |W|^2 = W_{ijkl} W^{ijkl}:

    8 pi^2 chi  = 1/4 int |W|^2 + int sigma2        (closed, Einstein-free)
    12 pi^2 tau = 1/4 int (|W+|^2 - |W-|^2)

and their orientation-refined combinations; see combined_formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .quadrature import gauss_legendre_rule, product_rule
from .tensor import MetricField, curvature

__all__ = [
    "ProductChartDomain",
    "RadialDomain",
    "radial_section",
    "fg_radial_domain",
    "IntegralSuite",
    "integrate_curvature",
    "doubled_suite",
    "gauss_bonnet_volume_residual",
    "sigma2_volume_bridge",
    "combined_formulas",
    "suite_document",
]

#: Gauss-Legendre order per axis of the first quadrature pass
ORDER = 12
#: order of the second pass, whose difference is the error estimate
REFINED_ORDER = 16
#: curvature points per kernel call on product boxes
CHUNK = 2048
#: panels of the radial collar domains
RADIAL_PANELS = 12


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class ProductChartDomain:
    """Product box in chart coordinates: axes = ((lo, hi, panels), ...).

    One axis per chart coordinate. Axes the metric does not depend on
    are collapsed to their midpoint, weighted by their length; panels
    applies to the others.
    """

    axes: tuple
    label: str = ""


@dataclass(frozen=True)
class RadialDomain:
    """Cohomogeneity-one reduction: one radial axis, exact fiber volume.

    measure(s) must give the full reduced measure (fiber volume folded
    in), so integrals are  int f(s) measure(s) ds  and the integrator
    does not consult the metric determinant. section maps a vector of
    radial nodes (N,) to chart points (N, 4); radial_section builds one
    from a fixed boundary point.
    """

    s_lo: float
    s_hi: float
    measure: Callable
    section: Callable
    panels: int = 8
    label: str = ""


def radial_section(boundary_point) -> Callable:
    """Section callable pinning the fiber coordinates of radial nodes."""
    fiber = np.asarray(boundary_point, dtype=float)

    def section(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([s, np.broadcast_to(fiber, (s.size, fiber.size))])

    return section


def fg_radial_domain(fg, s_lo: float) -> RadialDomain:
    """Radial domain for a normal-form family, with its hyperbolic measure.

    The reduced measure of s^{-2}(ds^2 + g_s) is Vol(ghat) s^{-4} D(s),
    so integrals over the domain are truncated-collar integrals of the
    conformally compact metric itself. fg needs the warped-block layout
    (density and a reconstructable 4-metric).
    """
    vol = fg.boundary.volume

    def measure(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return vol * s**-4.0 * fg.density(s)

    return RadialDomain(float(s_lo), fg.s_max, measure,
                        radial_section(fg.boundary.default_point),
                        panels=RADIAL_PANELS, label=f"{fg.name} collar")


@dataclass
class IntegralSuite:
    """Integrated curvature invariants of one 4-manifold (or one half)."""

    weyl_energy: float
    weyl_plus: float
    weyl_minus: float
    sigma2_integral: float
    volume: float
    orientation: int
    domain_label: str = ""
    error_estimates: dict = field(default_factory=dict)

    @property
    def euler_gb(self) -> float:
        """Euler characteristic by the curvature integral."""
        return (0.25 * self.weyl_energy + self.sigma2_integral) / (8 * np.pi**2)

    @property
    def signature(self) -> float:
        """Signature by the orientation-weighted Weyl split."""
        return 0.25 * (self.weyl_plus - self.weyl_minus) / (12 * np.pi**2)


# ---------------------------------------------------------------------------
# integration

_FIELDS = ("weyl_energy", "weyl_plus", "weyl_minus", "sigma2_integral", "volume")


def _invariant_rows(pack):
    """The integrands of _FIELDS, one row per point of the packet."""
    return np.stack([
        pack.norms["weyl_sq"],
        pack.norms["weyl_plus_sq"],
        pack.norms["weyl_minus_sq"],
        pack.sigma2,
        np.ones_like(pack.sigma2),
    ], axis=1)


def _accumulate_box(m, domain, orientation, order):
    # a cyclic axis takes the one-point rule: its midpoint, weighted by
    # the axis length
    pts, wts = product_rule([(lo, hi, 1, 1) if i in m.cyclic_axes
                             else (lo, hi, panels, order)
                             for i, (lo, hi, panels) in enumerate(domain.axes)])
    totals = np.zeros(len(_FIELDS))
    for lo in range(0, pts.shape[0], CHUNK):
        hi = min(lo + CHUNK, pts.shape[0])
        pack = curvature(m, pts[lo:hi], orientation=orientation)
        det = np.linalg.det(pack.metric)
        if np.any(det <= 0):
            raise DomainError("metric determinant non-positive inside the domain")
        totals += (wts[lo:hi] * np.sqrt(det)) @ _invariant_rows(pack)
    return totals


def _accumulate_radial(m, domain, orientation, order):
    nodes, wts = gauss_legendre_rule(domain.s_lo, domain.s_hi,
                                     domain.panels, order)
    pts = np.asarray(domain.section(nodes), dtype=float)
    meas = np.asarray(domain.measure(nodes), dtype=float)
    return (wts * meas) @ _invariant_rows(curvature(m, pts, orientation=orientation))


def integrate_curvature(m: MetricField, domain,
                        orientation: int = 1) -> IntegralSuite:
    """Integrate the curvature invariants of m over the domain.

    Runs the quadrature twice (ORDER and REFINED_ORDER), returns the
    refined values and reports the difference as the error estimate
    for every integral.
    """
    if m.dim != 4:
        raise DomainError("curvature integrals are defined for 4-metrics here")
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 or -1")
    if isinstance(domain, ProductChartDomain) and len(domain.axes) != m.dim:
        raise DomainError(f"product domain has {len(domain.axes)} axes, "
                          f"the metric has {m.dim} coordinates")

    def run(p):
        if isinstance(domain, RadialDomain):
            return _accumulate_radial(m, domain, orientation, p)
        return _accumulate_box(m, domain, orientation, p)

    coarse = run(ORDER)
    totals = run(REFINED_ORDER)
    errors = {name: abs(totals[i] - coarse[i]) for i, name in enumerate(_FIELDS)}
    return IntegralSuite(
        weyl_energy=float(totals[0]),
        weyl_plus=float(totals[1]),
        weyl_minus=float(totals[2]),
        sigma2_integral=float(totals[3]),
        volume=float(totals[4]),
        orientation=orientation,
        domain_label=domain.label,
        error_estimates=errors,
    )


# ---------------------------------------------------------------------------
# derived quantities

def doubled_suite(suite: IntegralSuite) -> IntegralSuite:
    """Invariants of the double across a totally geodesic boundary.

    The reflected half carries the opposite orientation, so the two
    self-dual energies each pick up the other half's anti-self-dual
    energy: the double always has weyl_plus = weyl_minus and
    signature 0.
    """
    both = suite.weyl_plus + suite.weyl_minus
    return IntegralSuite(
        weyl_energy=2 * suite.weyl_energy,
        weyl_plus=both,
        weyl_minus=both,
        sigma2_integral=2 * suite.sigma2_integral,
        volume=2 * suite.volume,
        orientation=suite.orientation,
        domain_label=(suite.domain_label + "+mirror").strip("+"),
        error_estimates={k: 2 * v for k, v in suite.error_estimates.items()},
    )


def gauss_bonnet_volume_residual(euler: float, weyl_energy: float,
                                 renormalized_volume: float) -> float:
    """Residual of 8 pi^2 chi = 1/4 int |W|^2 + 6 V for Einstein fills.

    Zero (to quadrature error) exactly when the curvature integral and
    the renormalized volume describe the same Einstein metric.
    """
    return 8 * np.pi**2 * euler - 0.25 * weyl_energy - 6.0 * renormalized_volume


def sigma2_volume_bridge(sigma2_integral: float,
                         renormalized_volume: float) -> float:
    """Residual of int sigma2 = 6 V over a compactified Einstein fill."""
    return sigma2_integral - 6.0 * renormalized_volume


def combined_formulas(suite: IntegralSuite, euler: float, signature: float):
    """Residuals of the two orientation-refined index combinations.

    In tensor norms the combinations read

        4 pi^2 (2 chi + 3 tau) = 1/2 int |W+|^2 + int sigma2
        4 pi^2 (2 chi - 3 tau) = 1/2 int |W-|^2 + int sigma2.

    (Adding them recovers the Euler formula since
    |W|^2 = |W+|^2 + |W-|^2 and 1/4 |W|^2 appears there; the self-dual
    halves carry 1/2 because each contributes its share to both chi and
    tau with the 1/4 and 1/12 weights combining to 1/2.)
    """
    plus = 4 * np.pi**2 * (2 * euler + 3 * signature) - (
        0.5 * suite.weyl_plus + suite.sigma2_integral)
    minus = 4 * np.pi**2 * (2 * euler - 3 * signature) - (
        0.5 * suite.weyl_minus + suite.sigma2_integral)
    return float(plus), float(minus)


def suite_document(suite: IntegralSuite) -> dict:
    return {
        "weyl_energy": suite.weyl_energy,
        "weyl_plus": suite.weyl_plus,
        "weyl_minus": suite.weyl_minus,
        "sigma2_integral": suite.sigma2_integral,
        "volume": suite.volume,
        "euler_gb": suite.euler_gb,
        "signature": suite.signature,
        "orientation": suite.orientation,
        "domain": suite.domain_label,
        "error_estimates": dict(suite.error_estimates),
    }

"""Curvature integrals and the 4-dimensional index formulas.

Integrates pointwise curvature invariants over two kinds of domains:
product boxes in a single chart, and radial reductions for
cohomogeneity-one metrics where the angular integral is carried exactly
by the boundary volume.

Every domain is integrated in one kernel pass of a nested rule (see
quadrature), weighted by the kernel's own sqrt(det g). A box declares
one rule per axis (AXIS_RULES): Kronrod-15 on a bounded axis, the
8-point trapezoid rule on an axis that is one full period of the
metric, Kronrod-7 in cos(theta) on a polar angle; the one-point rule
replaces the declared one on axes the metric does not depend on
(MetricField.cyclic_axes), where g, its derivatives, every invariant
and sqrt(det g) are constant. A radial domain takes Kronrod-15 on
RADIAL_PANELS panels of the fill's radial chart coordinate y, at one
fixed boundary point p, with the fiber folded into the weights as the
constant Vol(ghat)/sqrt(det ghat(p)): on a warped-block fill
sqrt(det g)(y, x) = s^-4 D(s) (ds/dy) sqrt(det ghat)(x), and a
conformal factor of s alone keeps that form, so the weighted nodes
integrate the whole fiber exactly. The value is the fine rule's; the
error estimate is its distance from the companion rule (Gauss-7,
Gauss-3 and the 4-point trapezoid on the same nodes), i.e. the
companion's error, an upper bound for the value's. Every estimate is
floored at ROUNDOFF eps times the integral of the integrand's absolute
value (QUADPACK's round-off floor), so it never claims more than the
rounding of the sum allows. The collar of a normal-form fill
(fg_radial_domain) starts at the chart point COLLAR_S_LO, since its
measure blows up at s = 0; the compactified fill of the eigenfunction
module runs from 0 to the tip y_max.

The integrated quantities feed two index formulas, stated here in the
tensor-norm convention |W|^2 = W_{ijkl} W^{ijkl}:

    8 pi^2 chi  = 1/4 int |W|^2 + int sigma2        (closed, Einstein-free)
    12 pi^2 tau = 1/4 int (|W+|^2 - |W-|^2)

read off a suite as IntegralSuite.euler_gb and IntegralSuite.signature.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .quadrature import (ROUNDOFF, kronrod_rule, one_point_rule, periodic_rule,
                         polar_rule, product_rule)
from .tensor import MetricField, curvature

__all__ = [
    "ProductChartDomain",
    "RadialDomain",
    "radial_section",
    "fg_radial_domain",
    "IntegralSuite",
    "integrate_curvature",
    "gauss_bonnet_volume_residual",
    "sigma2_volume_bridge",
    "suite_document",
]

#: curvature points per kernel call
CHUNK = 2048
#: Kronrod-15 panels of a radial domain
RADIAL_PANELS = 12
#: lower end of fg_radial_domain in the chart (y = s to first order):
#: the collar's Weyl energy drops the part below it, O(COLLAR_S_LO^3)
COLLAR_S_LO = 0.01


# ---------------------------------------------------------------------------
# domains

#: the rule a box axis declares, as a function of its (lo, hi)
AXIS_RULES = {
    "kronrod": lambda lo, hi: kronrod_rule(lo, hi, 1),
    "periodic": lambda lo, hi: periodic_rule(lo, hi),
    "polar": lambda lo, hi: polar_rule(),
}


class ProductChartDomain:
    """Product box in chart coordinates: axes = ((lo, hi, rule), ...).

    One axis per chart coordinate, each naming its rule in AXIS_RULES:
    "kronrod" takes Kronrod-15 on [lo, hi]; "periodic" marks a [lo, hi]
    that is one full period of the metric and takes the trapezoid rule;
    "polar" marks an axis on exactly [0, pi] whose integrand is a
    function of cos(theta) times sin(theta) and takes polar_rule. Axes
    the metric does not depend on are collapsed to their midpoint,
    weighted by their length, whatever their rule.
    """

    def __init__(self, axes: tuple, label: str = ""):
        for lo, hi, rule in axes:
            if rule not in AXIS_RULES:
                raise DomainError(f"unknown axis rule {rule!r}; known: "
                                  f"{', '.join(AXIS_RULES)}")
            if rule == "polar" and (lo, hi) != (0.0, np.pi):
                raise DomainError("a polar axis must span exactly (0, pi)")
        self.axes = axes
        self.label = label


class RadialDomain(NamedTuple):
    """Cohomogeneity-one reduction of a warped-block fill over its boundary.

    Integrals run over the fill's radial chart coordinate y in
    [y_lo, y_hi] times the whole boundary; the fiber is carried exactly
    by the boundary volume (module docstring).
    """

    y_lo: float
    y_hi: float
    boundary: object  # the fill's normal_form.BoundaryGeometry
    label: str = ""


def radial_section(boundary_point) -> Callable:
    """Section callable pinning the fiber coordinates of radial nodes."""
    fiber = np.asarray(boundary_point, dtype=float)

    def section(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.column_stack([y, np.broadcast_to(fiber, (y.size, fiber.size))])

    return section


def fg_radial_domain(fg) -> RadialDomain:
    """Radial domain of a normal-form family, from COLLAR_S_LO to y_max.

    Integrals over it are truncated-collar integrals of the conformally
    compact metric s^{-2}(ds^2 + g_s) itself, whose volume density
    Vol(ghat) s^{-4} D(s) ds/dy blows up at s = 0. Its Weyl energy
    feeds the gauss-bonnet-volume gate and the benchmark's output check
    (perfbench/run.py); the compactified fill is the whole manifold.
    """
    return RadialDomain(COLLAR_S_LO, fg.y_max, fg.boundary, f"{fg.name} collar")


class IntegralSuite:
    """Integrated curvature invariants of one 4-manifold (or one half)."""

    def __init__(self, weyl_energy: float, weyl_plus: float, weyl_minus: float,
                 sigma2_integral: float, volume: float, orientation: int,
                 domain_label: str = "", error_estimates: Optional[dict] = None):
        self.weyl_energy = weyl_energy
        self.weyl_plus = weyl_plus
        self.weyl_minus = weyl_minus
        self.sigma2_integral = sigma2_integral
        self.volume = volume
        self.orientation = orientation
        self.domain_label = domain_label
        self.error_estimates = {} if error_estimates is None else error_estimates

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


def _rule(m, domain):
    """Points, fine weights and companion weights of the domain's rule."""
    if isinstance(domain, RadialDomain):
        b = domain.boundary
        y, fine, companion = kronrod_rule(domain.y_lo, domain.y_hi, RADIAL_PANELS)
        ghat = b.field.g(np.asarray([b.default_point], dtype=float))[0]
        fiber = b.volume / np.sqrt(np.linalg.det(ghat))
        return radial_section(b.default_point)(y), fiber * fine, fiber * companion
    return product_rule([one_point_rule(lo, hi) if i in m.cyclic_axes
                         else AXIS_RULES[rule](lo, hi)
                         for i, (lo, hi, rule) in enumerate(domain.axes)])


def _accumulate(m, domain, orientation):
    """Fine, companion and absolute-value totals of _FIELDS, one pass."""
    pts, fine, companion = _rule(m, domain)
    wts = np.stack([fine, companion], axis=1)
    totals = np.zeros((3, len(_FIELDS)))
    for lo in range(0, pts.shape[0], CHUNK):
        hi = min(lo + CHUNK, pts.shape[0])
        pack = curvature(m, pts[lo:hi], orientation=orientation)
        if not np.all(pack.volume_density > 0):
            raise DomainError("metric determinant non-positive inside the domain")
        rows = _invariant_rows(pack)
        w = wts[lo:hi] * pack.volume_density[:, None]
        totals[:2] += w.T @ rows
        totals[2] += w[:, 0] @ np.abs(rows)
    return totals


def integrate_curvature(m: MetricField, domain,
                        orientation: int = 1) -> IntegralSuite:
    """Integrate the curvature invariants of m over the domain.

    Returns the fine values; the error estimate of every integral is
    |fine - companion|, never below the round-off floor (module
    docstring).
    """
    if m.dim != 4:
        raise DomainError("curvature integrals are defined for 4-metrics here")
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 or -1")
    if isinstance(domain, ProductChartDomain) and len(domain.axes) != m.dim:
        raise DomainError(f"product domain has {len(domain.axes)} axes, "
                          f"the metric has {m.dim} coordinates")

    totals, coarse, absolute = _accumulate(m, domain, orientation)
    floor = ROUNDOFF * np.finfo(float).eps * absolute
    errors = {name: float(max(abs(totals[i] - coarse[i]), floor[i]))
              for i, name in enumerate(_FIELDS)}
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

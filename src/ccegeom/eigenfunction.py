"""Eigenfunction compactification of conformally compact Einstein metrics.

An Einstein metric g with Ric = -3g on a 4-manifold with conformal
boundary carries a distinguished positive eigenfunction: the solution of
Delta u = 4u growing like 1/s at the boundary, where s is the geodesic
defining function of the gauge s^{-2}(ds^2 + g_s). The rescaled metric
u^{-2} g extends across the boundary; the boundary becomes totally
geodesic, and the scalar curvature of the extension is bounded below by
its boundary value 2 R(ghat). This module solves the eigenfunction
equation (reduced along the radial direction for warped-block families),
builds the compactified metric, and gates the qualitative properties
that make the compactification useful: the scalar lower bound, the
vanishing second fundamental form of the boundary, and the Bochner
identity behind the bound (see compactification_checks, which decides
each gate once and returns them with the eigenfunction section of the
analyze report). Positivity of u is not a gate: the solve refuses a u
that is not positive.

The radial reduction of the eigenvalue equation is

    s^2 u'' + (s^2 L - 2 s) u' - 4 u = 0,       L = D'/D,

with D the relative volume density of g_s. The boundary s = 0 is a
regular singular point with exponents -1 and 4; the interior end
s = s_max, where the density vanishes to its tip order m, has exponents
0 and 1 - m. The solver removes the growing indicial mode explicitly
(u = 1/s + w2 s + s^2 phi) and collocates a Chebyshev series of phi on
the whole interval [0, s_max], in the least-squares sense on an
oversampled grid. No boundary condition is imposed at either end: the
polynomial space cannot represent the unbounded modes, so it selects
the bounded solution by itself.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval, chebvander

from .autodiff import log
from .errors import (
    DomainError,
    PositivityViolation,
    SolverFailure,
    UnsupportedDimension,
)
from .integrals import RadialDomain
from .normal_form import FGMetric, _chebyshev_nodes
from .tensor import MetricField
from .topology import gate

__all__ = [
    "indicial_roots",
    "asymptotic_data",
    "EigenfunctionSolution",
    "solve_eigenfunction",
    "compactified_metric_field",
    "compactified_radial_domain",
    "compactification_checks",
]

#: collocation sizes N tried in turn by solve_eigenfunction
COLLOCATION_NODES = (16, 64)
#: collocation points per Chebyshev coefficient (least squares)
COLLOCATION_OVERSAMPLE = 2
#: trailing Chebyshev coefficients that make the convergence tail
TAIL_TERMS = 4
#: solve_eigenfunction stops at the first N whose tail is at most this
TAIL_TOL = 1e-11
#: solve_eigenfunction fails when the best tail exceeds this
TAIL_LIMIT = 1e-6
#: lower end of the diagnostic grids (u_min and the scalar scan in s, the
#: Bochner check in the fill's chart, where y = s to first order)
S_LO = 1e-3
#: the Bochner grid stops short of the tip y_max by XI_EDGE in the chart
XI_EDGE = 0.05
#: largest s of the near-boundary window of asymptotic_residual
ASYMPTOTIC_CAP = 0.05
#: sample count of asymptotic_residual
ASYMPTOTIC_COUNT = 200
#: s grid of the Bochner check
CHECK_GRID = 240
#: the scalar bound may undershoot 48 w2 by this much
SCALAR_SLACK = 1e-4
#: sup tolerance of the Bochner identity
BOCHNER_TOL = 1e-6
#: tolerance on the linear Taylor coefficient of the warps at s = 0
SECOND_FORM_TOL = 1e-6


def indicial_roots(n: int = 3) -> tuple:
    """Frobenius exponents of Delta u = (n+1) u at the conformal boundary.

    Substituting u ~ s^alpha into the radial reduction gives
    alpha^2 - n alpha - (n+1) = 0, which factors over the integers for
    every boundary dimension: the growing mode s^{-1} drives the
    compactification and s^{n+1} carries the scattering freedom.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise UnsupportedDimension("boundary dimension must be an integer >= 2")
    return (-1, int(n) + 1)


def asymptotic_data(fg: FGMetric) -> float:
    """The coefficient w2 of u = 1/s + w2 s + O(s^2).

    The s^0 slot between the indicial roots vanishes because g_s has no
    linear term. An Einstein interior determines w2 = R(ghat)/24 from
    the boundary alone. Otherwise w2 = -tr(g2)/6 is matched to the
    warps: tr(g2) = sum_b k_b h_b''(0)/2, k_b the size of block b, with
    each h_b''(0)/2 read off row 2 of FGMetric.boundary_expansion.
    """
    if fg.n != 3:
        raise UnsupportedDimension("eigenfunction reduction implemented for "
                                   "3-dimensional boundaries")
    if fg.einstein:
        return float(fg.boundary.scalar_curvature / 24)
    g2 = fg.boundary_expansion()[2]
    trace = sum(len(idx) * g2[b] for b, idx in enumerate(fg.blocks))
    return float(-trace / 6.0)


# ---------------------------------------------------------------------------
# the solver

class EigenfunctionSolution:
    """Solved positive eigenfunction in the gauge s^{-2}(ds^2 + g_s).

    u = 1/s + w2 s + s^2 phi with phi the Chebyshev series of the
    collocation solve on [0, s_hi] = [0, s_max]; s_lo = S_LO is only the
    lower end of the diagnostic grids. The series is differentiated
    three times when the solution is built, and jet(s, order) reads u
    and its derivatives off those series, so no pole of L and no finite
    differencing of the nearly-cancelling 1/s + w2 s enters. u is its
    first entry alone. Building it also records mesh_size, the number of
    coefficients, u_min, the least u on 2000 points of [S_LO, s_max]
    (PositivityViolation unless it is positive), and
    collocation_residual, the equation_residual of the series.
    """

    def __init__(self, fg: FGMetric, w2: float, coefficients: np.ndarray,
                 coefficient_tail: float):
        self.fg = fg
        self.w2 = w2
        self.s_lo = S_LO
        self.s_hi = fg.s_max
        self.mesh_size = coefficients.size
        self.coefficient_tail = coefficient_tail
        self.coefficients = coefficients
        # phi and its first three s-derivatives as Chebyshev series in t
        series = [coefficients]
        for _ in range(3):
            series.append(chebder(series[-1]) * (2.0 / self.s_hi))
        self._series = series
        self.u_min = float(np.min(self.u(np.geomspace(S_LO, self.s_hi, 2000))))
        if self.u_min <= 0.0:
            raise PositivityViolation(
                f"solved eigenfunction attains {self.u_min:.3e} <= 0; the family is "
                "outside the class this compactification covers"
            )
        self.collocation_residual = self.equation_residual()

    # -- pointwise closures -------------------------------------------------

    def _phi_jet(self, s, order: int):
        """s as an array, then phi and its first `order` s-derivatives."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s <= 0.0) or np.any(s > self.s_hi * (1.0 + 1e-12)):
            raise DomainError(
                f"s must lie in (0, {self.s_hi}]; the solution does not "
                "extend past the tip s_max"
            )
        t = 2.0 * s / self.s_hi - 1.0
        return [s] + [chebval(t, c) for c in self._series[:order + 1]]

    def jet(self, s, order: int):
        """[u, u', ..., u^(order)] at each s, order <= 3, each a 1-D array."""
        x, phi, *d = self._phi_jet(s, order)
        out = [1.0 / x + self.w2 * x + x**2 * phi]
        if order >= 1:
            out.append(-1.0 / x**2 + self.w2 + 2.0 * x * phi + x**2 * d[0])
        if order >= 2:
            out.append(2.0 / x**3 + 2.0 * phi + 4.0 * x * d[0] + x**2 * d[1])
        if order >= 3:
            out.append(-6.0 / x**4 + 6.0 * d[0] + 6.0 * x * d[1] + x**2 * d[2])
        return out

    def u(self, s):
        """u at each s, a 1-D array."""
        return self.jet(s, 0)[0]

    # -- derived quantities ---------------------------------------------------

    @property
    def boundary_scalar(self) -> float:
        """Boundary value of the compactified scalar curvature, 48 w2."""
        return 48.0 * self.w2

    def compactified_scalar(self, s):
        """Scalar curvature of u^{-2} g along the radial direction,
        12(u^2 - s^2 u'^2): a formula that holds on an Einstein fill only."""
        x = np.atleast_1d(np.asarray(s, dtype=float))
        u, du = self.jet(x, 1)
        return 12.0 * (u**2 - x**2 * du**2)

    def asymptotic_residual(self) -> float:
        """sup |u s - (1 + w2 s^2)| over a near-boundary window.

        The compactified warp u s should follow its quadratic model up
        to O(s^3); large values mean the matched w2 is wrong or the
        collocation went bad near the boundary.
        """
        cap = min(ASYMPTOTIC_CAP, 0.5 * self.s_hi)
        s = np.geomspace(self.s_lo, max(cap, 2.0 * self.s_lo), ASYMPTOTIC_COUNT)
        return float(np.max(np.abs(s**3 * self._phi_jet(s, 0)[1])))

    def equation_residual(self) -> float:
        """Sup residual of the eigenvalue equation, made bounded at both ends.

        s^2 u'' + (s^2 L - 2s) u' - 4u is scaled by s xi / s_max (xi =
        s_max - s), which keeps it dimensionless and clears the pole of L
        at the tip, and is evaluated through phi so the 1/s parts cancel
        exactly. It is evaluated at the interior extrema of T_M in the
        fill's chart, M the number of collocation points, which lie
        between those points.
        """
        sm = self.s_hi
        m = COLLOCATION_OVERSAMPLE * self.mesh_size
        w = self.fg.warp(0.5 * self.fg.y_max * (1.0 - np.cos(np.arange(1, m) * np.pi / m)))
        x, phi, dphi, d2phi = self._phi_jet(w.s, 2)
        lv = self.fg.logderiv(w)
        lhs = x**2 * (x**2 * d2phi + (2.0 * x + x**2 * lv) * dphi
                      + (2.0 * x * lv - 6.0) * phi)
        forcing = (1.0 - self.w2 * x**2) * lv + 6.0 * self.w2 * x
        return float(np.max(np.abs(x * (sm - x) / sm * (lhs - forcing))))


def _collocate(fg: FGMetric, w2: float, n: int) -> np.ndarray:
    """Chebyshev coefficients of phi, n terms, on [0, s_max].

    One row at the s of each Gauss-Chebyshev point of the fill's chart
    [0, y_max], COLLOCATION_OVERSAMPLE * n of them, solved in the
    least-squares sense. Each row is the
    equation for u times xi, not the bare phi equation: L carries
    rounding of about eps/s near s = 0, which the phi equation would
    divide by s^2 while the u equation keeps it at the size of u, and
    only an oversampled system gives the row weights a say.
    """
    sm = fg.s_max
    t = _chebyshev_nodes(-1.0, 1.0, COLLOCATION_OVERSAMPLE * n)
    y = 0.5 * fg.y_max * (t + 1.0)
    w = fg.warp(y)
    s, lv = w.s, fg.logderiv(w)
    # each row's t of s, the node's own t where y = s
    t = t + 2.0 * (s / sm - y / fg.y_max)
    xi = sm - s
    eye = np.eye(n)
    v0 = chebvander(t, n - 1)
    v1 = chebvander(t, n - 2) @ chebder(eye, 1, scl=2.0 / sm)
    v2 = chebvander(t, n - 3) @ chebder(eye, 2, scl=2.0 / sm)
    s2 = s**2
    a = ((xi * s2 * s2)[:, None] * v2
         + (xi * s2 * (2.0 * s + s2 * lv))[:, None] * v1
         + (xi * s2 * (2.0 * s * lv - 6.0))[:, None] * v0)
    b = xi * ((1.0 - w2 * s2) * lv + 6.0 * w2 * s)
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _coefficient_tail(c: np.ndarray, s_max: float) -> float:
    """Largest of the last TAIL_TERMS coefficients, relative to the series.

    The reference is the larger of max |c_k| and s_max^-3, the size at
    which s^2 phi would match the leading 1/s of u at the tip, so a
    vanishing phi (the hyperbolic fill) does not read noise over noise.
    """
    scale = max(float(np.max(np.abs(c))), s_max ** -3)
    return float(np.max(np.abs(c[-TAIL_TERMS:]))) / scale


def solve_eigenfunction(fg: FGMetric) -> EigenfunctionSolution:
    """Solve Delta u = 4u with u ~ 1/s by Chebyshev collocation on [0, s_max].

    The substitution u = 1/s + w2 s + s^2 phi removes the growing
    indicial mode and the known part of the regular one; in phi the
    eigenvalue equation reads

        s^2 [s^2 phi'' + (2s + s^2 L) phi' + (2sL - 6) phi]
            = (1 - w2 s^2) L + 6 w2 s,

    with L = D'/D from the exact warp jets. Times xi = s_max - s, which
    clears the simple pole of L at the tip, it is collocated on the whole
    fill with no boundary rows and no endpoint ever evaluated: a
    polynomial can carry neither the s^-3 mode at the boundary nor the
    log or xi^(1-m) mode at the tip, so the polynomial space itself
    selects the bounded solution (Boyd, Chebyshev and Fourier Spectral
    Methods, ch. 6). See _collocate for the rows. N runs up
    COLLOCATION_NODES and stops at the first whose coefficient tail is
    at most TAIL_TOL; if none is, the N with the smallest tail is kept.

    Raises SolverFailure when that tail exceeds TAIL_LIMIT and
    PositivityViolation when the solved u is not strictly positive on
    [S_LO, s_max].
    """
    if fg.n != 3:
        raise UnsupportedDimension("eigenfunction reduction implemented for "
                                   "3-dimensional boundaries")
    w2 = asymptotic_data(fg)

    best = None
    for n in COLLOCATION_NODES:
        c = _collocate(fg, w2, n)
        tail = _coefficient_tail(c, fg.s_max)
        if best is None or tail < best[1]:
            best = (c, tail)
        if tail <= TAIL_TOL:
            break
    c, tail = best
    if not tail <= TAIL_LIMIT:
        raise SolverFailure(
            f"eigenfunction collocation did not converge: coefficient tail "
            f"{tail:.3e} at best, above {TAIL_LIMIT:g}"
        )

    return EigenfunctionSolution(fg, w2, c, tail)


# ---------------------------------------------------------------------------
# the compactified metric and its checks

def compactified_metric_field(sol: EigenfunctionSolution) -> MetricField:
    """The compactified metric u^{-2} g as a MetricField on the fill's chart.

    The conformal factor -log u is a jet expression in the jet of s that
    the four-metric's chart call reads: u and its first two derivatives
    come from one solution jet per batch (the Chebyshev series and its
    derivative series), so the curvature engine sees an analytic metric
    throughout. The chart is that of FGMetric.four_metric, 0 < y < y_max.
    """
    return sol.fg.four_metric(lambda s: -log(s.chain(*sol.jet(s.v, 2))))


def compactified_radial_domain(sol: EigenfunctionSolution) -> RadialDomain:
    """Radial domain of the whole compactified fill, y in [0, y_max].

    The volume density of u^{-2} g is Vol(ghat) u^{-4} s^{-4} D(s) ds/dy
    over the boundary; the compactified warp u s tends to 1 at the
    boundary and the density stays bounded up to the tip, so the domain
    spans the fill and integrating 1 gives its finite volume.
    """
    fg = sol.fg
    return RadialDomain(0.0, fg.y_max, fg.boundary, f"{fg.name} compactified fill")


def compactification_checks(sol: EigenfunctionSolution):
    """Measure and gate the scalar bound, umbilicity and Bochner.

    Returns (section, gates): section is the eigenfunction section of
    the analyze report, the solve's own diagnostics with the grid
    measurements below; gates are topology.Check records.

    The gates, in order: scalar-lower-bound (min 12(u^2 - s^2 u'^2)
    - 48 w2 >= -SCALAR_SLACK, sharp at the boundary), on an Einstein
    fill only: both the bound and that formula for the compactified
    scalar need Ric = -3g, so any other fill records scalar_gap
    ungated; totally-geodesic-boundary (max_b |h_b'(0)| below
    SECOND_FORM_TOL: us = 1 + w2 s^2 + s^3 phi has no linear term, so
    the compactified warps h_b/(us)^2 have one exactly when the h_b do,
    and the boundary of u^{-2} g is totally geodesic when none has); and
    the Bochner identity
    -Delta(u^2 - |du|^2) = 2 |Hess u - u g|^2, both sides from one
    solution jet, whose sup defect must stay below BOCHNER_TOL on an
    Einstein fill (bochner-identity) and reach it on any other
    (bochner-flag-trips): the identity needs Ric = -3g, so its failure
    is a sensitive non-Einstein detector.
    """
    fg = sol.fg
    w = fg.warp(np.geomspace(sol.s_lo, (fg.y_max - XI_EDGE) * 0.999, CHECK_GRID))
    s, h, dh = w.s, w.h, w.dh / w.ds[:, None]
    u, du, d2u, d3u = sol.jet(s, 3)
    lv = fg.logderiv(w)

    dwt = 2.0 * u * du - 2.0 * s * du**2 - 2.0 * s**2 * du * d2u
    d2wt = (2.0 * u * d2u - 8.0 * s * du * d2u - 2.0 * s**2 * d2u**2
            - 2.0 * s**2 * du * d3u)
    laplace_wt = s**2 * d2wt + (s**2 * lv - 2.0 * s) * dwt
    hess_sq = (s**2 * d2u + s * du - u) ** 2
    for b, idx in enumerate(fg.blocks):
        hess_sq = hess_sq + len(idx) * (
            (s**2 * dh[:, b] / (2.0 * h[:, b]) - s) * du - u) ** 2
    bochner_sup = float(np.max(np.abs(-laplace_wt - 2.0 * hess_sq)))

    scan = np.geomspace(sol.s_lo, sol.s_hi, 4000)
    rbar = sol.compactified_scalar(scan)
    scalar_min = float(rbar.min())
    scalar_boundary = sol.boundary_scalar
    scalar_gap = scalar_min - scalar_boundary
    second_form = float(np.max(np.abs(fg.boundary_expansion()[1])))
    bochner = ("bochner-identity", "<") if fg.einstein else ("bochner-flag-trips", ">=")

    section = {
        "w2": sol.w2,
        "u_min": sol.u_min,
        "scalar_boundary": scalar_boundary,
        "scalar_min": scalar_min,
        "scalar_gap": scalar_gap,
        "bochner_sup": bochner_sup,
        "second_form_linear": second_form,
        "collocation_nodes": sol.mesh_size,
        "coefficient_tail": sol.coefficient_tail,
        "collocation_residual": sol.collocation_residual,
        "asymptotic_residual": sol.asymptotic_residual(),
    }
    gates = [gate("totally-geodesic-boundary", second_form, SECOND_FORM_TOL),
             gate(bochner[0], bochner_sup, BOCHNER_TOL, bochner[1])]
    if fg.einstein:
        gates.insert(0, gate("scalar-lower-bound", scalar_gap, -SCALAR_SLACK, ">="))
    return section, gates

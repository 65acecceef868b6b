"""Eigenfunction compactification of conformally compact Einstein metrics.

An Einstein metric g with Ric = -3g on a 4-manifold with conformal
boundary carries a distinguished positive eigenfunction: the solution of
Delta u = 4u growing like 1/s at the boundary, where s is the geodesic
defining function of the gauge s^{-2}(ds^2 + g_s). The rescaled metric
u^{-2} g extends across the boundary; the boundary becomes totally
geodesic, and the scalar curvature of the extension is bounded below by
its boundary value 2 R(ghat). This module solves the eigenfunction
equation (reduced along the radial direction for warped-block families),
builds the compactified metric, and verifies the qualitative properties
that make the compactification useful: positivity, the scalar lower
bound, the Bochner identity behind it, and the vanishing second
fundamental form of the boundary.

The radial reduction of the eigenvalue equation is

    s^2 u'' + (s^2 L - 2 s) u' - 4 u = 0,       L = D'/D,

with D the relative volume density of g_s. The boundary s = 0 is a
regular singular point with exponents -1 and 4; the interior end
s = s_max, where the density vanishes to its tip order m, has exponents
0 and 1 - m. The solver removes the growing indicial mode explicitly
(u = 1/s + w2 s + s^2 phi), integrates in the stretched variable
x = ln s, and closes the interior end with a Robin condition matched to
the Frobenius branch of the bounded solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import CubicSpline

from .errors import (
    DomainError,
    NotAvailable,
    PositivityViolation,
    SolverFailure,
    UnsupportedDimension,
)
from .integrals import RadialDomain, radial_section
from .normal_form import FGMetric
from .tensor import MetricField, ScalarField, conformal_rescale

__all__ = [
    "indicial_roots",
    "AsymptoticData",
    "asymptotic_data",
    "robin_series",
    "EigenfunctionSolution",
    "solve_eigenfunction",
    "compactified_metric_field",
    "compactified_radial_domain",
    "CompactificationReport",
    "compactification_checks",
]


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


@dataclass(frozen=True)
class AsymptoticData:
    """Leading expansion data of the normalized growing solution.

    u = 1/s + w2 s + O(s^2): the s^0 slot between the indicial roots is
    forced to vanish because g_s has no linear term. w2_exact is set (a
    Fraction) when the boundary scalar curvature is carried exactly and
    the interior is Einstein; otherwise w2 comes from matching against
    the density expansion and w2_exact is None.
    """

    w2: float
    w2_exact: Optional[Fraction]
    source: str
    roots: tuple
    vanishing_orders: tuple = (0,)


def asymptotic_data(fg: FGMetric, probe: float = 1e-2) -> AsymptoticData:
    """Resolve the coefficient w2 of u = 1/s + w2 s + O(s^2).

    Einstein interiors determine w2 = R(ghat)/24 from the boundary
    alone; that path is exact when the boundary scalar curvature is an
    int or Fraction. Otherwise w2 = -tr(g2)/6 is matched numerically:
    L = D'/D ~ tr(g2) s near s = 0, and tr(g2)/2 is read off from
    L/(2s) with one Richardson step at the probe scale.
    """
    if fg.n != 3:
        raise UnsupportedDimension("eigenfunction reduction implemented for "
                                   "3-dimensional boundaries")
    rhat = fg.boundary.scalar_curvature
    if fg.einstein and isinstance(rhat, (int, Fraction)) \
            and not isinstance(rhat, bool):
        w2x = Fraction(rhat, 24)
        return AsymptoticData(float(w2x), w2x, "boundary-curvature",
                              indicial_roots(3))
    # L/(2s) = tr(g2)/2 + O(s): the density of a non-Einstein family has
    # a cubic term, so the ladder must clear the linear error first
    h = float(probe)
    f = lambda t: float(fg.density_logderiv(t)) / (2.0 * t)
    e1a = 2.0 * f(h / 2.0) - f(h)
    e1b = 2.0 * f(h / 4.0) - f(h / 2.0)
    d2 = (4.0 * e1b - e1a) / 3.0
    return AsymptoticData(-d2 / 3.0, None, "matched", indicial_roots(3))


# ---------------------------------------------------------------------------
# density log-derivative evaluator

def _chebyshev_nodes(a: float, b: float, count: int):
    k = np.arange(count)
    x = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (a + b) + 0.5 * (b - a) * x


class _LogDensity:
    """L = (ln D)' and its derivative, cheap enough for collocation meshes.

    Families built from a radial profile pay a root solve of the radial
    map per density call, which dominates the solve. Those get a
    one-time cubic-spline table of M = L (s_max - s) against x = ln s
    (the factor absorbs the simple pole of L at the interior end),
    sampled in the forward direction of the map where each point costs
    one quadrature panel. dL stays on the exact closures: it is only
    evaluated on small diagnostic grids, where accuracy matters more
    than speed.
    """

    def __init__(self, fg: FGMetric, s_lo: float, x_spacing: float = 1e-3):
        self.fg = fg
        self.s_cap = fg.s_max
        self.tabulated = fg.radial_map is not None
        self._spl = None
        if not self.tabulated:
            return
        x_min = np.log(0.2 * s_lo)
        # the table stops a little short of the interior end: the map's
        # endpoint estimate is only good to ~1e-11, which turns the
        # regularized M into a quasi-pole within ~1e-4 of the tip
        x_max = np.log(self.s_cap * (1.0 - 7.5e-4))
        _, ss = fg.radial_map.sample(x_spacing, x_min, x_max)
        x = np.log(ss)
        keep = np.concatenate([[True], np.diff(x) > 1e-12])
        x, ss = x[keep], ss[keep]
        m_vals = fg.density_logderiv(ss) * (self.s_cap - ss)
        self._spl = CubicSpline(x, m_vals)
        self.table_size = int(x.size)

    def L(self, s):
        if self._spl is None:
            return self.fg.density_logderiv(s)
        s = np.asarray(s, dtype=float)
        return self._spl(np.log(s)) / (self.s_cap - s)

    def dL(self, s):
        return self.fg.density_logderiv2(s)


def robin_series(fg: FGMetric, logdensity: Optional[Callable] = None,
                 degree: int = 6, fit_window: tuple = (0.01, 0.20),
                 fit_nodes: int = 24):
    """Frobenius coefficients of the bounded branch at the interior end.

    In xi = s_max - s the interior end is a regular singular point with
    exponents 0 and 1 - m (m the tip order of the density), so the
    bounded branch p(xi) = sum a_k xi^k is fixed by a0 = 1, a1 = 0. The
    regular part of the ODE coefficient -(L - 2/s) - m/xi is fit by a
    degree-``degree`` polynomial on a Chebyshev grid spanning
    fit_window * s_max in xi, and the power series follows from the
    recurrence. Returns the coefficient array of length degree + 2.
    """
    sp_ = fg.s_max
    m = fg.tip_multiplicity
    if m is None:
        raise NotAvailable("the interior closure order (tip multiplicity) "
                           "is required for the Robin series")
    L = (lambda s: fg.density_logderiv(s)) if logdensity is None else logdensity
    xis = _chebyshev_nodes(fit_window[0] * sp_, fit_window[1] * sp_, fit_nodes)
    w = -(np.asarray(L(sp_ - xis)) - 2.0 / (sp_ - xis)) - m / xis
    cols = np.stack([xis**j for j in range(degree)], axis=1)
    sc = np.linalg.norm(cols, axis=0)
    c, *_ = np.linalg.lstsq(cols / sc, w, rcond=None)
    c = c / sc
    qs = [4.0 * (j + 1) / sp_ ** (j + 2) for j in range(degree + 2)]
    top = degree + 1
    a = np.zeros(top + 1)
    a[0] = 1.0
    for k in range(2, top + 1):
        qsum = sum(qs[j] * a[k - 2 - j] for j in range(0, k - 1))
        csum = sum(c[j] * (k - 1 - j) * a[k - 1 - j]
                   for j in range(0, min(degree, k - 1)))
        a[k] = (qsum - csum) / (k * (k - 1 + m))
    return a


# ---------------------------------------------------------------------------
# the solver

@dataclass
class EigenfunctionSolution:
    """Solved positive eigenfunction in the gauge s^{-2}(ds^2 + g_s).

    u = 1/s + w2 s + s^2 phi with phi the collocation solution on
    [s_lo, s_hi]. Below s_lo the closures continue with the asymptote
    (phi frozen at its boundary-end value); above s_hi they refuse.
    First derivatives come from the interpolant, u'' from the equation
    itself and u''' from its s-derivative, so no finite differencing of
    the nearly-cancelling combination 1/s + w2 s ever happens.
    """

    fg: FGMetric
    w2: float
    w2_exact: Optional[Fraction]
    s_lo: float
    s_hi: float
    xi_edge: float
    robin_coefficients: np.ndarray
    mesh_size: int
    collocation_residual: float
    u_min: float
    _sol: object = field(repr=False)
    _logdensity: object = field(repr=False)

    # -- pointwise closures -------------------------------------------------

    def _clamped(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s <= 0.0) or np.any(s > self.s_hi * (1.0 + 1e-12)):
            raise DomainError(
                f"s must lie in (0, {self.s_hi}]; the solution does not "
                "extend past the Robin edge"
            )
        sc = np.minimum(np.maximum(s, self.s_lo), self.s_hi)
        phi, dphix = self._sol(np.log(sc))
        dphi = np.where(s >= self.s_lo, dphix / sc, 0.0)
        return s, sc, phi, dphi

    def phi(self, s):
        """The regular remainder phi = (u - 1/s - w2 s)/s^2."""
        scalar = np.ndim(s) == 0
        out = self._clamped(s)[2]
        return float(out[0]) if scalar else out

    def u(self, s):
        scalar = np.ndim(s) == 0
        s, _, phi, _ = self._clamped(s)
        out = 1.0 / s + self.w2 * s + s**2 * phi
        return float(out[0]) if scalar else out

    def du(self, s):
        scalar = np.ndim(s) == 0
        s, _, phi, dphi = self._clamped(s)
        out = -1.0 / s**2 + self.w2 + 2.0 * s * phi + s**2 * dphi
        return float(out[0]) if scalar else out

    def d2u(self, s):
        scalar = np.ndim(s) == 0
        s, sc, phi, dphi = self._clamped(s)
        u = 1.0 / s + self.w2 * s + s**2 * phi
        du = -1.0 / s**2 + self.w2 + 2.0 * s * phi + s**2 * dphi
        ode = (2.0 / sc - np.asarray(self._logdensity.L(sc))) * du + 4.0 * u / sc**2
        out = np.where(s >= self.s_lo, ode, 2.0 / s**3 + 2.0 * phi)
        return float(out[0]) if scalar else out

    def d3u(self, s):
        scalar = np.ndim(s) == 0
        s, sc, phi, dphi = self._clamped(s)
        u = 1.0 / s + self.w2 * s + s**2 * phi
        du = -1.0 / s**2 + self.w2 + 2.0 * s * phi + s**2 * dphi
        lv = np.asarray(self._logdensity.L(sc))
        dlv = np.asarray(self._logdensity.dL(sc))
        d2 = (2.0 / sc - lv) * du + 4.0 * u / sc**2
        ode = (2.0 / sc**2 - dlv) * du + (2.0 / sc - lv) * d2 - 8.0 * u / sc**3
        out = np.where(s >= self.s_lo, ode, -6.0 / s**4)
        return float(out[0]) if scalar else out

    # -- derived quantities ---------------------------------------------------

    @property
    def boundary_scalar(self) -> float:
        """Boundary value of the compactified scalar curvature, 48 w2."""
        return 48.0 * self.w2

    def compactified_scalar(self, s):
        """Scalar curvature of u^{-2} g along the radial direction."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        u, du = self.u(s), self.du(s)
        out = 12.0 * (u**2 - s**2 * du**2)
        return float(out[0]) if scalar else out

    def asymptotic_residual(self, s_cap: Optional[float] = None,
                            count: int = 200) -> float:
        """sup |u s - (1 + w2 s^2)| over a near-boundary window.

        The compactified warp u s should follow its quadratic model up
        to O(s^3); large values mean the matched w2 is wrong or the
        collocation went bad near the boundary.
        """
        cap = min(0.05, 0.5 * self.s_hi) if s_cap is None else float(s_cap)
        s = np.geomspace(self.s_lo, max(cap, 2.0 * self.s_lo), count)
        phi = self._sol(np.log(s))[0]
        return float(np.max(np.abs(s**3 * phi)))

    def equation_residual(self, count: int = 400) -> float:
        """Sup residual of the first-order system on a dense grid.

        Uses the interpolant's own derivative, so this measures the
        interpolation quality between collocation nodes rather than the
        solver's internal (already normalized) residual estimate.
        """
        x = np.linspace(np.log(self.s_lo), np.log(self.s_hi), count)
        y = self._sol(x)
        dy = self._sol(x, 1)
        s = np.exp(x)
        lv = np.asarray(self._logdensity.L(s))
        rhs = ((1.0 - self.w2 * s**2) * lv + 6.0 * self.w2 * s) / s**2 \
            - (1.0 + s * lv) * y[1] + (6.0 - 2.0 * s * lv) * y[0]
        r1 = np.max(np.abs(dy[0] - y[1]))
        r2 = np.max(np.abs(dy[1] - rhs))
        return float(max(r1, r2))


def solve_eigenfunction(fg: FGMetric, s_lo: float = 1e-3,
                        xi_edge: float = 0.05, tol: float = 1e-11,
                        mesh: int = 200, max_nodes: int = 50000,
                        w2: Optional[float] = None,
                        degree: int = 6) -> EigenfunctionSolution:
    """Solve Delta u = 4u with u ~ 1/s by collocation in x = ln s.

    The substitution u = 1/s + w2 s + s^2 phi removes the growing
    indicial mode and the known part of the regular one, leaving a
    remainder that vanishes linearly at the boundary; phi = 0 at s_lo
    is then accurate to O(s_lo^3) and the interior end is closed at
    s_max - xi_edge by a Robin pairing with the Frobenius branch from
    robin_series. The log variable keeps the collocation mesh graded
    toward the boundary without manual node placement.

    Raises SolverFailure when the collocation does not converge and
    PositivityViolation when the solved u is not strictly positive.
    """
    if fg.n != 3:
        raise UnsupportedDimension("eigenfunction reduction implemented for "
                                   "3-dimensional boundaries")
    data = asymptotic_data(fg) if w2 is None else None
    w2_exact = data.w2_exact if data is not None else None
    w2v = float(data.w2 if data is not None else w2)

    xi = float(xi_edge)
    s_hi = fg.s_max - xi
    if not (0.0 < s_lo < s_hi):
        raise DomainError("need 0 < s_lo < s_max - xi_edge")

    logdensity = _LogDensity(fg, s_lo)
    a = robin_series(fg, logdensity.L, degree=degree)
    powers = np.arange(a.size)
    p_e = float(np.sum(a * xi**powers))
    dp_e = float(np.sum(powers[1:] * a[1:] * xi ** (powers[1:] - 1)))

    def fun(x, y):
        s = np.exp(x)
        lv = np.asarray(logdensity.L(s))
        rhs = ((1.0 - w2v * s**2) * lv + 6.0 * w2v * s) / s**2
        phi, dphi = y
        d2 = rhs - (1.0 + s * lv) * dphi + (6.0 - 2.0 * s * lv) * phi
        return np.vstack([dphi, d2])

    def bc(ya, yb):
        phi, dphix = yb
        dphi = dphix / s_hi
        u = 1.0 / s_hi + w2v * s_hi + s_hi**2 * phi
        du = -1.0 / s_hi**2 + w2v + 2.0 * s_hi * phi + s_hi**2 * dphi
        return np.array([ya[0], du * p_e + u * dp_e])

    xg = np.linspace(np.log(s_lo), np.log(s_hi), mesh)
    sol = solve_bvp(fun, bc, xg, np.zeros((2, xg.size)), tol=tol,
                    max_nodes=max_nodes)
    if sol.status != 0:
        raise SolverFailure(f"eigenfunction collocation failed: {sol.message}")

    probe = np.geomspace(s_lo, s_hi, 2000)
    phi = sol.sol(np.log(probe))[0]
    uu = 1.0 / probe + w2v * probe + probe**2 * phi
    u_min = float(uu.min())
    if u_min <= 0.0:
        raise PositivityViolation(
            f"solved eigenfunction attains {u_min:.3e} <= 0; the family is "
            "outside the class this compactification covers"
        )

    return EigenfunctionSolution(
        fg=fg, w2=w2v, w2_exact=w2_exact, s_lo=float(s_lo), s_hi=float(s_hi),
        xi_edge=xi, robin_coefficients=a, mesh_size=int(sol.x.size),
        collocation_residual=float(np.max(sol.rms_residuals)), u_min=u_min,
        _sol=sol.sol, _logdensity=logdensity,
    )


# ---------------------------------------------------------------------------
# the compactified metric and its checks

def compactified_metric_field(sol: EigenfunctionSolution,
                              s_floor: float = 1e-3,
                              s_ceiling: Optional[float] = None) -> MetricField:
    """The compactified metric u^{-2} g as a MetricField on the collar chart.

    Derivatives of the conformal factor come from the solution closures
    (interpolant and equation), so the curvature engine sees an analytic
    metric throughout.
    """
    ceiling = sol.s_hi if s_ceiling is None else float(s_ceiling)
    base = sol.fg.four_metric(s_floor=s_floor, s_ceiling=ceiling)

    def value(pts):
        return -np.log(sol.u(np.asarray(pts, dtype=float)[:, 0]))

    def grad(pts):
        pts = np.asarray(pts, dtype=float)
        s = pts[:, 0]
        out = np.zeros_like(pts)
        out[:, 0] = -sol.du(s) / sol.u(s)
        return out

    def hess(pts):
        pts = np.asarray(pts, dtype=float)
        s = pts[:, 0]
        u, du, d2u = sol.u(s), sol.du(s), sol.d2u(s)
        out = np.zeros((pts.shape[0], pts.shape[1], pts.shape[1]))
        out[:, 0, 0] = (du**2 - d2u * u) / u**2
        return out

    return conformal_rescale(base, ScalarField(value, grad, hess))


def compactified_radial_domain(sol: EigenfunctionSolution, s_lo: float = 0.0,
                               s_hi: Optional[float] = None, panels: int = 12,
                               label: str = "") -> RadialDomain:
    """Radial domain carrying the volume measure of u^{-2} g.

    The reduced measure is Vol(ghat) (u s)^{-4} D(s); the compactified
    warp u s tends to 1 at the boundary, so s_lo = 0 is admissible and
    integrating 1 gives the finite volume of the compactified collar.
    """
    fg = sol.fg
    hi = sol.s_hi if s_hi is None else float(s_hi)
    vol = fg.boundary.volume

    def measure(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return vol * fg.density(s) / (sol.u(s) * s) ** 4

    return RadialDomain(float(s_lo), hi, measure,
                        radial_section(fg.boundary.default_point),
                        panels=panels,
                        label=label or f"{fg.name} compactified collar")


def _second_form_linear(sol: EigenfunctionSolution, window: tuple,
                        degree: int, fit_nodes: int) -> float:
    """Max over blocks of the linear coefficient of h_b/(us)^2 at s = 0.

    The compactified warp of each block is k_b = h_b/(us)^2 with
    k_b(0) = 1; a nonzero linear term is (twice) the block's principal
    curvature at the boundary. Fits k_b - 1 against s..s^degree, so the
    known value at 0 is built in rather than estimated.
    """
    fg = sol.fg
    sm = fg.s_max
    s = _chebyshev_nodes(window[0] * sm, window[1] * sm, fit_nodes)
    us2 = (sol.u(s) * s) ** 2
    cols = np.stack([s**j for j in range(1, degree + 1)], axis=1)
    sc = np.linalg.norm(cols, axis=0)
    worst = 0.0
    for blk in fg.blocks:
        k = blk.h_at(s) / us2 - 1.0
        coef, *_ = np.linalg.lstsq(cols / sc, k, rcond=None)
        worst = max(worst, abs(float(coef[0] / sc[0])))
    return worst


@dataclass(frozen=True)
class CompactificationReport:
    """Grid verification of the qualitative compactification properties."""

    name: str
    u_min: float
    scalar_boundary: float
    scalar_min: float
    scalar_gap: float
    bochner_sup: float
    second_form_linear: float
    collocation_residual: float
    asymptotic_residual: float
    positive: bool
    scalar_bounded_below: bool
    totally_geodesic: bool
    bochner_identity: bool

    @property
    def einstein_consistent(self) -> bool:
        """All four qualitative checks together."""
        return (self.positive and self.scalar_bounded_below
                and self.totally_geodesic and self.bochner_identity)


def compactification_checks(sol: EigenfunctionSolution, grid: int = 240,
                            scalar_slack: float = 1e-4,
                            bochner_tol: float = 1e-6,
                            second_form_tol: float = 1e-6,
                            fit_window: tuple = (0.005, 0.06),
                            fit_degree: int = 5,
                            fit_nodes: int = 16) -> CompactificationReport:
    """Verify positivity, the scalar bound, Bochner, and umbilicity.

    The scalar bound is min 12(u^2 - s^2 u'^2) >= 48 w2 - scalar_slack
    (sharp at the boundary for Einstein interiors). The Bochner check
    evaluates both sides of -Delta(u^2 - |du|^2) = 2 |Hess u - u g|^2
    from the solution closures; the identity needs Ric = -3g, so its
    failure is a sensitive non-Einstein detector. Umbilicity is the
    vanishing linear term of the compactified block warps.
    """
    fg = sol.fg
    if fg.blocks is None:
        raise NotAvailable("compactification checks need the warped-block "
                           "structure of the family")
    s = np.geomspace(sol.s_lo, sol.s_hi * 0.999, grid)
    u, du = sol.u(s), sol.du(s)
    d2u, d3u = sol.d2u(s), sol.d3u(s)
    lv = np.asarray(sol._logdensity.L(s))

    dwt = 2.0 * u * du - 2.0 * s * du**2 - 2.0 * s**2 * du * d2u
    d2wt = (2.0 * u * d2u - 8.0 * s * du * d2u - 2.0 * s**2 * d2u**2
            - 2.0 * s**2 * du * d3u)
    laplace_wt = s**2 * d2wt + (s**2 * lv - 2.0 * s) * dwt
    hess_sq = (s**2 * d2u + s * du - u) ** 2
    for blk in fg.blocks:
        hb = blk.h_at(s)
        dhb = blk.dh_at(s)
        hess_sq = hess_sq + len(blk.indices) * (
            (s**2 * dhb / (2.0 * hb) - s) * du - u) ** 2
    bochner_sup = float(np.max(np.abs(-laplace_wt - 2.0 * hess_sq)))

    scan = np.geomspace(sol.s_lo, sol.s_hi, 4000)
    rbar = sol.compactified_scalar(scan)
    scalar_min = float(rbar.min())
    scalar_boundary = sol.boundary_scalar
    second_form = _second_form_linear(sol, fit_window, fit_degree, fit_nodes)

    return CompactificationReport(
        name=fg.name,
        u_min=sol.u_min,
        scalar_boundary=scalar_boundary,
        scalar_min=scalar_min,
        scalar_gap=scalar_min - scalar_boundary,
        bochner_sup=bochner_sup,
        second_form_linear=second_form,
        collocation_residual=sol.collocation_residual,
        asymptotic_residual=sol.asymptotic_residual(),
        positive=sol.u_min > 0.0,
        scalar_bounded_below=scalar_min >= scalar_boundary - scalar_slack,
        totally_geodesic=second_form < second_form_tol,
        bochner_identity=bochner_sup < bochner_tol,
    )

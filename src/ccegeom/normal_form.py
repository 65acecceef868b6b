"""Geodesic normal form for conformally compact metrics.

A conformally compact metric is represented here in the gauge

    g = s^{-2} (ds^2 + g_s),    g_s -> ghat  as  s -> 0,

where s is the geodesic defining function of the boundary representative
ghat. The family g_s carries all asymptotic information; for boundary
dimension 3 it expands as

    g_s = ghat + g2 s^2 + g3 s^3 + ...

with g2 determined locally by the boundary curvature and g3 trace-free
for Einstein interiors. This module holds the FGMetric container, the
closed form of g2, least-squares extraction of expansion coefficients
from sampled g_s data, and construction of the normal form from a
cohomogeneity-one radial profile (the gauge condition reduced to a
single radial ODE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    CharacteristicFailure,
    DomainError,
    FitConditioning,
    NotAvailable,
    UnsupportedDimension,
)
from .quadrature import _reference_rule
from .tensor import Chart, MetricField, curvature

__all__ = [
    "BoundaryGeometry",
    "BlockWarp",
    "FGMetric",
    "ExpansionSeries",
    "RadialProfile",
    "ProfileBlock",
    "RadialMap",
    "order2_coefficient",
    "extract_expansion",
    "normal_form_from_profile",
    "default_ladder",
    "gs_table_rows",
    "write_gs_table",
    "fg_document",
]


# ---------------------------------------------------------------------------
# containers

@dataclass(frozen=True)
class BoundaryGeometry:
    """A closed 3-dimensional boundary metric with exact global data.

    scalar_curvature is stored exactly (int or Fraction) when the model
    permits, so downstream coefficient formulas can stay rational.
    """

    name: str
    field: MetricField
    volume: float
    scalar_curvature: object
    default_point: tuple

    @property
    def dim(self) -> int:
        return self.field.dim


@dataclass(frozen=True)
class BlockWarp:
    """One warped block of g_s: the submatrix ghat|indices scaled by h(s).

    jet(s) takes an array of s values and returns (h, dh, d2h): the
    squared warp factor and its first two s-derivatives, each shaped
    like s.
    """

    indices: tuple
    jet: Callable


class FGMetric:
    """A metric in the normal form s^{-2}(ds^2 + g_s).

    Two data layouts are supported. Homogeneous block models supply
    ``blocks`` (warped submatrices of the boundary metric), which give
    closed-form densities and a reconstructable 4-metric; every reader
    takes h_b, h_b' and h_b'' from one jet call per block. Generic
    families supply ``gs_func(s_array, boundary_point) -> (Ns, 3, 3)``
    and support expansion extraction only.
    """

    def __init__(self, boundary: BoundaryGeometry, s_max: float,
                 blocks: Optional[Sequence[BlockWarp]] = None,
                 gs_func=None,
                 tip_multiplicity: Optional[int] = None,
                 einstein: bool = False,
                 yamabe_positive: bool = True,
                 radial_map: Optional["RadialMap"] = None,
                 name: str = "",
                 family: str = "",
                 parameters: Optional[dict] = None):
        if blocks is None and gs_func is None:
            raise ValueError("need blocks or gs_func")
        self.boundary = boundary
        self.n = boundary.dim
        self.s_max = float(s_max)
        self.blocks = tuple(blocks) if blocks is not None else None
        self._gs_func = gs_func
        self.tip_multiplicity = tip_multiplicity
        self.einstein = einstein
        self.yamabe_positive = yamabe_positive
        self.radial_map = radial_map
        self.name = name or family
        self.family = family
        self.parameters = dict(parameters or {})
        self.gauge_residual: Optional[float] = None

    # -- the boundary-metric family ------------------------------------

    def gs(self, s, p=None):
        """Evaluate g_s at boundary point p -> (Ns, n, n)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any((s <= 0) | (s > self.s_max * (1 + 1e-12))):
            raise DomainError(f"s values must lie in (0, {self.s_max}]")
        if p is None:
            p = self.boundary.default_point
        if self._gs_func is not None:
            return np.asarray(self._gs_func(s, p), dtype=float)
        ghat = self.boundary.field.g(np.asarray(p, dtype=float))
        out = np.zeros((s.size, self.n, self.n))
        for blk in self.blocks:
            idx = np.asarray(blk.indices)
            sub = ghat[np.ix_(idx, idx)]
            out[:, idx[:, None], idx[None, :]] = blk.jet(s)[0][:, None, None] * sub
        return out

    def boundary_limit_residual(self, ladder=None, p=None) -> float:
        """Extrapolated value of sup|g_s - ghat| at s = 0 (must be ~0)."""
        ladder = np.asarray(default_ladder() if ladder is None else ladder)
        if p is None:
            p = self.boundary.default_point
        ghat = self.boundary.field.g(np.asarray(p, dtype=float))
        dev = self.gs(ladder, p) - ghat[None]
        sup = np.max(np.abs(dev.reshape(ladder.size, -1)), axis=1)
        cols = np.stack([np.ones_like(ladder), ladder**2, ladder**3], axis=1)
        coef, *_ = np.linalg.lstsq(cols, sup, rcond=None)
        return abs(float(coef[0]))

    # -- densities (block models only) ----------------------------------

    def _require_blocks(self):
        if self.blocks is None:
            raise NotAvailable(
                "operation needs the warped-block structure; this family was "
                "supplied as raw g_s samples"
            )

    def density(self, s):
        """D(s) = sqrt(det g_s / det ghat) for block models."""
        self._require_blocks()
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.ones_like(s)
        for blk in self.blocks:
            out = out * blk.jet(s)[0] ** (len(blk.indices) / 2.0)
        return float(out[0]) if scalar else out

    def density_logderiv(self, s):
        """D'(s)/D(s) for block models."""
        self._require_blocks()
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        for blk in self.blocks:
            h, dh, _ = blk.jet(s)
            out = out + (len(blk.indices) / 2.0) * dh / h
        return float(out[0]) if scalar else out

    def density_logderiv2(self, s):
        """Second derivative of ln D for block models."""
        self._require_blocks()
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        for blk in self.blocks:
            h, dh, d2h = blk.jet(s)
            ratio = dh / h
            out = out + (len(blk.indices) / 2.0) * (d2h / h - ratio**2)
        return float(out[0]) if scalar else out

    # -- reconstruction of the 4-metric ---------------------------------

    def four_metric(self, s_floor: float = 1e-3,
                    s_ceiling: Optional[float] = None) -> MetricField:
        """The metric s^{-2}(ds^2 + g_s) as a MetricField on the collar chart.

        Derivatives come from the block warp jets and the boundary
        metric's analytic derivatives, so curvature of the reconstruction
        is as accurate as the warp data itself.
        """
        self._require_blocks()
        bf = self.boundary.field
        n = self.n
        d = n + 1
        hi = self.s_max if s_ceiling is None else s_ceiling
        chart = Chart(("s",) + tuple(bf.chart.names),
                      (s_floor,) + tuple(bf.chart.lo),
                      (hi,) + tuple(bf.chart.hi))
        blocks = self.blocks

        def assemble(pts, order):
            pts = np.asarray(pts, dtype=float)
            s = pts[:, 0]
            x = pts[:, 1:]
            npts = pts.shape[0]
            gb = bf.g(x, check=False)
            dgb = bf.dg(x) if order > 0 else None
            d2gb = bf.d2g(x) if order > 1 else None
            g4 = np.zeros((npts, d, d))
            dg4 = np.zeros((npts, d, d, d)) if order > 0 else None
            d2g4 = np.zeros((npts, d, d, d, d)) if order > 1 else None
            g4[:, 0, 0] = s**-2.0
            if order > 0:
                dg4[:, 0, 0, 0] = -2.0 * s**-3.0
            if order > 1:
                d2g4[:, 0, 0, 0, 0] = 6.0 * s**-4.0
            for blk in blocks:
                h, dh, d2h = blk.jet(s)
                prof = h * s**-2.0
                dprof = dh * s**-2.0 - 2.0 * h * s**-3.0
                d2prof = d2h * s**-2.0 - 4.0 * dh * s**-3.0 + 6.0 * h * s**-4.0
                for ia in blk.indices:
                    for ib in blk.indices:
                        gab = gb[:, ia, ib]
                        g4[:, ia + 1, ib + 1] += prof * gab
                        if order > 0:
                            dg4[:, 0, ia + 1, ib + 1] += dprof * gab
                            dg4[:, 1:, ia + 1, ib + 1] += (
                                prof[:, None] * dgb[:, :, ia, ib]
                            )
                        if order > 1:
                            d2g4[:, 0, 0, ia + 1, ib + 1] += d2prof * gab
                            d2g4[:, 0, 1:, ia + 1, ib + 1] += (
                                dprof[:, None] * dgb[:, :, ia, ib]
                            )
                            d2g4[:, 1:, 0, ia + 1, ib + 1] += (
                                dprof[:, None] * dgb[:, :, ia, ib]
                            )
                            d2g4[:, 1:, 1:, ia + 1, ib + 1] += (
                                prof[:, None, None] * d2gb[:, :, :, ia, ib]
                            )
            return g4, dg4, d2g4

        def func(pts):
            return assemble(pts, 0)[0]

        def dfunc(pts):
            return assemble(pts, 1)[1]

        def d2func(pts):
            return assemble(pts, 2)[2]

        return MetricField(chart, func, dfunc, d2func,
                           name=(self.name or "fg") + "/normal-form")


@dataclass
class ExpansionSeries:
    """Least-squares expansion coefficients of s -> g_s at one point."""

    orders: tuple
    coefficients: list
    fit_residuals: dict
    condition_number: float
    ladder: np.ndarray
    gauge_coefficient: Optional[np.ndarray] = None

    def coefficient(self, order: int):
        return self.coefficients[self.orders.index(order)]


# ---------------------------------------------------------------------------
# closed-form second coefficient

def order2_coefficient(boundary: MetricField, n: int, p) -> np.ndarray:
    """Closed form of the s^2 coefficient of g_s for Einstein interiors.

    g2 = -(1/(n-2)) (Ric - (R/(2(n-1))) g) of the boundary metric, with
    n the boundary dimension. Singular for n = 2.
    """
    if n == 2:
        raise UnsupportedDimension("the order-2 coefficient has a 1/(n-2) factor")
    if n < 2:
        raise UnsupportedDimension("boundary dimension must be at least 2")
    if boundary.dim != n:
        raise DomainError(f"boundary metric has dim {boundary.dim}, expected n = {n}")
    pack = curvature(boundary, np.asarray([p], dtype=float))
    ric = pack.ricci[0]
    rhat = pack.scalar[0]
    ghat = pack.metric[0]
    return -(ric - (rhat / (2.0 * (n - 1))) * ghat) / (n - 2.0)


# ---------------------------------------------------------------------------
# expansion extraction

def default_ladder(s0: float = 0.2, ratio: float = 0.7, rungs: int = 12) -> np.ndarray:
    """Geometric s-ladder used by the expansion fits."""
    return s0 * ratio ** np.arange(rungs)


def extract_expansion(fg: FGMetric, max_order: int = 3, p=None,
                      ladder=None, diagnose_gauge: bool = False,
                      tail_orders=(4, 5)) -> ExpansionSeries:
    """Fit g_s(s, p) against {1, s^2, ..., s^max_order} on an s-ladder.

    Tail columns (s^4, s^5 by default) absorb the smooth remainder so the
    reported coefficients are not polluted by truncation; they are not
    part of the returned orders. With diagnose_gauge a linear column is
    appended and its coefficient reported: in the geodesic gauge the
    family has no s^1 term, so its size measures gauge violation.
    """
    if max_order > fg.n:
        raise DomainError(
            f"coefficients above order {fg.n} are global data, not local fits"
        )
    if max_order < 2:
        raise DomainError("max_order below 2 extracts nothing beyond the boundary metric")
    ladder = np.asarray(default_ladder() if ladder is None else ladder, dtype=float)
    if ladder.size < 5:
        raise DomainError("ladder needs at least 5 rungs")
    if p is None:
        p = fg.boundary.default_point
    data = fg.gs(ladder, p)  # (L, n, n)
    nmat = data.shape[1]
    orders = tuple([0] + list(range(2, max_order + 1)))
    fit_orders = list(orders) + [t for t in tail_orders if t > max_order]
    if diagnose_gauge:
        fit_orders = fit_orders + [1]
    cols = np.stack([ladder**k for k in fit_orders], axis=1)
    scale = np.linalg.norm(cols, axis=0)
    cond = float(np.linalg.cond(cols / scale))
    if cond > 1e8:
        raise FitConditioning(f"expansion design matrix condition {cond:.2e} > 1e8")
    rhs = data.reshape(ladder.size, -1)
    sol, *_ = np.linalg.lstsq(cols / scale, rhs, rcond=None)
    sol = sol / scale[:, None]
    coeffs = {k: sol[i].reshape(nmat, nmat) for i, k in enumerate(fit_orders)}
    for k in coeffs:  # symmetrize against roundoff
        coeffs[k] = 0.5 * (coeffs[k] + coeffs[k].T)
    residuals = {}
    for k in orders:
        partial = sum(coeffs[j][None] * (ladder**j)[:, None, None]
                      for j in fit_orders if j <= k)
        residuals[k] = float(np.max(np.abs(data - partial)))
    gauge = coeffs.get(1) if diagnose_gauge else None
    return ExpansionSeries(
        orders=orders,
        coefficients=[coeffs[k] for k in orders],
        fit_residuals=residuals,
        condition_number=cond,
        ladder=ladder,
        gauge_coefficient=gauge,
    )


# ---------------------------------------------------------------------------
# normal form from a radial profile

@dataclass(frozen=True)
class ProfileBlock:
    """Angular block of a cohomogeneity-one metric: beta_sq(r) * ghat|indices."""

    indices: tuple
    beta_sq: Callable
    dbeta_sq: Callable
    d2beta_sq: Callable


@dataclass(frozen=True)
class RadialProfile:
    """Cohomogeneity-one metric a(r)^2 dr^2 + sum_b beta_sq_b(r) ghat_b.

    boundary_side says which end of the radial interval carries the
    conformal boundary ("upper" allows r_boundary = inf); the other end
    is the interior end r_interior. interior_sqrt_vanishing marks
    profiles where a(r) blows up like (r - r_interior)^{-1/2} there (a
    horizon-type closure), which the arclength integrals remove with a
    square-root substitution.
    """

    name: str
    boundary: BoundaryGeometry
    blocks: tuple
    radial_factor: Callable
    radial_factor_deriv: Callable
    r_interior: float
    r_boundary: float
    boundary_side: str = "upper"
    interior_sqrt_vanishing: bool = False
    tip_multiplicity: Optional[int] = None
    einstein: bool = True
    yamabe_positive: bool = True
    family: str = ""
    parameters: Optional[dict] = None


class RadialMap:
    """The geodesic defining function along a radial profile.

    Solves d(ln s)/dr = +/- a(r) (s decreasing toward the boundary end)
    by composite quadrature over a fixed graded edge table, then fixes
    the multiplicative constant so that s^2 g restricts to the declared
    boundary metric. Queries refine from the nearest table edge with one
    short panel of the cached Gauss-Legendre reference rule, so the map
    is deterministic and accurate to quadrature precision.
    """

    #: geometric grading depth toward the boundary end
    _DEPTH = 20
    #: extra depth used only by the x = 1/r region (cancellation-free)
    _DEPTH_INF = 33

    def __init__(self, profile: RadialProfile, order: int = 24):
        if profile.boundary_side not in ("upper", "lower"):
            raise DomainError("boundary_side must be 'upper' or 'lower'")
        if profile.boundary_side == "lower" and profile.interior_sqrt_vanishing:
            raise NotAvailable(
                "square-root interior ends are implemented for upper-side "
                "boundaries only"
            )
        if profile.boundary_side == "lower" and not np.isfinite(profile.r_interior):
            raise DomainError("lower-side boundary requires a finite interior end")
        self.profile = profile
        self.order = order
        # ln s decreases toward the boundary end
        self._sign = -1.0 if profile.boundary_side == "upper" else 1.0
        self._tau_region = None
        self._x_region = None
        self._rcache = {}
        self._build_edges()
        self._accumulate()
        self._normalize()

    # -- construction -----------------------------------------------------

    def _build_edges(self):
        pr = self.profile
        edges = []
        if pr.boundary_side == "upper":
            r_int, r_bdy = pr.r_interior, pr.r_boundary
            if pr.interior_sqrt_vanishing:
                span = 0.25 * (r_bdy - r_int) if np.isfinite(r_bdy) else 1.0
                taus = np.sqrt(span) * np.linspace(0.0, 1.0, 17)
                self._tau_region = (r_int, r_int + span)
                edges.extend((r_int + taus**2).tolist())
                start = r_int + span
            else:
                start = r_int
                edges.append(start)
            if np.isfinite(r_bdy):
                gaps = (r_bdy - start) * 0.5 ** np.arange(1, self._DEPTH + 1)
                edges.extend((r_bdy - gaps).tolist())
            else:
                r_direct = max(4.0, 2.0 * abs(start) + 2.0)
                edges.extend(np.linspace(start, r_direct, 25)[1:].tolist())
                xs = (1.0 / r_direct) * 0.5 ** np.arange(1, self._DEPTH_INF + 1)
                edges.extend((1.0 / xs).tolist())
                self._x_region = (r_direct, np.inf)
        else:
            r_bdy, r_int = pr.r_boundary, pr.r_interior
            if not (r_bdy < r_int):
                raise DomainError("lower-side boundary requires r_boundary < r_interior")
            gaps = (r_int - r_bdy) * 0.5 ** np.arange(1, self._DEPTH + 1)
            edges.extend((r_bdy + gaps).tolist())
            edges.append(r_int)
        self.edges = np.asarray(sorted(set(float(e) for e in edges)))

    def _panel(self, lo: float, hi: float):
        """One Gauss-Legendre panel on [lo, hi] from the cached reference rule.

        The same arithmetic as gauss_legendre_rule(lo, hi, 1, order),
        without building its edge array.
        """
        x, w = _reference_rule(self.order)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        return mid + half * x, half * w

    def _segment_integral(self, a: float, b: float) -> float:
        """Integral of the radial factor over [a, b] with substitutions."""
        if b <= a:
            return 0.0
        pr = self.profile
        f = pr.radial_factor
        if self._tau_region is not None and b <= self._tau_region[1] + 1e-12:
            ta = np.sqrt(max(a - pr.r_interior, 0.0))
            tb = np.sqrt(b - pr.r_interior)
            nodes, wts = self._panel(ta, tb)
            vals = np.asarray(f(pr.r_interior + nodes**2)) * 2.0 * nodes
            return float(np.dot(wts, vals))
        if self._x_region is not None and a >= self._x_region[0] - 1e-12:
            nodes, wts = self._panel(1.0 / b, 1.0 / a)
            vals = np.asarray(f(1.0 / nodes)) / nodes**2
            return float(np.dot(wts, vals))
        nodes, wts = self._panel(a, b)
        return float(np.dot(wts, np.asarray(f(nodes))))

    def _accumulate(self):
        vals = [0.0]
        for a, b in zip(self.edges[:-1], self.edges[1:]):
            seg = self._segment_integral(float(a), float(b))
            if not np.isfinite(seg) or seg <= 0:
                raise CharacteristicFailure(
                    f"radial factor integral non-positive on [{a}, {b}]"
                )
            vals.append(vals[-1] + seg)
        self._arc = np.asarray(vals)  # integral of a(r) from edges[0]

    def _lns_unnorm(self, r: float) -> float:
        """ln s (up to the normalization constant), refined from the table."""
        eps = 1e-12 * max(abs(float(self.edges[0])), 1.0)
        if r < self.edges[0] - eps or r > self.edges[-1] * (1 + 1e-12) + eps:
            raise DomainError(
                f"radius {r} outside the constructed map range "
                f"[{self.edges[0]}, {self.edges[-1]}]"
            )
        r = min(max(r, float(self.edges[0])), float(self.edges[-1]))
        idx = int(np.searchsorted(self.edges, r, side="right")) - 1
        idx = min(max(idx, 0), len(self.edges) - 1)
        acc = self._arc[idx] + self._segment_integral(float(self.edges[idx]), r)
        return self._sign * acc

    def _normalize(self):
        pr = self.profile
        if pr.boundary_side == "upper":
            probes = self.edges[-6:]
            nearest = -1
        else:
            probes = self.edges[:6]
            nearest = 0
        kappas = []
        for blk in pr.blocks:
            vals = [
                -(self._lns_unnorm(float(r))
                  + 0.5 * np.log(float(np.asarray(blk.beta_sq(np.asarray([r])))[0])))
                for r in probes
            ]
            kappas.append(vals[nearest])
        spread = max(kappas) - min(kappas)
        if spread > 1e-7:
            raise CharacteristicFailure(
                "blocks disagree on the boundary normalization "
                f"(spread {spread:.2e}); the declared boundary metric does "
                "not match the profile asymptotics"
            )
        self.kappa = float(np.mean(kappas))
        interior_edge = self.edges[0] if pr.boundary_side == "upper" else self.edges[-1]
        boundary_edge = self.edges[-1] if pr.boundary_side == "upper" else self.edges[0]
        self.s_interior = float(np.exp(self._lns_unnorm(float(interior_edge)) + self.kappa))
        self.s_floor = float(np.exp(self._lns_unnorm(float(boundary_edge)) + self.kappa))

    # -- queries ------------------------------------------------------------

    def lns_of_r(self, r: float) -> float:
        return self._lns_unnorm(float(r)) + self.kappa

    def s_of_r(self, r):
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.exp([self.lns_of_r(x) for x in rs])
        return out if out.size > 1 else float(out[0])

    def r_of_s(self, s):
        ss = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty(ss.size)
        edge_lns = self._sign * self._arc + self.kappa
        for i, sval in enumerate(ss):
            key = float(sval)
            hit = self._rcache.get(key)
            if hit is not None:
                out[i] = hit
                continue
            t = np.log(key)
            if self._sign < 0:
                j = int(np.searchsorted(-edge_lns, -t))
            else:
                j = int(np.searchsorted(edge_lns, t))
            j = min(max(j, 1), len(self.edges) - 1)
            a, b = float(self.edges[j - 1]), float(self.edges[j])
            fa = self.lns_of_r(a) - t
            fb = self.lns_of_r(b) - t
            if fa == 0.0:
                root = a
            elif fb == 0.0:
                root = b
            elif fa * fb > 0:
                raise DomainError(f"s = {key} outside the range of the constructed map")
            else:
                root = brentq(lambda r: self.lns_of_r(r) - t, a, b,
                              xtol=1e-14, rtol=8.9e-16, maxiter=200)
            self._rcache[key] = root
            out[i] = root
        return out if out.size > 1 else float(out[0])

    def sample(self, x_spacing: float = 1e-3, x_min: Optional[float] = None,
               x_max: Optional[float] = None):
        """Graded (r, s) samples of the map with x = ln s covering [x_min, x_max].

        Sampling runs in the forward direction (r -> s), which costs one
        short quadrature panel per point instead of a root solve, and the
        results are written into the inverse cache so subsequent warp
        evaluations at exactly these s values skip r_of_s entirely. Gaps
        of the edge table are subdivided until the spacing in x is at
        most x_spacing. Returns (r, s) sorted by increasing s.
        """
        x_edges = self._sign * self._arc + self.kappa
        if x_min is None:
            x_min = float(np.min(x_edges))
        if x_max is None:
            x_max = float(np.max(x_edges))
        rr = []
        for k in range(len(self.edges) - 1):
            xa, xb = float(x_edges[k]), float(x_edges[k + 1])
            lo, hi = min(xa, xb), max(xa, xb)
            if hi < x_min or lo > x_max:
                continue
            n = int(np.ceil(abs(xb - xa) / x_spacing))
            n = min(max(n, 4), 4000)
            seg = np.linspace(float(self.edges[k]), float(self.edges[k + 1]), n + 2)
            rr.append(seg[1:-1])
            if lo >= x_min and self.edges[k] != self.edges[0] \
                    and self.edges[k] != self.edges[-1]:
                rr.append(self.edges[k:k + 1])
        rr = np.unique(np.concatenate(rr))
        xs = np.array([self.lns_of_r(float(r)) for r in rr])
        keep = (xs >= x_min - 1e-12) & (xs <= x_max + 1e-12)
        rr, xs = rr[keep], xs[keep]
        ss = np.exp(xs)
        order = np.argsort(ss)
        rr, ss = rr[order], ss[order]
        for r, s in zip(rr, ss):
            self._rcache[float(s)] = float(r)
        return rr, ss

    def gauge_residual(self, s_values) -> float:
        """max | |ds|^2_{s^2 g} - 1 | over an s grid, via finite differences
        of the constructed map (an independent check of the construction)."""
        worst = 0.0
        for s in np.atleast_1d(np.asarray(s_values, dtype=float)):
            r = self.r_of_s(float(s))
            h = 1e-6 * max(abs(r), 1.0)
            sp = self.s_of_r(r + h)
            sm = self.s_of_r(r - h)
            dsdr = (sp - sm) / (2.0 * h)
            a = float(np.asarray(self.profile.radial_factor(np.asarray([r])))[0])
            worst = max(worst, abs(dsdr**2 / (a**2 * s**2) - 1.0))
        return worst


def normal_form_from_profile(profile: RadialProfile) -> FGMetric:
    """Construct the normal form of a cohomogeneity-one metric.

    Integrates the unit-speed condition for the geodesic defining
    function, fixes the boundary normalization against the declared
    boundary metric, and returns an FGMetric whose block warps are
    h_b(s) = s^2 beta_sq_b(r(s)) with chain-rule s-derivatives. Raises
    CharacteristicFailure when the constructed map violates the gauge
    |ds|^2 = 1 by more than 1e-7.
    """
    rmap = RadialMap(profile)
    sign = rmap._sign
    a_of = profile.radial_factor
    da_of = profile.radial_factor_deriv

    def make_block(pblk: ProfileBlock) -> BlockWarp:
        def jet(s):
            r = np.asarray([rmap.r_of_s(float(x)) for x in s])
            a = np.asarray(a_of(r))
            da = np.asarray(da_of(r))
            beta = np.asarray(pblk.beta_sq(r))
            db = np.asarray(pblk.dbeta_sq(r))
            d2b = np.asarray(pblk.d2beta_sq(r))
            w = sign * a * s                  # ds/dr along the map
            rp = 1.0 / w
            wp = sign * (da * rp * s + a)     # d/ds of w
            rpp = -wp / w**2
            return (s**2 * beta,
                    2.0 * s * beta + s**2 * db * rp,
                    2.0 * beta + 4.0 * s * db * rp
                    + s**2 * (d2b * rp**2 + db * rpp))

        return BlockWarp(pblk.indices, jet)

    blocks = [make_block(b) for b in profile.blocks]
    fg = FGMetric(
        boundary=profile.boundary,
        s_max=rmap.s_interior,
        blocks=blocks,
        tip_multiplicity=profile.tip_multiplicity,
        einstein=profile.einstein,
        yamabe_positive=profile.yamabe_positive,
        radial_map=rmap,
        name=profile.name,
        family=profile.family or profile.name,
        parameters=dict(profile.parameters or {}),
    )
    probes = np.geomspace(max(1e-3, 2 * rmap.s_floor), 0.8 * fg.s_max, 7)
    res = rmap.gauge_residual(probes)
    if res > 1e-7:
        raise CharacteristicFailure(
            f"normal-form gauge violated: max | |ds|^2 - 1 | = {res:.2e}"
        )
    fg.gauge_residual = res
    return fg


# ---------------------------------------------------------------------------
# serialization

def fg_document(fg: FGMetric) -> dict:
    """Structured key-value description of an FG family."""
    return {
        "family": fg.family,
        "name": fg.name,
        "parameters": fg.parameters,
        "boundary": {
            "name": fg.boundary.name,
            "volume": float(fg.boundary.volume),
            "scalar_curvature": float(fg.boundary.scalar_curvature),
        },
        "n": fg.n,
        "s_max": fg.s_max,
        "tip_multiplicity": fg.tip_multiplicity,
        "einstein": fg.einstein,
        "yamabe_positive": fg.yamabe_positive,
        "gauge_residual": fg.gauge_residual,
    }


def gs_table_rows(fg: FGMetric, s_values, p=None):
    """Rows (s, boundary coords..., upper-triangle g_s components)."""
    if p is None:
        p = fg.boundary.default_point
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    mats = fg.gs(s_values, p)
    n = fg.n
    rows = []
    for s, m in zip(s_values, mats):
        tri = [float(m[i, j]) for i in range(n) for j in range(i, n)]
        rows.append([float(s)] + [float(c) for c in p] + tri)
    return rows


def write_gs_table(fg: FGMetric, s_values, path, p=None):
    import csv

    if p is None:
        p = fg.boundary.default_point
    n = fg.n
    names = fg.boundary.field.chart.names
    header = ["s"] + list(names) + [f"g_{i}{j}" for i in range(n) for j in range(i, n)]
    with open(path, "w", newline="") as fh:
        fh.write("# gs-table v1\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(gs_table_rows(fg, s_values, p))

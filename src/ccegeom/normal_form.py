"""Geodesic normal form for conformally compact metrics.

A conformally compact metric is represented here in the gauge

    g = s^{-2} (ds^2 + g_s),    g_s -> ghat  as  s -> 0,

where s is the geodesic defining function of the boundary representative
ghat. The family g_s carries all asymptotic information; for boundary
dimension 3 it expands as

    g_s = ghat + g2 s^2 + g3 s^3 + ...

with g2 determined locally by the boundary curvature and g3 trace-free
for Einstein interiors. Every fill here is warped: g_s is h_b(s) ghat
on block b of the boundary metric, so these Taylor data are those of
the warps. This module holds the FGMetric container, the one
least-squares fit that reads the warps' Taylor rows at s = 0, the
closed form of g2, and construction of the normal form from a
cohomogeneity-one radial profile (the gauge condition reduced to a
single radial ODE).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .autodiff import variable
from .errors import CharacteristicFailure, DomainError, UnsupportedDimension
from .quadrature import panel_sums
from .tensor import Chart, MetricField, _is_zero, components, curvature

_EPS = float(np.finfo(float).eps)

#: s window of the boundary fit, in units of s_max
BOUNDARY_FIT_WINDOW = (0.001, 0.05)
#: Chebyshev nodes of the boundary fit
BOUNDARY_FIT_NODES = 24
#: highest power of s in the boundary fit
BOUNDARY_FIT_DEGREE = 8

__all__ = [
    "BoundaryGeometry",
    "FGMetric",
    "RadialProfile",
    "ProfileBlock",
    "RadialMap",
    "order2_coefficient",
    "normal_form_from_profile",
    "fg_document",
]


# ---------------------------------------------------------------------------
# containers

class BoundaryGeometry(NamedTuple):
    """A closed 3-dimensional boundary metric with its global data: the
    volume and the constant scalar curvature, both as floats."""

    name: str
    field: MetricField
    volume: float
    scalar_curvature: float
    default_point: tuple

    @property
    def dim(self) -> int:
        return self.field.dim


class FGMetric:
    """A metric in the normal form s^{-2}(ds^2 + g_s).

    ``blocks`` are the index tuples of the warped submatrices of the
    boundary metric, and ``warp``, kept as ``warp_jets(S) -> [one jet
    per block]``, gives the squared warp factor h_b of each block as a
    jet expression in the jet S of s. They give closed-form densities and a reconstructable
    4-metric, and every reader makes one warp_jets call per batch.
    ``reference`` holds the closed forms its builder knows (``euler``,
    ``w2``, ...), and ``ccegeom check`` picks its reference gates by key.
    """

    def __init__(self, boundary: BoundaryGeometry, s_max: float,
                 blocks: Sequence[tuple], warp: Callable,
                 tip_multiplicity: Optional[int] = None,
                 einstein: bool = False,
                 radial_map: Optional["RadialMap"] = None,
                 name: str = "",
                 family: str = "",
                 parameters: Optional[dict] = None,
                 reference: Optional[dict] = None):
        self.boundary = boundary
        self.n = boundary.dim
        self.s_max = float(s_max)
        self.blocks = tuple(tuple(b) for b in blocks)
        self.warp_jets = warp
        self.tip_multiplicity = tip_multiplicity
        self.einstein = einstein
        self.radial_map = radial_map
        self.name = name or family
        self.family = family
        self.parameters = dict(parameters or {})
        self.reference = dict(reference or {})
        self.gauge_residual: Optional[float] = None

    @property
    def yamabe_positive(self) -> bool:
        """Whether the conformal boundary has positive Yamabe invariant.

        Every boundary here has constant scalar curvature R^, and the
        Yamabe invariant of a constant-scalar-curvature metric has the
        sign of R^ (Lee and Parker, Bull. AMS 17, 1987).
        """
        return bool(self.boundary.scalar_curvature > 0)

    # -- the boundary-metric family ------------------------------------

    def warp(self, s):
        """The columns (h, dh, d2h) of the warp and its first two
        s-derivatives, each shaped (Ns, len(blocks)), column b belonging
        to block b."""
        jets = self.warp_jets(variable(s))
        return (np.stack([j.v for j in jets], axis=1),
                np.stack([j.d[0] for j in jets], axis=1),
                np.stack([j.h[0, 0] for j in jets], axis=1))

    def boundary_expansion(self) -> np.ndarray:
        """Taylor rows of the warps at s = 0: row k, column b is the s^k
        coefficient of h_b.

        One warp call on BOUNDARY_FIT_NODES Chebyshev nodes of
        BOUNDARY_FIT_WINDOW times s_max and one least-squares solve of
        every column on {1, s, ..., s^BOUNDARY_FIT_DEGREE}. In units of
        s_max the design matrix is the same on every fill, so its
        column-scaled condition number is a constant (6.7e5).
        """
        lo, hi = BOUNDARY_FIT_WINDOW
        s = _chebyshev_nodes(lo * self.s_max, hi * self.s_max, BOUNDARY_FIT_NODES)
        cols = s[:, None] ** np.arange(BOUNDARY_FIT_DEGREE + 1)
        scale = np.linalg.norm(cols, axis=0)
        rows = np.linalg.lstsq(cols / scale, self.warp(s)[0], rcond=None)[0]
        return rows / scale[:, None]

    def boundary_limit_residual(self) -> float:
        """max_b |h_b(0) - 1|: how far g_s misses ghat at the boundary,
        relative to ghat, from row 0 of boundary_expansion."""
        return float(np.max(np.abs(self.boundary_expansion()[0] - 1.0)))

    # -- densities --------------------------------------------------------

    def density(self, s):
        """D(s) = sqrt(det g_s / det ghat) at each s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        h = self.warp(s)[0]
        out = np.ones_like(s)
        # one Python-float exponent per column keeps numpy's sqrt path
        # for half-dimension 1/2
        for b, idx in enumerate(self.blocks):
            out = out * h[:, b] ** (len(idx) / 2.0)
        return out

    def density_logderiv(self, s):
        """D'(s)/D(s) at each s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.logderiv_of_warp(*self.warp(s)[:2])

    def logderiv_of_warp(self, h, dh):
        """D'/D = sum_b (k_b/2) h_b'/h_b from warp columns already read."""
        out = np.zeros(h.shape[0])
        for b, idx in enumerate(self.blocks):
            out = out + (len(idx) / 2.0) * dh[:, b] / h[:, b]
        return out

    # -- reconstruction of the 4-metric ---------------------------------

    def four_metric(self) -> MetricField:
        """The metric s^{-2}(ds^2 + g_s) as a MetricField on the fill's chart.

        The chart is 0 < s < s_max times the boundary's box. Its
        component function of s and the boundary coordinates makes one
        warp_jets call and one boundary-metric call per batch, so
        curvature of the reconstruction is as accurate as the warp data
        itself.
        """
        bf = self.boundary.field
        d = self.n + 1
        chart = Chart(("s",) + tuple(bf.chart.names),
                      (0.0,) + tuple(bf.chart.lo),
                      (self.s_max,) + tuple(bf.chart.hi))

        def func(s, *x):
            ghat = bf.func(*x)
            sm2 = s**-2.0
            g = [[0.0] * d for _ in range(d)]
            g[0][0] = sm2
            for h, idx in zip(self.warp_jets(s), self.blocks):
                p = h * sm2
                for i in idx:
                    for j in idx:
                        c = ghat[i][j]
                        g[i + 1][j + 1] = c if _is_zero(c) else p * c
            return g

        return components(chart, (0,) + tuple(a + 1 for a in bf.axes), func,
                          (self.name or "fg") + "/normal-form")


def _chebyshev_nodes(a: float, b: float, count: int):
    k = np.arange(count)
    x = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (a + b) + 0.5 * (b - a) * x


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
# normal form from a radial profile

class ProfileBlock(NamedTuple):
    """Angular block of a cohomogeneity-one metric: beta_sq(r) * ghat|indices.

    beta_sq is written in the jet operations of ``autodiff``, so one
    function gives its values on arrays and its derivatives on jets.
    """

    indices: tuple
    beta_sq: Callable


class RadialProfile(NamedTuple):
    """Cohomogeneity-one metric a(r)^2 dr^2 + sum_b beta_sq_b(r) ghat_b.

    Every fill has one shape: r runs from the interior end r_interior,
    where a(r) blows up like (r - r_interior)^{-1/2} (a horizon or
    bolt-type closure, or the origin of hyperbolic space in r = cosh rho),
    to the conformal boundary at r = inf. radial_factor, like each
    block's beta_sq, is a jet function of r.
    """

    name: str
    boundary: BoundaryGeometry
    blocks: tuple
    radial_factor: Callable
    r_interior: float
    tip_multiplicity: Optional[int] = None
    einstein: bool = True
    family: str = ""
    parameters: Optional[dict] = None


class RadialMap:
    """The geodesic defining function along a radial profile.

    Solves d(ln s)/dr = -a(r) (s decreasing toward r = inf) by composite
    Gauss-Legendre quadrature of order _ORDER over a fixed edge table of
    three regions: tau = sqrt(r - r_interior) on [r_interior,
    r_interior + 1], which removes the square-root blow-up of a(r); r
    itself up to r_direct; and x = 1/r beyond, graded geometrically
    toward x = 0. It then fixes the multiplicative constant so that
    s^2 g restricts to the declared boundary metric. Forward queries
    refine from the nearest table edge with one short panel of that rule;
    inverse queries run safeguarded Newton on those inside the edge
    cell. Both take arrays, element by element in the same arithmetic,
    so the map is deterministic and accurate to quadrature precision.
    """

    #: Gauss-Legendre order of every panel of the arclength quadrature
    _ORDER = 24
    #: halvings of x = 1/r from 1/r_direct toward x = 0 (the boundary)
    _X_HALVINGS = 33
    #: cap on the Newton/bisection iterations of r_of_s
    _MAXITER = 200

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        self._build_edges()
        self._accumulate()
        self._normalize()

    # -- construction -----------------------------------------------------

    def _build_edges(self):
        r0 = self.profile.r_interior
        start = r0 + 1.0
        r_direct = max(4.0, 2.0 * abs(start) + 2.0)
        self._tau_region = (r0, start)
        self._x_region = (r_direct, np.inf)
        xs = (1.0 / r_direct) * 0.5 ** np.arange(1, self._X_HALVINGS + 1)
        edges = ((r0 + np.linspace(0.0, 1.0, 17) ** 2).tolist()
                 + np.linspace(start, r_direct, 25)[1:].tolist()
                 + (1.0 / xs).tolist())
        self.edges = np.asarray(sorted(set(float(e) for e in edges)))

    def _segment_integral(self, a, b):
        """Integrals of the radial factor over [a_i, b_i] with substitutions.

        tau = sqrt(r - r_interior) in the square-root region, x = 1/r in
        the region toward r = inf, r in between.
        """
        pr = self.profile
        f = pr.radial_factor
        r0 = pr.r_interior
        a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                   np.atleast_1d(np.asarray(b, dtype=float)))
        out = np.zeros(a.shape)
        live = b > a
        tau = live & (b <= self._tau_region[1] + 1e-12)
        inv = live & ~tau & (a >= self._x_region[0] - 1e-12)
        direct = live & ~tau & ~inv
        if tau.any():
            out[tau] = panel_sums(np.sqrt(np.maximum(a[tau] - r0, 0.0)),
                                  np.sqrt(b[tau] - r0),
                                  lambda t: f(r0 + t**2) * 2.0 * t, self._ORDER)
        if inv.any():
            out[inv] = panel_sums(1.0 / b[inv], 1.0 / a[inv],
                                  lambda x: f(1.0 / x) / x**2, self._ORDER)
        if direct.any():
            out[direct] = panel_sums(a[direct], b[direct], f, self._ORDER)
        return out

    def _accumulate(self):
        segs = self._segment_integral(self.edges[:-1], self.edges[1:])
        bad = np.flatnonzero(~(np.isfinite(segs) & (segs > 0)))
        if bad.size:
            raise CharacteristicFailure("radial factor integral non-positive on "
                                        f"{self.edges[bad[0]:bad[0] + 2].tolist()}")
        # integral of a(r) from edges[0], accumulated edge by edge
        self._arc = np.concatenate([[0.0], np.cumsum(segs)])

    def _lns_unnorm(self, r):
        """ln s (up to the normalization constant), refined from the table;
        it decreases toward the boundary end."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        lo, hi = float(self.edges[0]), float(self.edges[-1])
        eps = 1e-12 * max(abs(lo), 1.0)
        outside = ~((r >= lo - eps) & (r <= hi * (1 + 1e-12) + eps))
        if outside.any():
            raise DomainError(
                f"radius {r[outside][0]} outside the constructed map range "
                f"[{lo}, {hi}]"
            )
        r = np.clip(r, lo, hi)
        idx = np.clip(np.searchsorted(self.edges, r, side="right") - 1, 0,
                      self.edges.size - 1)
        acc = self._arc[idx] + self._segment_integral(self.edges[idx], r)
        return -acc

    def _normalize(self):
        pr = self.profile
        boundary_edge, interior_edge = self.edges[-1:], self.edges[:1]
        lns_bdy = self._lns_unnorm(boundary_edge)[0]
        kappas = [-(lns_bdy + 0.5 * np.log(float(np.asarray(blk.beta_sq(boundary_edge))[0])))
                  for blk in pr.blocks]
        spread = max(kappas) - min(kappas)
        if spread > 1e-7:
            raise CharacteristicFailure(
                "blocks disagree on the boundary normalization "
                f"(spread {spread:.2e}); the declared boundary metric does "
                "not match the profile asymptotics"
            )
        self.kappa = float(np.mean(kappas))
        self.s_interior = float(np.exp(self._lns_unnorm(interior_edge)[0] + self.kappa))
        self.s_floor = float(np.exp(lns_bdy + self.kappa))

    # -- queries ------------------------------------------------------------

    def lns_of_r(self, r):
        """ln s at each radius, a 1-D array."""
        return self._lns_unnorm(r) + self.kappa

    def s_of_r(self, r):
        return np.exp(self._lns_unnorm(r) + self.kappa)

    def r_of_s(self, s):
        """Radius of each s, by safeguarded Newton inside its edge cell.

        Newton starts from linear interpolation of ln s across the cell
        and steps with d(ln s)/dr = -a(r), in tau = sqrt(r - r_interior)
        inside the square-root region. A step below the tolerance is
        stretched to it, so the bracket closes from both sides; a step
        that leaves the bracket or, unstretched, does not halve the one
        before it is replaced by bisection. Stops when the bracket spans
        at most 1e-14 + 8.9e-16 |r| (brentq's rule at its xtol and rtol)
        or |ln s(r) - ln s| is at the rounding of ln s, and returns the
        last Newton point, clipped to the bracket. Each element iterates
        on its own, so a query's entries do not depend on the rest of its
        batch.
        """
        t = np.log(np.atleast_1d(np.asarray(s, dtype=float)))
        lns_edges = self.kappa - self._arc
        j = np.searchsorted(-lns_edges, -t)
        j = np.clip(j, 1, self.edges.size - 1)
        f_lo, f_hi = lns_edges[j - 1] - t, lns_edges[j] - t
        outside = ~(f_lo * f_hi <= 0.0)
        if outside.any():
            raise DomainError(
                f"s = {np.exp(t[outside][0])} outside the range "
                f"[{self.s_floor}, {self.s_interior}] of the constructed map"
            )
        r0 = self.profile.r_interior
        tau = self.edges[j] <= self._tau_region[1] + 1e-12

        def radius(y, k):
            return np.where(tau[k], r0 + y * y, y)

        def coordinate(r):
            return np.where(tau, np.sqrt(np.maximum(r - r0, 0.0)), r)

        y_lo, y_hi = coordinate(self.edges[j - 1]), coordinate(self.edges[j])
        side = np.sign(f_lo)
        root = np.where(f_lo == 0.0, y_lo, y_hi)
        done = (f_lo == 0.0) | (f_hi == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = y_lo + f_lo / (f_lo - f_hi) * (y_hi - y_lo)
        last = np.full(t.shape, np.inf)  # size of each point's previous step
        for _ in range(self._MAXITER):
            k = np.flatnonzero(~done)
            if k.size == 0:
                break
            yk = y[k]
            rk = radius(yk, k)
            fk = self._lns_unnorm(rk) + self.kappa - t[k]
            left = np.sign(fk) == side[k]
            lo = y_lo[k] = np.where(left, yk, y_lo[k])
            hi = y_hi[k] = np.where(left, y_hi[k], yk)
            drdy = np.where(tau[k], 2.0 * yk, 1.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = fk / (-np.asarray(self.profile.radial_factor(rk)) * drdy)
                root[k] = np.clip(np.where(fk == 0.0, yk, yk - step), lo, hi)
                tol = 1e-14 + 8.9e-16 * np.abs(rk)
                done[k] = ((np.abs(fk) <= 2.0 * _EPS * np.abs(t[k]))
                           | (radius(hi, k) - radius(lo, k) <= tol))
                short = np.abs(step) * drdy < 0.5 * tol
                size = np.where(short, 0.5 * tol / drdy, np.abs(step))
            nxt = yk - np.copysign(size, step)
            ok = (nxt > lo) & (nxt < hi) & (short | (size <= 0.5 * last[k]))
            y[k] = np.where(ok, nxt, 0.5 * (lo + hi))
            last[k] = np.where(ok, size, 0.5 * (hi - lo))
        else:
            raise CharacteristicFailure("radial map inversion did not converge")
        return radius(root, slice(None))

    def gauge_residual(self, s_values) -> float:
        """max | |ds|^2_{s^2 g} - 1 | over an s grid, via finite differences
        of the constructed map (an independent check of the construction)."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        r = self.r_of_s(s)
        h = 1e-6 * np.maximum(np.abs(r), 1.0)
        dsdr = (self.s_of_r(r + h) - self.s_of_r(r - h)) / (2.0 * h)
        a = np.asarray(self.profile.radial_factor(r))
        return float(np.max(np.abs(dsdr**2 / (a**2 * s**2) - 1.0)))


def normal_form_from_profile(profile: RadialProfile) -> FGMetric:
    """Construct the normal form of a cohomogeneity-one metric.

    Integrates the unit-speed condition for the geodesic defining
    function, fixes the boundary normalization against the declared
    boundary metric, and returns an FGMetric whose warp column b is
    h_b(s) = s^2 beta_sq_b(r(s)), composed by autodiff. One warp call
    inverts r(s) once and evaluates the jet of a(r) once for all
    blocks. Raises CharacteristicFailure when the constructed map
    violates the gauge |ds|^2 = 1 by more than 1e-7.
    """
    rmap = RadialMap(profile)

    def block_jets(S):
        s = S.v
        r = rmap.r_of_s(s)
        a = profile.radial_factor(variable(r))
        a, da = a.v, a.d[0]
        # the gauge ds/dr = -a s gives dr/ds and, differentiated once more
        # along the map, d2r/ds2
        rp = -1.0 / (a * s)
        rpp = (da * rp * s + a) / (a * s) ** 2
        R = S.chain(r, rp, rpp)
        return [S**2 * pblk.beta_sq(R) for pblk in profile.blocks]

    fg = FGMetric(
        boundary=profile.boundary,
        s_max=rmap.s_interior,
        blocks=[b.indices for b in profile.blocks],
        warp=block_jets,
        tip_multiplicity=profile.tip_multiplicity,
        einstein=profile.einstein,
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


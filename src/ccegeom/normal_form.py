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
the warps, read forward as jets in the fill's radial chart y (y = s on
a fill written in s; on a radial profile one global coordinate regular
at both ends), so nothing inverts s. This module holds the FGMetric
container, the one least-squares fit that reads the warps' Taylor rows
at s = 0, the closed form of g2, and construction of the normal form
from a cohomogeneity-one radial profile (the gauge condition reduced to
a single radial quadrature).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .autodiff import exp, variable
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
    "Warp",
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


class Warp(NamedTuple):
    """Radial columns at chart points y, every derivative in y: s with
    ds and d2s, each (N,), then the warp h with dh and d2h, each
    (N, len(blocks)), column b belonging to block b."""

    s: np.ndarray
    ds: np.ndarray
    d2s: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray


class FGMetric:
    """A metric in the normal form s^{-2}(ds^2 + g_s), read in its radial chart.

    ``blocks`` are the index tuples of the warped submatrices of the
    boundary metric, and g_s is h_b(s) ghat on block b. On a fill written
    in s, ``warp(S) -> [one jet per block]`` gives the h_b as jet
    expressions in the jet S of s, and y = s. Any other fill passes
    ``chart = (y_max, jets)``, ``jets(Y) -> (S, g_yy, [h_b])`` the jets of
    s, of (ds/dy)^2 / s^2 and of the warps at the jet Y of y, which runs
    from the boundary (0) to the tip (y_max). Every reader takes its
    nodes in y and makes one chart_jets call per batch. ``reference``
    holds the closed forms its builder knows (``euler``, ``w2``, ...),
    and ``ccegeom check`` picks its reference gates by key.
    """

    def __init__(self, boundary: BoundaryGeometry, s_max: float,
                 blocks: Sequence[tuple], warp: Optional[Callable],
                 tip_multiplicity: Optional[int] = None, einstein: bool = False,
                 radial_map: Optional["RadialMap"] = None, name: str = "",
                 family: str = "", parameters: Optional[dict] = None,
                 reference: Optional[dict] = None, chart: Optional[tuple] = None):
        self.boundary = boundary
        self.n = boundary.dim
        self.s_max = float(s_max)
        self.blocks = tuple(tuple(b) for b in blocks)
        self.y_max, self.chart_jets = chart or (
            self.s_max, lambda Y: (Y, Y**-2.0, warp(Y)))
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

    def warp(self, y) -> Warp:
        """s and the warps with their first two y-derivatives at chart
        points y, from one chart_jets call."""
        S, _, jets = self.chart_jets(variable(np.atleast_1d(np.asarray(y, dtype=float))))
        return Warp(S.v, S.d[0], S.h[0, 0], *(np.stack(c, axis=1) for c in zip(
            *((j.v, j.d[0], j.h[0, 0]) for j in jets))))

    def boundary_expansion(self) -> np.ndarray:
        """Taylor rows of the warps at s = 0: row k, column b is the s^k
        coefficient of h_b.

        One warp call on BOUNDARY_FIT_NODES Chebyshev nodes of
        BOUNDARY_FIT_WINDOW times s_max in the chart (y = s to first
        order) and one least-squares solve of every column on
        {1, s, ..., s^BOUNDARY_FIT_DEGREE} at the s read there. In units
        of s_max its column-scaled condition number is 6.7e5 on every
        fill written in s, and 6.5e5 to 6.9e5 on AdS at m = 0.02 to 20.
        """
        lo, hi = BOUNDARY_FIT_WINDOW
        w = self.warp(_chebyshev_nodes(lo * self.s_max, hi * self.s_max, BOUNDARY_FIT_NODES))
        cols = w.s[:, None] ** np.arange(BOUNDARY_FIT_DEGREE + 1)
        scale = np.linalg.norm(cols, axis=0)
        rows = np.linalg.lstsq(cols / scale, w.h, rcond=None)[0]
        return rows / scale[:, None]

    def boundary_limit_residual(self) -> float:
        """max_b |h_b(0) - 1|: how far g_s misses ghat at the boundary,
        relative to ghat, from row 0 of boundary_expansion."""
        return float(np.max(np.abs(self.boundary_expansion()[0] - 1.0)))

    # -- densities --------------------------------------------------------

    def density(self, y):
        """s^-4 D(s) ds/dy at each chart point y, D = sqrt(det g_s /
        det ghat): the volume density of g in (y, boundary) over that of
        ghat."""
        w = self.warp(y)
        out = np.ones_like(w.s)
        # one Python-float exponent per column keeps numpy's sqrt path
        # for half-dimension 1/2
        for b, idx in enumerate(self.blocks):
            out = out * w.h[:, b] ** (len(idx) / 2.0)
        return w.s**-4.0 * out * w.ds

    def logderiv(self, w: Warp):
        """D'(s)/D(s) = sum_b (k_b/2) h_b'(s)/h_b from warp columns read."""
        dh = w.dh / w.ds[:, None]
        out = np.zeros(w.s.shape)
        for b, idx in enumerate(self.blocks):
            out = out + (len(idx) / 2.0) * dh[:, b] / w.h[:, b]
        return out

    # -- reconstruction of the 4-metric ---------------------------------

    def four_metric(self, factor: Optional[Callable] = None) -> MetricField:
        """The metric s^{-2}(ds^2 + g_s) as a MetricField in (y, boundary),
        times e^{2 factor(S)} when a jet function factor of s is given.

        The chart is 0 < y < y_max times the boundary's box. Its
        component function makes one chart_jets call and one
        boundary-metric call per batch, so curvature of the
        reconstruction is as accurate as the chart's jets themselves.
        """
        bf = self.boundary.field
        d = self.n + 1
        chart = Chart(("y",) + tuple(bf.chart.names),
                      (0.0,) + tuple(bf.chart.lo),
                      (self.y_max,) + tuple(bf.chart.hi))

        def func(y, *x):
            ghat = bf.func(*x)
            g = [[0.0] * d for _ in range(d)]
            S, g[0][0], jets = self.chart_jets(y)
            sm2 = S**-2.0
            for h, idx in zip(jets, self.blocks):
                p = h * sm2
                for i in idx:
                    for j in idx:
                        c = ghat[i][j]
                        g[i + 1][j + 1] = c if _is_zero(c) else p * c
            if factor is not None:
                e = exp(2.0 * factor(S))
                g = [[c if _is_zero(c) else e * c for c in row] for row in g]
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
    """Angular block of a cohomogeneity-one metric: beta_sq * ghat|indices,
    a jet function of rho = r - r_interior.

    beta_sq is written in the jet operations of ``autodiff``, so one
    function gives its values on arrays and its derivatives on jets.
    """

    indices: tuple
    beta_sq: Callable


class RadialProfile(NamedTuple):
    """Cohomogeneity-one metric a(r)^2 dr^2 + sum_b beta_sq_b(r) ghat_b.

    Every fill has one shape: r runs from the interior end r_interior,
    where a(r) blows up like (r - r_interior)^{-1/2} (a horizon or
    bolt-type closure, or the origin of hyperbolic space in r = cosh of
    the geodesic radius), to the conformal boundary at r = inf. Every
    function is a jet function of rho = r - r_interior, which the chart
    hands in as such, so a factor vanishing at the closure is never
    recomputed from r; radial_factor is a sqrt(rho), regular at rho = 0.
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
    Gauss-Legendre quadrature of order _ORDER over a fixed edge table in
    rho = r - r_interior of three regions: tau = sqrt(rho) on [0, 1],
    where a dr = 2 radial_factor(tau^2) dtau is regular; rho itself up
    to r_direct; and x = 1/r beyond, graded geometrically toward x = 0.
    It then fixes the multiplicative constant so that s^2 g restricts to
    the declared boundary metric. lns_of_rho, the program's one path to
    s, refines from the nearest table edge with one short panel of that
    rule, element by element, so the map is deterministic and accurate
    to quadrature precision. lns_of_r, r_of_s and s_floor are kept only
    for the benchmark's probes.
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
        self._normalize()

    # -- construction -----------------------------------------------------

    def _build_edges(self):
        """The edge table, and the integral of a(r) from edges[0] to
        each edge, accumulated edge by edge."""
        r0 = self.profile.r_interior
        r_direct = max(4.0, 2.0 * abs(r0 + 1.0) + 2.0)
        self._r_direct = r_direct  # where the x = 1/r region starts
        xs = (1.0 / r_direct) * 0.5 ** np.arange(1, self._X_HALVINGS + 1)
        rho = ((np.linspace(0.0, 1.0, 17) ** 2).tolist()
               + np.linspace(1.0, r_direct - r0, 25)[1:].tolist()
               + (1.0 / xs - r0).tolist())
        self._rho = np.asarray(sorted(set(float(e) for e in rho)))
        self.edges = r0 + self._rho
        segs = self._segment_integral(self._rho[:-1], self._rho[1:])
        bad = np.flatnonzero(~(np.isfinite(segs) & (segs > 0)))
        if bad.size:
            raise CharacteristicFailure("radial factor integral non-positive on "
                                        f"{self.edges[bad[0]:bad[0] + 2].tolist()}")
        self._arc = np.concatenate([[0.0], np.cumsum(segs)])

    def _segment_integral(self, a, b):
        """Integrals of a dr over [a_i, b_i] in rho with substitutions.

        tau = sqrt(rho) up to rho = 1, x = 1/r from r_direct on, rho in
        between.
        """
        f = self.profile.radial_factor
        r0 = self.profile.r_interior
        a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                   np.atleast_1d(np.asarray(b, dtype=float)))
        out = np.zeros(a.shape)
        live = b > a
        tau = live & (b <= 1.0 + 1e-12)
        inv = live & ~tau & (a >= self._r_direct - r0 - 1e-12)
        direct = live & ~tau & ~inv
        if tau.any():
            out[tau] = panel_sums(np.sqrt(a[tau]), np.sqrt(b[tau]),
                                  lambda t: 2.0 * f(t**2), self._ORDER)
        if inv.any():
            out[inv] = panel_sums(1.0 / (r0 + b[inv]), 1.0 / (r0 + a[inv]),
                                  lambda x: f(1.0 / x - r0) * (1.0 / x - r0) ** -0.5 / x**2,
                                  self._ORDER)
        if direct.any():
            out[direct] = panel_sums(a[direct], b[direct],
                                     lambda rho: f(rho) * rho**-0.5, self._ORDER)
        return out

    def _lns_unnorm(self, rho):
        """ln s (up to the normalization constant), refined from the table;
        it decreases toward the boundary end."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        hi = float(self._rho[-1])
        eps = 1e-12 * max(abs(self.profile.r_interior), 1.0)
        outside = ~((rho >= -eps) & (rho <= hi * (1 + 1e-12) + eps))
        if outside.any():
            raise DomainError(
                f"radius {self.profile.r_interior + rho[outside][0]} outside the "
                f"constructed map range [{self.edges[0]}, {self.edges[-1]}]"
            )
        rho = np.clip(rho, 0.0, hi)
        idx = np.clip(np.searchsorted(self._rho, rho, side="right") - 1, 0,
                      self._rho.size - 1)
        return -(self._arc[idx] + self._segment_integral(self._rho[idx], rho))

    def _normalize(self):
        boundary_edge = self._rho[-1:]
        lns_bdy = self._lns_unnorm(boundary_edge)[0]
        kappas = [-(lns_bdy + 0.5 * np.log(float(np.asarray(blk.beta_sq(boundary_edge))[0])))
                  for blk in self.profile.blocks]
        spread = max(kappas) - min(kappas)
        if spread > 1e-7:
            raise CharacteristicFailure(
                "blocks disagree on the boundary normalization "
                f"(spread {spread:.2e}); the declared boundary metric does "
                "not match the profile asymptotics"
            )
        self.kappa = float(np.mean(kappas))
        # ln s = kappa at rho = 0, where the arclength starts
        self.s_interior = float(np.exp(self.kappa))
        self.s_floor = float(np.exp(lns_bdy + self.kappa))

    # -- queries ------------------------------------------------------------

    def chart(self, y):
        """rho = r - r_interior and d ln s/dy at the chart coordinate
        y = 2(1 - chi), r = r_interior + chi^2/(1 - chi^2), as arrays or
        jets: d ln s/dy = radial_factor(rho) (1 - chi^2)^{-3/2}, with no
        division by chi."""
        chi = 1.0 - 0.5 * y
        q = 0.5 * y * (1.0 + chi)  # 1 - chi^2
        rho = chi**2 / q
        return rho, self.profile.radial_factor(rho) * q**-1.5

    def lns_of_rho(self, rho):
        """ln s at each rho = r - r_interior, a 1-D array."""
        return self._lns_unnorm(rho) + self.kappa

    def lns_of_r(self, r):
        """ln s at each radius; kept only for the benchmark's probes."""
        return self.lns_of_rho(np.asarray(r, dtype=float) - self.profile.r_interior)

    def r_of_s(self, s):
        """Radius of each s; kept only for the benchmark's probes, as no
        program path inverts the map.

        Newton on the forward map in u = ln y of the profile's chart,
        with d ln s/du = y d ln s/dy, safeguarded by bisection of the
        bracket [ln y(edges[-1]), ln 2]; it stops when |ln s(r) - ln s|
        is at the rounding of ln s or the bracket spans 1e-15. Each
        element iterates on its own, so a query's entries do not depend
        on the rest of its batch.
        """
        t = np.log(np.atleast_1d(np.asarray(s, dtype=float)))
        outside = ~((t <= self.kappa) & (t >= self.kappa - self._arc[-1]))
        if outside.any():
            raise DomainError(
                f"s = {np.exp(t[outside][0])} outside the range "
                f"[{self.s_floor}, {self.s_interior}] of the constructed map"
            )
        top = self._rho[-1]
        lo = np.full(t.shape, np.log(2.0 / ((1.0 + top) * (1.0 + np.sqrt(top / (1.0 + top))))))
        hi = np.full(t.shape, np.log(2.0))
        u = np.clip(t, lo, hi)
        todo = np.arange(t.size)
        for _ in range(self._MAXITER):
            if todo.size == 0:
                return self.profile.r_interior + self.chart(np.exp(u))[0]
            y = np.exp(u[todo])
            rho, dlns = self.chart(y)
            f = self.lns_of_rho(rho) - t[todo]
            below = f < 0.0  # ln s increases with y
            lo[todo] = np.where(below, u[todo], lo[todo])
            hi[todo] = np.where(below, hi[todo], u[todo])
            nxt = u[todo] - f / (dlns * y)
            live = ~((np.abs(f) <= 2.0 * _EPS * np.abs(t[todo]))
                     | (hi[todo] - lo[todo] <= 1e-15))
            todo = todo[live]
            nxt, a, b = nxt[live], lo[todo], hi[todo]
            u[todo] = np.where((nxt > a) & (nxt < b), nxt, 0.5 * (a + b))
        raise CharacteristicFailure("radial map inversion did not converge")


def normal_form_from_profile(profile: RadialProfile) -> FGMetric:
    """Construct the normal form of a cohomogeneity-one metric.

    Integrates the unit-speed condition for the geodesic defining
    function, fixes the boundary normalization against the declared
    boundary metric (RadialMap), and returns an FGMetric read in the
    chart of RadialMap.chart, y in [0, 2]: y = s to first order at the
    boundary, and s is linear in chi at the tip, so the chart is regular
    on the whole closed fill. One chart call reads ln s forward
    (RadialMap.lns_of_rho) with the jet of d ln s/dy and evaluates the
    profile's jets once for all blocks: s, the radial component
    (d ln s/dy)^2 and h_b = s^2 beta_sq_b. Raises CharacteristicFailure
    when d ln s/dy misses central differences of lns_of_rho, the gauge
    |ds|^2 = 1, by more than 1e-7.
    """
    rmap = RadialMap(profile)

    def chart(Y):
        rho, dlns = rmap.chart(Y)
        S = exp(Y.chain_jet(rmap.lns_of_rho(rho.v), dlns))
        return S, dlns**2, [S**2 * pblk.beta_sq(rho) for pblk in profile.blocks]

    fg = FGMetric(profile.boundary, rmap.s_interior, [b.indices for b in profile.blocks],
                  None, profile.tip_multiplicity, profile.einstein, rmap, profile.name,
                  profile.family or profile.name, dict(profile.parameters or {}),
                  chart=(2.0, chart))
    y = np.geomspace(1e-3, 1.6, 7)
    yp, ym = y * (1.0 + 1e-6), y * (1.0 - 1e-6)
    central = ((rmap.lns_of_rho(rmap.chart(yp)[0]) - rmap.lns_of_rho(rmap.chart(ym)[0]))
               / (yp - ym))
    res = float(np.max(np.abs((central / rmap.chart(y)[1]) ** 2 - 1.0)))
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


"""Pointwise curvature of explicit Riemannian metrics.

A metric is a set of component closures over a coordinate chart. All
operations are batched: points have shape (N, dim) and every tensor gains
a leading batch axis. Single points (dim,) are accepted and the batch
axis is squeezed from the results.

Index conventions, fixed once and validated against round-sphere golden
values in the test suite:

* dg[k, i, j]      = d g_ij / dx^k
* d2g[k, l, i, j]  = d^2 g_ij / dx^k dx^l
* christoffel[m, i, j] = Gamma^m_ij
* riemann[i, j, k, l] is fully lowered, antisymmetric in (i, j) and in
  (k, l), symmetric under pair swap, and R_ijij > 0 on round spheres
  (positive sectional curvature).
* ricci[i, j] = riemann^k_ikj contraction; scalar = trace.

In dimension 4 the Weyl norms come from the Atiyah-Hitchin-Singer split:
in the orthonormal coframe of the Cholesky factor of g the curvature
operator on 2-forms is a 6x6 matrix, the Hodge star is the constant
_STAR, and W+- are the traceless diagonal blocks P+- R P+- - (R/12) P+-
of the operator, with P+- = (1 +- *)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DerivativeTolerance, DomainError, SingularMetric

def _einsum(subscripts, *ops):
    # contraction-path optimization matters for the three-operand
    # product-rule terms of conformal_rescale
    return np.einsum(subscripts, *ops, optimize=True)


__all__ = [
    "Chart",
    "CentralDifference",
    "ScalarField",
    "MetricField",
    "CurvaturePacket",
    "christoffel",
    "curvature",
    "riemann_symmetry_residuals",
    "einstein_residual",
    "conformal_rescale",
    "tensor_norm_sq",
]

_PAIRS4 = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# Hodge star on 2-forms of an oriented orthonormal coframe, pair basis
# _PAIRS4: *e01 = e23, *e02 = -e13, *e03 = e12 (and back)
_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


# ---------------------------------------------------------------------------
# charts and schemes

@dataclass(frozen=True)
class Chart:
    """Open coordinate box with names, used for domain checks and sampling."""

    names: tuple
    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.names)

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=1)

    def require(self, points) -> None:
        ok = self.contains(points)
        if not np.all(ok):
            bad = np.atleast_2d(points)[~ok][0]
            raise DomainError(f"point {bad} outside chart box {self.lo}..{self.hi}")

    def sample(self, n: int, seed: int = 0, margin: float = 0.15) -> np.ndarray:
        """Deterministic interior sample, shrunk away from the box walls."""
        rng = np.random.default_rng(seed)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        span = hi - lo
        return lo + span * (margin + (1 - 2 * margin) * rng.random((n, self.dim)))


@dataclass(frozen=True)
class CentralDifference:
    """Finite-difference derivative scheme with Richardson extrapolation.

    step is the base stencil width; levels > 1 halves it repeatedly and
    extrapolates assuming an even-power error expansion. tolerance bounds
    the relative change of the last extrapolation step.
    """

    step: float = 1e-4
    levels: int = 2
    tolerance: float = 1e-3


def _as_batch(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DomainError(f"point has {pts.shape[0]} coordinates, chart has {dim}")
        return pts[None, :], True
    if pts.shape[1] != dim:
        raise DomainError(f"points have {pts.shape[1]} coordinates, chart has {dim}")
    return pts, False


def _maybe_squeeze(arr, squeeze):
    return arr[0] if squeeze else arr


# ---------------------------------------------------------------------------
# scalar fields (conformal factors)

@dataclass(frozen=True)
class ScalarField:
    """Scalar function with gradient and hessian closures, batched."""

    value: Callable
    grad: Callable
    hess: Callable

    @staticmethod
    def from_sympy(coords, expr) -> "ScalarField":
        from .symbolic import scalar_closures

        v, g, h = scalar_closures(coords, expr)
        return ScalarField(v, g, h)


# ---------------------------------------------------------------------------
# metric fields

class MetricField:
    """Riemannian metric given by component closures on a chart.

    func(points) -> (N, d, d). Analytic derivative closures dfunc /
    d2func may be supplied (preferred); otherwise derivatives fall back
    to Richardson-extrapolated central differences controlled by
    ``scheme``.

    cyclic_axes lists the chart axes no component depends on, so the
    metric and all its curvature are constant along them. from_sympy
    reads them off the expressions; every other constructor records
    none.
    """

    def __init__(self, chart: Chart, func, dfunc=None, d2func=None,
                 scheme: Optional[CentralDifference] = None, name: str = ""):
        self.chart = chart
        self.dim = chart.dim
        self._func = func
        self._dfunc = dfunc
        self._d2func = d2func
        self.scheme = scheme or CentralDifference()
        self.name = name
        self.cyclic_axes = ()

    @property
    def analytic(self) -> bool:
        return self._dfunc is not None and self._d2func is not None

    # -- evaluation ---------------------------------------------------------

    def g(self, points, check: bool = True):
        pts, squeeze = _as_batch(points, self.dim)
        if check:
            self.chart.require(pts)
        mat = np.asarray(self._func(pts), dtype=float)
        if check:
            self._check_positive(mat, pts)
        return _maybe_squeeze(mat, squeeze)

    def dg(self, points):
        pts, squeeze = _as_batch(points, self.dim)
        self.chart.require(pts)
        if self._dfunc is not None:
            out = np.asarray(self._dfunc(pts), dtype=float)
        else:
            out = _fd_first(self._func, pts, self.scheme)
        return _maybe_squeeze(out, squeeze)

    def d2g(self, points):
        pts, squeeze = _as_batch(points, self.dim)
        self.chart.require(pts)
        if self._d2func is not None:
            out = np.asarray(self._d2func(pts), dtype=float)
        else:
            out = _fd_second(self._func, pts, self.scheme)
        return _maybe_squeeze(out, squeeze)

    def with_scheme(self, scheme: CentralDifference) -> "MetricField":
        """Same component closure, forced finite-difference derivatives."""
        return MetricField(self.chart, self._func, None, None, scheme,
                           name=self.name + "/fd")

    # -- helpers ------------------------------------------------------------

    def _check_positive(self, mat, pts):
        # NaN passes every comparison below and the factorization
        finite = np.isfinite(mat).all(axis=(-2, -1))
        if not finite.all():
            i = int(np.argmin(finite))
            raise SingularMetric(f"metric component not finite at point {pts[i]}")
        sym_err = np.max(np.abs(mat - np.swapaxes(mat, -1, -2)))
        if sym_err > 1e-10 * max(1.0, np.max(np.abs(mat))):
            raise SingularMetric(f"metric not symmetric (max asymmetry {sym_err:.2e})")
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            # the factorization only screens; the leading minors decide
            # (Sylvester's criterion) and name the failing k and point
            for k in range(1, self.dim + 1):
                minors = np.linalg.det(mat[:, :k, :k])
                if np.any(minors <= 0):
                    i = int(np.argmax(minors <= 0))
                    raise SingularMetric(
                        f"leading {k}x{k} minor nonpositive ({minors[i]:.3e}) "
                        f"at point {pts[i]}"
                    )

    @staticmethod
    def from_sympy(coords, gmat, chart: Chart, name: str = "") -> "MetricField":
        from .symbolic import derivative_arrays, lambdify_array
        import sympy as sp

        g = sp.Matrix(gmat)
        dg, d2g = derivative_arrays(coords, g)
        fg = lambdify_array(coords, g.tolist())
        fdg = lambdify_array(coords, dg)
        fd2g = lambdify_array(coords, d2g)
        field = MetricField(chart, fg, fdg, fd2g, name=name)
        field.cyclic_axes = tuple(i for i, x in enumerate(coords)
                                  if x not in g.free_symbols)
        return field


# ---------------------------------------------------------------------------
# finite differences

def _richardson(table_values):
    """Extrapolate a list of stencil evaluations D(h), D(h/2), ... assuming
    an even-power error expansion. Returns (best, change_of_last_step)."""
    def extrapolate(prev):
        fac = 4.0
        while len(prev) > 1:
            prev = [(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                    for i in range(len(prev) - 1)]
            fac *= 4.0
        return prev[0]

    rows = [np.asarray(v, dtype=float) for v in table_values]
    best = extrapolate(rows)
    if len(rows) == 1:
        return best, np.inf
    # redo dropping the coarsest level to estimate the final change
    change = np.max(np.abs(best - extrapolate(rows[1:])))
    return best, change


def _fd_first(func, pts, scheme: CentralDifference):
    n, d = pts.shape
    levels = []
    h = scheme.step
    for _ in range(scheme.levels):
        out = np.empty((n, d, d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            out[:, k] = (func(pts + e) - func(pts - e)) / (2 * h)
        levels.append(out)
        h /= 2.0
    best, change = _richardson(levels)
    _require_converged(best, change, scheme, "first")
    return best

def _fd_second(func, pts, scheme: CentralDifference):
    n, d = pts.shape
    levels = []
    h = scheme.step
    for _ in range(scheme.levels):
        out = np.empty((n, d, d, d, d))
        g0 = func(pts)
        for k in range(d):
            ek = np.zeros(d)
            ek[k] = h
            out[:, k, k] = (func(pts + ek) - 2 * g0 + func(pts - ek)) / (h * h)
            for l in range(k + 1, d):
                el = np.zeros(d)
                el[l] = h
                mixed = (
                    func(pts + ek + el) - func(pts + ek - el)
                    - func(pts - ek + el) + func(pts - ek - el)
                ) / (4 * h * h)
                out[:, k, l] = mixed
                out[:, l, k] = mixed
        levels.append(out)
        h /= 2.0
    best, change = _richardson(levels)
    _require_converged(best, change, scheme, "second")
    return best


def _require_converged(best, change, scheme, label):
    if not np.all(np.isfinite(best)):
        raise DerivativeTolerance(f"{label} derivatives not finite")
    scale = max(1.0, float(np.max(np.abs(best))))
    if change > scheme.tolerance * scale:
        raise DerivativeTolerance(
            f"Richardson extrapolation of {label} derivatives stalled: "
            f"last change {change:.3e} vs tolerance {scheme.tolerance:.1e} * {scale:.1e}"
        )


# ---------------------------------------------------------------------------
# curvature

@dataclass
class CurvaturePacket:
    """All pointwise curvature data of a metric at a batch of points.

    The 4-D Weyl norms are read off the Cholesky-frame curvature operator.
    The rank-4 weyl (Kulkarni-Nomizu decomposition), weyl_plus and
    weyl_minus (lifted from that frame) are built on first read; None
    outside dimension 4.
    """

    points: np.ndarray
    metric: np.ndarray
    inverse: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray
    traceless_ricci: np.ndarray
    schouten: Optional[np.ndarray] = None
    sigma2: Optional[np.ndarray] = None
    norms: dict = field(default_factory=dict)
    orientation: int = 1
    _views: dict = field(default_factory=dict, repr=False)

    def _view(self, name):
        build = self._views.get(name)
        return None if build is None else _maybe_squeeze(build(), self.points.ndim == 1)

    weyl = cached_property(lambda self: self._view("weyl"))
    weyl_plus = cached_property(lambda self: self._view("weyl_plus"))
    weyl_minus = cached_property(lambda self: self._view("weyl_minus"))


def christoffel(m: MetricField, points):
    pts, squeeze = _as_batch(points, m.dim)
    g = m.g(pts)
    dg = m.dg(pts)
    ginv = np.linalg.inv(g)
    gamma = _christoffel_from(ginv, _first_kind(dg))
    return _maybe_squeeze(gamma, squeeze)


def _first_kind(dg):
    """Twice the Christoffel symbols of the first kind,
    T_kij = d_i g_kj + d_j g_ki - d_k g_ij, on the last three axes."""
    *lead, a, b, c = range(dg.ndim)
    return dg.transpose(*lead, b, a, c) + dg.transpose(*lead, b, c, a) - dg


def _christoffel_from(ginv, t):
    n, d = t.shape[0], t.shape[1]
    return 0.5 * (ginv @ t.reshape(n, d, d * d)).reshape(t.shape)


def _kulkarni_nomizu(h, k):
    return (_einsum("nik,njl->nijkl", h, k) + _einsum("njl,nik->nijkl", h, k)
            - _einsum("nil,njk->nijkl", h, k) - _einsum("njk,nil->nijkl", h, k))


def tensor_norm_sq(t, ginv):
    """Squared norm of a fully lowered rank-2 or rank-4 tensor, all
    indices raised with ginv."""
    n, d = t.shape[0], t.shape[1]
    if t.ndim == 3:
        up = ginv @ t @ ginv
        return (t * up).reshape(n, -1).sum(axis=1)
    # g^{pc} g^{qd} as a (pq) x (cd) matrix raises both index pairs
    kk = ginv[:, :, None, :, None] * ginv[:, None, :, None, :]
    kk = kk.reshape(n, d * d, d * d)
    tm = t.reshape(n, d * d, d * d)
    up = kk @ tm @ kk
    return (tm * up).reshape(n, -1).sum(axis=1)


def _pair_rows(a):
    """Rows a_pi a_qj over the pairs (p, q) of _PAIRS4 -> (N, 6, 4, 4)."""
    p, q = _PAIRS4.T
    return a[:, p, :, None] * a[:, q, None, :]


def _frame_lift(op, chol):
    """Rank-4 coordinate tensor of a Lambda^2 operator given in the
    coframe L = chol: sum over pairs of op_ab,cd M_ab,ij M_cd,kl with
    M_ab,ij = L_ia L_jb - L_ib L_ja."""
    n = op.shape[0]
    m = _pair_rows(np.swapaxes(chol, -1, -2))
    m = (m - np.swapaxes(m, -1, -2)).reshape(n, 6, 16)
    return (np.swapaxes(m, -1, -2) @ op @ m).reshape(n, 4, 4, 4, 4)


def curvature(m: MetricField, points, orientation: int = 1) -> CurvaturePacket:
    """Full curvature packet of a metric at one point or a batch.

    orientation (+1/-1) fixes the sign of the volume form used by the
    Hodge star; flipping it exchanges the self-dual and anti-self-dual
    Weyl parts.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    pts, squeeze = _as_batch(points, m.dim)
    d = m.dim
    g = m.g(pts)
    dg = m.dg(pts)
    d2g = m.d2g(pts)
    ginv = np.linalg.inv(g)

    nb = pts.shape[0]
    t = _first_kind(dg)
    gamma = _christoffel_from(ginv, t)
    # d_a Gamma^m_ij needs d_a g^{mk} = -g^{mp} (d_a g_pq) g^{qk}
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dt = _first_kind(d2g)
    tm = t.reshape(nb, 1, d, d * d)
    dgamma = 0.5 * (dginv @ tm + ginv[:, None] @ dt.reshape(nb, d, d, d * d))
    dgamma = dgamma.reshape(nb, d, d, d, d)

    # R^r_{s m v} = d_m G^r_vs - d_v G^r_ms + G^r_ml G^l_vs - G^l_ms G^r_vl
    t1 = dgamma.transpose(0, 2, 4, 1, 3)  # [n,m,r,v,s] -> n r s m v
    t2 = dgamma.transpose(0, 2, 4, 3, 1)  # [n,v,r,m,s] -> n r s m v
    gsq = gamma.reshape(nb, d * d, d) @ gamma.reshape(nb, d, d * d)
    gsq = gsq.reshape(nb, d, d, d, d)
    t3 = gsq.transpose(0, 1, 4, 2, 3)  # [n,r,m,v,s] -> n r s m v
    t4 = gsq.transpose(0, 1, 4, 3, 2)  # [n,r,v,m,s] -> n r s m v
    riem_ud = t1 - t2 + t3 - t4

    riemann = (g @ riem_ud.reshape(nb, d, d ** 3)).reshape(riem_ud.shape)
    ricci = _einsum("nrsrv->nsv", riem_ud)
    scalar = _einsum("nij,nij->n", ginv, ricci)
    traceless = ricci - (scalar / d)[:, None, None] * g

    packet = CurvaturePacket(
        points=_maybe_squeeze(pts, squeeze),
        metric=_maybe_squeeze(g, squeeze),
        inverse=_maybe_squeeze(ginv, squeeze),
        christoffel=_maybe_squeeze(gamma, squeeze),
        riemann=_maybe_squeeze(riemann, squeeze),
        ricci=_maybe_squeeze(ricci, squeeze),
        scalar=_maybe_squeeze(scalar, squeeze),
        traceless_ricci=_maybe_squeeze(traceless, squeeze),
        orientation=orientation,
    )

    e_sq = tensor_norm_sq(traceless, ginv)
    norms = {"traceless_ricci_sq": e_sq}

    if d == 4:
        schouten = ricci - (scalar / 6.0)[:, None, None] * g
        sigma2 = scalar ** 2 / 24.0 - 0.5 * e_sq
        # curvature operator on 2-forms in the Cholesky coframe
        chol = np.linalg.cholesky(g)
        frame = _pair_rows(np.linalg.inv(chol)).reshape(nb, 6, 16)
        rm = frame @ riemann.reshape(nb, 16, 16) @ np.swapaxes(frame, -1, -2)
        w_ops = []
        for sign in (orientation, -orientation):
            proj = 0.5 * (np.eye(6) + sign * _STAR)
            w_ops.append(proj @ rm @ proj - (scalar / 12.0)[:, None, None] * proj)
        wp_op, wm_op = w_ops
        norms["weyl_plus_sq"] = 4.0 * (wp_op ** 2).sum(axis=(1, 2))
        norms["weyl_minus_sq"] = 4.0 * (wm_op ** 2).sum(axis=(1, 2))
        norms["weyl_sq"] = norms["weyl_plus_sq"] + norms["weyl_minus_sq"]
        packet.schouten = _maybe_squeeze(schouten, squeeze)
        packet.sigma2 = _maybe_squeeze(sigma2, squeeze)
        packet._views = {
            "weyl": lambda: (
                riemann - _kulkarni_nomizu(traceless, g) / (d - 2)
                - (scalar / (2 * d * (d - 1)))[:, None, None, None, None]
                * _kulkarni_nomizu(g, g)),
            "weyl_plus": lambda: _frame_lift(wp_op, chol),
            "weyl_minus": lambda: _frame_lift(wm_op, chol),
        }

    packet.norms = {k: _maybe_squeeze(v, squeeze) for k, v in norms.items()}
    return packet


def riemann_symmetry_residuals(riemann) -> dict:
    """Sup-norm violations of the algebraic Riemann symmetries.

    Returns {"first_pair", "second_pair", "pair_swap", "first_bianchi"},
    each the largest absolute entry of the corresponding defect tensor.
    All four vanish identically for a curvature tensor; a corrupted
    component (sign flip, typo in an index map) shows up here at the
    size of the component itself.
    """
    r = np.asarray(riemann, dtype=float)
    if r.ndim < 4 or r.shape[-4:] != (r.shape[-1],) * 4:
        raise ValueError(f"expected a rank-4 square array, got shape {r.shape}")
    sup = lambda a: float(np.max(np.abs(a)))
    # R_ijkl + R_iklj + R_iljk
    cyclic = (r + np.einsum("...abcd->...adbc", r)
              + np.einsum("...abcd->...acdb", r))
    return {
        "first_pair": sup(r + np.swapaxes(r, -4, -3)),
        "second_pair": sup(r + np.swapaxes(r, -2, -1)),
        "pair_swap": sup(r - np.einsum("...abcd->...cdab", r)),
        "first_bianchi": sup(cyclic),
    }


def einstein_residual(m: MetricField, points, n: int = 3):
    """Frobenius norm |Ric + n g|_g, zero exactly when Ric = -n g."""
    pts, squeeze = _as_batch(points, m.dim)
    pack = curvature(m, pts)
    dev = pack.ricci + n * pack.metric
    val = np.sqrt(tensor_norm_sq(dev, pack.inverse))
    return _maybe_squeeze(val, squeeze)


def conformal_rescale(m: MetricField, w: ScalarField) -> MetricField:
    """Metric e^{2w} g with derivative closures built by the product rule."""

    def func(pts):
        f = np.exp(2.0 * np.asarray(w.value(pts)))
        return f[:, None, None] * m.g(pts, check=False)

    def dfunc(pts):
        g = m.g(pts, check=False)
        dg = m.dg(pts)
        f = np.exp(2.0 * np.asarray(w.value(pts)))
        dw = np.asarray(w.grad(pts))
        term = 2.0 * _einsum("nk,nij->nkij", dw, g) + dg
        return f[:, None, None, None] * term

    def d2func(pts):
        g = m.g(pts, check=False)
        dg = m.dg(pts)
        d2g = m.d2g(pts)
        f = np.exp(2.0 * np.asarray(w.value(pts)))
        dw = np.asarray(w.grad(pts))
        hw = np.asarray(w.hess(pts))
        term = (4.0 * _einsum("nk,nl,nij->nklij", dw, dw, g)
                + 2.0 * _einsum("nkl,nij->nklij", hw, g)
                + 2.0 * _einsum("nk,nlij->nklij", dw, dg)
                + 2.0 * _einsum("nl,nkij->nklij", dw, dg)
                + d2g)
        return f[:, None, None, None, None] * term

    return MetricField(m.chart, func, dfunc, d2func, m.scheme,
                       name=m.name + "/conformal")

"""Pointwise curvature of explicit Riemannian metrics.

A metric is a component function of the chart coordinates it reads,
and its jet (g, dg and d2g together, with exact derivatives) is the
autodiff of that function. Composite metrics (conformal rescalings, the
normal form) are component functions that call their parts' functions.
Nothing here differentiates numerically; the tests check the jets
against sympy and central-difference oracles. All operations are
batched: points have shape (N, dim), a single point is a one-row batch,
and every tensor gains a leading batch axis: a jet's arrays are views of
batch-last storage, and the kernel works on either layout alike.

Index conventions, fixed once and validated against round-sphere golden
values in the test suite:

* dg[k, i, j]      = d g_ij / dx^k
* d2g[k, l, i, j]  = d^2 g_ij / dx^k dx^l
* riemann[i, j, k, l] is fully lowered, antisymmetric in (i, j) and in
  (k, l), symmetric under pair swap, and R_ijij > 0 on round spheres
  (positive sectional curvature).
* ricci[i, j] = riemann^k_ikj contraction; scalar = trace.

The kernel works in the pair basis of 2-forms (i < j, P = d(d-1)/2),
where Riemann is a symmetric P x P operator gathered straight from the jet,
R_ijkl = (d_il g_jk - d_ik g_jl - d_jl g_ik + d_jk g_il)/2
+ G_q,jk G^q_il - G_q,jl G^q_ik, on its P(P+1)/2 upper-triangle pairs (21
in dimension 4) and then mirrored; the quadratic terms are entries of the
Gram matrix of the Christoffel symbols G_q,ab on the d(d+1)/2 index pairs
a <= b. One Cholesky factor g = L L^T per batch gives sqrt(det g) = prod
diag L and, by forward substitution, L^-1: the orthonormal coframe that
carries the operator to its frame form. Everything read of the frame
operator is a constant linear map of its P^2 entries, applied as one
matrix product per batch: the frame Ricci, whence R and |E|^2, and in
dimension 4 the Atiyah-Hitchin-Singer split, whose self-dual and
anti-self-dual diagonal blocks, less R/12, are W+-. The packet keeps
the pair-basis operator, the Cholesky factor and the frame Ricci, and
builds the coordinate riemann and ricci from them only when read.
"""

from __future__ import annotations

import inspect
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff
from .errors import DomainError, SingularMetric

__all__ = [
    "Chart",
    "MetricField",
    "components",
    "CurvaturePacket",
    "curvature",
    "riemann_symmetry_residuals",
    "einstein_residual",
    "conformal_rescale",
]

# self-dual (rows 0-2) and anti-self-dual (rows 3-5) unit 2-forms of an oriented
# orthonormal coframe in the pair basis (01, 02, 03, 12, 13, 23), as *e01 = e23,
# *e02 = -e13, *e03 = e12: (e01 +- e23, e02 -+ e13, e03 +- e12) / sqrt 2, the
# signs kept apart so that products of two rows carry an exact 1/2
_SIGNS = np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0],
                   [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]])


# ---------------------------------------------------------------------------
# charts

class Chart(NamedTuple):
    """Open coordinate box with names, used for domain checks and sampling."""

    names: tuple
    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.names)

    def contains(self, points) -> np.ndarray:
        """Which rows of an (N, dim) batch lie inside the box."""
        return np.all((points > np.asarray(self.lo)) & (points < np.asarray(self.hi)), axis=1)

    def require(self, points) -> None:
        ok = self.contains(points)
        if not np.all(ok):
            bad = points[~ok][0]
            raise DomainError(f"point {bad} outside chart box {self.lo}..{self.hi}")

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic interior sample in the middle 70% of each side
        of the box, away from its walls."""
        rng = np.random.default_rng(seed)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        span = hi - lo
        return lo + span * (0.15 + 0.7 * rng.random((n, self.dim)))


def _as_batch(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError(f"points of shape {pts.shape} are not an (N, {dim}) batch")
    return pts


# ---------------------------------------------------------------------------
# fields written in chart coordinates

def _read_axes(chart: Chart, func) -> tuple:
    """Chart indices of the coordinates func takes, by parameter name."""
    names = tuple(inspect.signature(func).parameters)
    unknown = [n for n in names if n not in chart.names]
    if unknown:
        raise DomainError(f"{unknown} are not coordinates of the chart {chart.names}")
    return tuple(chart.names.index(n) for n in names)


# ---------------------------------------------------------------------------
# metric fields

class MetricField:
    """Riemannian metric on a chart, batched.

    jet(points) -> (g, dg, d2g) on an (N, d) batch is the one evaluation
    path, and g, dg and d2g read it. A field built by ``components``
    keeps its component function func and the chart axes it takes, and
    its jet is their autodiff; cyclic_axes lists the chart axes func
    does not take, so the metric and all its curvature are constant
    along them. A field built from a raw jet has no func and records no
    cyclic axes.
    """

    func: Optional[Callable] = None
    axes: Optional[tuple] = None
    cyclic_axes: tuple = ()

    def __init__(self, chart: Chart, jet, *, name: str = ""):
        self.chart = chart
        self.dim = chart.dim
        self._jet = jet
        self.name = name

    # -- evaluation ---------------------------------------------------------

    def jet(self, points, check: bool = True):
        """(g, dg, d2g) at an (N, d) batch, batch axis first (views of
        batch-last storage for a component-built field); check screens
        the chart box and positivity."""
        pts = _as_batch(points, self.dim)
        if check:
            self.chart.require(pts)
        g, dg, d2g = (np.asarray(a, dtype=float) for a in self._jet(pts))
        if check:
            _positive_factor(g, pts)
        return g, dg, d2g

    def g(self, points, check: bool = True):
        return self.jet(points, check)[0]

    # dg and d2g are kept only for the benchmark's probes
    def dg(self, points):
        return self.jet(points)[1]

    def d2g(self, points):
        return self.jet(points)[2]

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def from_function(chart: Chart, func, name: str = "") -> "MetricField":
        """func returns the component matrix (nested lists of jet
        expressions) in the chart coordinates it names."""
        return components(chart, _read_axes(chart, func), func, name)


def components(chart: Chart, axes, func, name: str = "") -> MetricField:
    """The metric whose component matrix is func, a function of the chart
    coordinates listed in axes returning nested lists of jet expressions
    (entries may be numbers)."""
    d = chart.dim
    m = MetricField(chart, autodiff.field_jet(func, axes, (d, d)), name=name)
    m.func, m.axes = func, tuple(axes)
    m.cyclic_axes = tuple(i for i in range(d) if i not in m.axes)
    return m


def _positive_factor(mat, pts):
    """Cholesky factor of a batch of metric matrices, screened for
    finiteness, symmetry and positivity."""
    # NaN passes every comparison below and the factorization
    finite = np.isfinite(mat).all(axis=(-2, -1))
    if not finite.all():
        i = int(np.argmin(finite))
        raise SingularMetric(f"metric component not finite at point {pts[i]}")
    sym_err = np.max(np.abs(mat - np.swapaxes(mat, -1, -2)))
    if sym_err > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise SingularMetric(f"metric not symmetric (max asymmetry {sym_err:.2e})")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        # the factorization only screens; the leading minors decide
        # (Sylvester's criterion) and name the failing k and point
        for k in range(1, mat.shape[-1] + 1):
            minors = np.linalg.det(mat[:, :k, :k])
            if np.any(minors <= 0):
                i = int(np.argmax(minors <= 0))
                raise SingularMetric(
                    f"leading {k}x{k} minor nonpositive ({minors[i]:.3e}) "
                    f"at point {pts[i]}"
                )
        raise SingularMetric("metric not numerically positive definite "
                             "(Cholesky factorization failed)") from None


# ---------------------------------------------------------------------------
# curvature

class CurvaturePacket:
    """All pointwise curvature data of a metric at a batch of points.

    volume_density is sqrt(det g); sigma2 is None outside dimension 4;
    norms holds |E|^2 and, in dimension 4, |W|^2 and |W+-|^2. The
    coordinate riemann and ricci are built on first read from the
    pair-basis operator rp, the Cholesky factor chol and the frame Ricci
    ric_f that the kernel formed.
    """

    def __init__(self, metric, scalar, volume_density, sigma2, norms, rp, chol, ric_f):
        self.metric = metric
        self.scalar = scalar
        self.volume_density = volume_density
        self.sigma2 = sigma2
        self.norms = norms
        self._rp, self._chol, self._ric_f = rp, chol, ric_f

    @cached_property
    def riemann(self):
        return _unpair(self._rp, _pair_tables(self.metric.shape[-1]))

    @cached_property
    def ricci(self):
        return self._chol @ self._ric_f @ np.swapaxes(self._chol, -1, -2)


@lru_cache(maxsize=None)
def _pair_tables(d):
    """Static tables of the pair basis of 2-forms in dimension d, the
    pairs i < j in lexicographic order, built on first use. basis holds
    e_i ^ e_j as flattened antisymmetric (d, d) arrays. christoffel
    gathers, from a flat dg, the three terms of twice the Christoffel
    symbols of the first kind, T_k,ab = d_a g_kb + d_b g_ka - d_k g_ab,
    on the S = d(d+1)/2 index pairs a <= b. hess and quad gather, over
    the upper-triangle pairs (ij, kl) of the symmetric operator, the
    terms of R_ijkl in d2g and in the (S, S) Gram matrix of those
    symbols; mirror takes the upper triangle to the whole (P, P)
    operator. minors are the flat indices of a_ik a_jl - a_il a_jk in a
    (d, d) array over all pairs. readout is the constant linear map of a
    frame operator's P*P entries to the frame Ricci R(e_c, e_a, e_c, e_b)
    = sum_xy rm_xy (E_x^T E_y)_ab (d*d columns) and, in dimension 4, to
    the diagonal 3 x 3 blocks of S rm S^T / 2, S = _SIGNS (2 * 9 more)."""
    def flat(*ix):
        return np.ravel_multi_index(np.broadcast_arrays(*ix), (d,) * len(ix))

    a, b = np.triu_indices(d)
    sym = np.zeros((d, d), dtype=int)
    sym[a, b] = sym[b, a] = np.arange(a.size)
    k = np.arange(d)[:, None]
    i, j = np.triu_indices(d, 1)
    npair = i.size
    rows, cols = np.triu_indices(npair)
    (ui, uj), (uk, ul) = (i[rows], j[rows]), (i[cols], j[cols])
    mirror = np.zeros((npair, npair), dtype=int)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    basis = 1.0 * (flat(i[:, None], j[:, None]) == np.arange(d * d)) - (
        flat(j[:, None], i[:, None]) == np.arange(d * d))
    frame = basis.reshape(npair, d, d)
    readout = [np.einsum("xca,ycb->xyab", frame, frame).reshape(npair ** 2, d * d)]
    if d == 4:
        readout += [0.5 * np.einsum("px,qy->xypq", half, half).reshape(npair ** 2, 9)
                    for half in (_SIGNS[:3], _SIGNS[3:])]
    pi, pj = (c[:, None] for c in (i, j))
    return SimpleNamespace(
        d=d, basis=basis, mirror=mirror.ravel(),
        christoffel=np.stack([flat(a, k, b), flat(b, k, a), flat(k, a, b)]),
        hess=np.stack([flat(ui, ul, uj, uk), flat(ui, uk, uj, ul),
                       flat(uj, ul, ui, uk), flat(uj, uk, ui, ul)]),
        quad=np.stack([sym[uj, uk] * a.size + sym[ui, ul],
                       sym[uj, ul] * a.size + sym[ui, uk]]),
        minors=np.stack([flat(pi, pi.T), flat(pj, pj.T), flat(pi, pj.T), flat(pj, pi.T)]),
        readout=np.hstack(readout))


def _lower_inverse(chol):
    """Inverses of batch-last (d, d, N) lower-triangular factors by forward substitution."""
    inv = np.zeros_like(chol)
    recip = 1.0 / np.diagonal(chol).T
    for i in range(len(chol)):
        inv[i, :i] = -(chol[i, :i, None] * inv[:i, :i]).sum(axis=0) * recip[i]
        inv[i, i] = recip[i]
    return inv


def _minors(a, tables):
    """2x2 minors of batch-last (d, d, N) square matrices: their action on 2-forms."""
    flat = a.reshape(-1, a.shape[-1])
    ik, jl, il, jk = tables.minors
    out = flat[ik] * flat[jl]
    out -= flat[il] * flat[jk]
    return out


def _batch_first(a):
    """(..., N) -> (N, ...), C-contiguous: the matmuls' operand layout."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _unpair(op, tables):
    """Rank-4 tensor of a batch of operators on 2-forms in the pair basis."""
    return (tables.basis.T @ op @ tables.basis).reshape((-1,) + (tables.d,) * 4)


def curvature(m: MetricField, points, orientation: int = 1) -> CurvaturePacket:
    """Full curvature packet of a metric at an (N, d) batch of points.

    orientation (+1/-1) fixes the sign of the volume form used by the
    Hodge star; flipping it exchanges the self-dual and anti-self-dual
    Weyl parts.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    pts = _as_batch(points, m.dim)
    m.chart.require(pts)
    g, dg, d2g = m.jet(pts, check=False)
    # g and every matmul operand keep their (N, ...) layout; the terms
    # linear in the jet are formed batch-last, as field_jet stores it
    g = np.ascontiguousarray(g)
    chol = _positive_factor(g, pts)
    linv_t = _lower_inverse(np.ascontiguousarray(np.moveaxis(chol, 0, -1)))
    linv = _batch_first(linv_t)
    tables = _pair_tables(m.dim)
    nb, npair, d = pts.shape[0], tables.basis.shape[0], m.dim

    # R_ijkl = (d_il g_jk - d_ik g_jl - d_jl g_ik + d_jk g_il) / 2
    #          + G_q,jk G^q_il - G_q,jl G^q_ik
    # on the upper-triangle pairs (ij, kl), mirrored to the symmetric
    # operator, the quadratic terms read off the Gram matrix of L^-1 G_.,ab.
    # The steps run in place where they can: on a large batch each fresh
    # temporary costs page faults as well as its arithmetic.
    dgf = np.moveaxis(dg, 0, -1).reshape(-1, nb)
    first, second, third = tables.christoffel
    t = dgf[first] + dgf[second]
    t -= dgf[third]
    t *= 0.5
    h = linv @ _batch_first(t)
    # transposed operands are copied: a strided one leaves numpy's BLAS path
    gram = (np.ascontiguousarray(np.swapaxes(h, -1, -2)) @ h).reshape(nb, -1)
    d2gf = np.moveaxis(d2g, 0, -1).reshape(-1, nb)
    il_jk, ik_jl, jl_ik, jk_il = tables.hess
    lin = d2gf[il_jk] - d2gf[ik_jl]
    lin -= d2gf[jl_ik] - d2gf[jk_il]
    lin *= 0.5
    upper = np.take(gram, tables.quad[0], axis=1)
    upper -= np.take(gram, tables.quad[1], axis=1)
    upper += lin.T
    rp = np.take(upper, tables.mirror, axis=1).reshape(nb, npair, npair)

    # the curvature operator in the orthonormal coframe of L, and what is
    # read of it, a constant linear map of its entries: the frame Ricci
    # and, in dimension 4, the diagonal blocks in the dual basis
    frame_t = _minors(linv_t, tables)
    rm = _batch_first(frame_t) @ rp @ _batch_first(frame_t.transpose(1, 0, 2))
    read = rm.reshape(nb, -1) @ tables.readout
    ric_f = read[:, :d * d].reshape(nb, d, d)
    scalar = np.trace(ric_f, axis1=-2, axis2=-1)
    e_sq = ((ric_f - (scalar / d)[:, None, None] * np.eye(d)) ** 2).sum(axis=(1, 2))

    norms = {"traceless_ricci_sq": e_sq}
    sigma2 = None
    if d == 4:
        sigma2 = scalar ** 2 / 24.0 - 0.5 * e_sq
        # the self-dual and anti-self-dual diagonal blocks of the operator,
        # less their trace R/12, are the W+- of the orientation
        blocks = read[:, d * d:].reshape(nb, 2, 3, 3)
        shift = (scalar / 12.0)[:, None, None] * np.eye(3)
        wp_op, wm_op = (blocks[:, 0] - shift, blocks[:, 1] - shift)[::orientation]
        norms["weyl_plus_sq"] = 4.0 * (wp_op ** 2).sum(axis=(1, 2))
        norms["weyl_minus_sq"] = 4.0 * (wm_op ** 2).sum(axis=(1, 2))
        norms["weyl_sq"] = norms["weyl_plus_sq"] + norms["weyl_minus_sq"]

    return CurvaturePacket(
        metric=g, scalar=scalar,
        volume_density=np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1),
        sigma2=sigma2, norms=norms, rp=rp, chol=chol, ric_f=ric_f)


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


def einstein_residual(m: MetricField, points):
    """Frobenius norm |Ric + 3g|_g, zero exactly when Ric = -3g, the
    Einstein condition of every fill here."""
    # Ric + 3g = E + (R/d + 3) g, with E the traceless Ricci
    pack = curvature(m, points)
    return np.sqrt(pack.norms["traceless_ricci_sq"] + m.dim * (pack.scalar / m.dim + 3) ** 2)


def conformal_rescale(m: MetricField, w: Callable) -> MetricField:
    """Metric e^{2w} g, w a jet expression in the chart coordinates it
    names: the component function e^{2w} g_ij over the union of the axes
    of w and m, zero components left as they are."""
    w_axes = _read_axes(m.chart, w)
    axes = tuple(sorted(set(m.axes) | set(w_axes)))
    take_m, take_w = ([axes.index(a) for a in f] for f in (m.axes, w_axes))

    def func(*x):
        f = autodiff.exp(2.0 * w(*(x[i] for i in take_w)))
        return [[c if _is_zero(c) else f * c for c in row]
                for row in m.func(*(x[i] for i in take_m))]

    return components(m.chart, axes, func, m.name + "/conformal")


def _is_zero(c):
    return not isinstance(c, autodiff.Jet) and c == 0

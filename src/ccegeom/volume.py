"""Renormalized volume by sublevel quadrature and ladder regression.

For an Einstein fill g = s^{-2}(ds^2 + g_s) with n = 3 the sublevel
volumes expand as

    Vol({s > eps}) = c0 eps^-3 + c2 eps^-1 + V + o(1),

with no eps^-2 and no log term, and V the renormalized volume. The
divergent coefficients are local and exact (Graham, arXiv:math/9909042):
c0 = vol(g^)/3 and c2 = -R^ vol(g^)/8, from the boundary volume and
scalar curvature. The pipeline is one radial quadrature of the volume
density in the fill's radial chart y, read off at every ladder rung: a
chart point y_k whose eps_k = s(y_k) is read forward (the boundary
volume carries the angular integral). The two known terms are
subtracted, and the remainder is regressed on {1, eps, ..., eps^5},
whose tail columns absorb the o(1) remainder so V is not contaminated
by it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, FitConditioning, QuadratureTolerance, UnstableFit
from .quadrature import ROUNDOFF, geometric_panels, panel_sums

__all__ = [
    "DEFAULT_LADDER",
    "VolumeFit",
    "sublevel_volumes",
    "fit_ladder",
    "fit_renormalized_volume",
    "fit_document",
    "write_volume_table",
]

#: default ladder of chart rungs; spans a factor about 512 in the leading term
DEFAULT_LADDER = (0.4, 0.3, 0.22, 0.16, 0.12, 0.09, 0.065, 0.05)
#: relative tolerance of each rung's sublevel quadrature
QUAD_TOL = 1e-12
#: largest move of V allowed when the largest rung is dropped
STABILITY_GATE = 1e-3

#: powers of eps regressed once the divergent terms are subtracted: V and its tail
_POWERS = (0, 1, 2, 3, 4, 5)
_EPS = float(np.finfo(float).eps)


class VolumeFit(NamedTuple):
    """Ladder samples, the closed-form divergent coefficients and the
    regression coefficients of the volume expansion."""

    epsilons: np.ndarray
    volumes: np.ndarray
    c0: float
    c2: float
    V: float
    residual: float
    boundary_volume: float
    condition_number: float
    stability_change: float
    tail_coefficients: dict
    quadrature_errors: Optional[np.ndarray] = None


def sublevel_volumes(fg, ladder) -> tuple:
    """Vol({s > eps}) at every chart rung y of ``ladder``, eps = s(y),
    and error estimates.

    Radial reduction: boundary volume times int_y^{y_max} of
    fg.density, s^-4 D(s) ds/dy. The sublevel sets are nested, so the
    integrand is integrated once, on panels graded geometrically away
    from the smallest rung (where it varies fastest) with every rung a
    breakpoint. Gauss-Legendre 16 on every panel halved gives the
    values, on every panel whole the companion; a rung's volume is the
    suffix sum of the values from its breakpoint up, and its estimate
    the distance from the companion's suffix sum, floored at ROUNDOFF
    eps times the volume (the integrand is positive). Raises
    QuadratureTolerance when an estimate exceeds QUAD_TOL times
    max(1, y^-3, the integral).
    """
    rungs = np.asarray(ladder, dtype=float)
    outside = ~((rungs > 0) & (rungs < fg.y_max))
    if outside.any():
        raise DomainError(
            f"rung eps must lie in the chart (0, y_max={fg.y_max}), got {rungs[outside][0]}")
    # sorted and deduplicated through a set: np.union1d would import numpy.ma
    edges = np.asarray(sorted({*geometric_panels(rungs.min(), fg.y_max).tolist(),
                               *rungs.tolist()}))
    halved = np.empty(2 * edges.size - 1)
    halved[0::2] = edges
    halved[1::2] = 0.5 * (edges[:-1] + edges[1:])
    sums = panel_sums(np.concatenate([edges[:-1], halved[:-1]]),
                      np.concatenate([edges[1:], halved[1:]]), fg.density, 16)
    n = edges.size - 1
    at = np.searchsorted(edges, rungs)
    value = np.cumsum((sums[n::2] + sums[n + 1::2])[::-1])[::-1][at]
    companion = np.cumsum(sums[:n][::-1])[::-1][at]
    err = np.maximum(np.abs(value - companion), ROUNDOFF * _EPS * value)
    # negated so that a NaN estimate misses too
    missed = ~(err <= QUAD_TOL * np.maximum(np.maximum(1.0, rungs**-3.0), value))
    if missed.any():
        k = np.flatnonzero(missed)[0]
        raise QuadratureTolerance(
            f"sublevel quadrature on [{rungs[k]}, {fg.y_max}] did not reach "
            f"tol={QUAD_TOL}: estimate {err[k]:.3e}")
    vol_hat = fg.boundary.volume
    return vol_hat * value, vol_hat * err


def _powers_matrix(eps: np.ndarray, powers) -> np.ndarray:
    return np.stack([eps**float(k) for k in powers], axis=1)


def _divergent(eps: np.ndarray, c0: float, c2: float) -> np.ndarray:
    return c0 * eps**-3.0 + c2 / eps


def fit_ladder(epsilons, volumes, boundary_volume: float,
               scalar_curvature: float) -> VolumeFit:
    """Subtract the closed-form divergent terms and regress V and its tail.

    Pure function of the samples, so synthetic data can exercise the
    regression exactly. The fit is refitted without the largest rung,
    and UnstableFit is raised if V moves by more than STABILITY_GATE.
    """
    eps = np.asarray(epsilons, dtype=float)
    vols = np.asarray(volumes, dtype=float)
    if eps.ndim != 1 or eps.size != vols.size:
        raise DomainError("epsilons and volumes must be 1-d and equal length")
    if np.any(np.diff(eps) >= 0):
        raise DomainError("ladder must be strictly decreasing")
    if (eps[0] / eps[-1]) ** 3 < 10.0:
        raise DomainError("ladder too short: leading term must span a decade")
    if eps.size < len(_POWERS):
        raise DomainError(
            f"ladder has {eps.size} rungs but the basis needs {len(_POWERS)}"
        )
    bvol = float(boundary_volume)
    c0 = bvol / 3.0
    c2 = -float(scalar_curvature) * bvol / 8.0
    rest = vols - _divergent(eps, c0, c2)

    def solve(e, v):
        cols = _powers_matrix(e, _POWERS)
        scale = np.linalg.norm(cols, axis=0)
        cond = float(np.linalg.cond(cols / scale))
        if cond > 1e8:
            raise FitConditioning(
                f"volume design matrix condition {cond:.2e} > 1e8"
            )
        coef, *_ = np.linalg.lstsq(cols / scale, v, rcond=None)
        coef = coef / scale
        resid = float(np.max(np.abs(cols @ coef - v)))
        return coef, cond, resid

    coef, cond, resid = solve(eps, rest)
    coef2, _, _ = solve(eps[1:], rest[1:])
    stability = float(abs(coef2[0] - coef[0]))
    if stability > STABILITY_GATE:
        raise UnstableFit(
            f"renormalized volume moved {stability:.2e} when the largest "
            f"rung was dropped (gate {STABILITY_GATE:.1e}); the ladder "
            "does not resolve the constant term"
        )
    return VolumeFit(
        epsilons=eps,
        volumes=vols,
        c0=c0,
        c2=c2,
        V=float(coef[0]),
        residual=resid,
        boundary_volume=bvol,
        condition_number=cond,
        stability_change=stability,
        tail_coefficients={k: float(c) for k, c in zip(_POWERS[1:], coef[1:])},
    )


def fit_renormalized_volume(fg, ladder=None) -> VolumeFit:
    """Sublevel volumes on the chart rungs of the ladder, then the
    expansion regression at their eps = s(y), read forward.

    The drop-one-rung drift of V is reported on the result as
    stability_change.
    """
    ladder = np.asarray(DEFAULT_LADDER if ladder is None else ladder, dtype=float)
    vols, errs = sublevel_volumes(fg, ladder)
    fit = fit_ladder(fg.warp(ladder).s, vols, fg.boundary.volume,
                     fg.boundary.scalar_curvature)
    return fit._replace(quadrature_errors=errs)


def fit_document(fit: VolumeFit) -> dict:
    """The volume_fit section of the analyze report."""
    return {
        "V": fit.V, "c0": fit.c0, "c2": fit.c2,
        "fit_residual": fit.residual,
        "condition_number": fit.condition_number,
        "stability_change": fit.stability_change,
        "ladder": [float(e) for e in fit.epsilons],
        "quadrature_errors": [float(e) for e in fit.quadrature_errors],
    }


def write_volume_table(fit: VolumeFit, path) -> None:
    coef = [fit.V] + [fit.tail_coefficients[k] for k in _POWERS[1:]]
    fitted = (_divergent(fit.epsilons, fit.c0, fit.c2)
              + _powers_matrix(fit.epsilons, _POWERS) @ coef)
    with open(path, "w") as fh:
        fh.write("# volume-ladder v1\n")
        fh.write("epsilon,volume,fit_value,deviation\n")
        for e, v, f in zip(fit.epsilons, fit.volumes, fitted):
            fh.write(f"{e:.17g},{v:.17g},{f:.17g},{v - f:.3e}\n")

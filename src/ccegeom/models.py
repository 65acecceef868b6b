"""Model library: closed 4-manifolds and conformally compact fills.

Closed models come with their integration domain and exact topological
data; conformally compact models come as FGMetric families of
normal-form warps. All sympy-backed fields carry analytic first and
second derivatives, so curvature needs no finite differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
import sympy as sp

from .errors import ModelParameterError, NotAvailable
from .integrals import ProductChartDomain
from .normal_form import (
    BlockWarp,
    BoundaryGeometry,
    FGMetric,
    ProfileBlock,
    RadialProfile,
    normal_form_from_profile,
)
from .tensor import Chart, MetricField

__all__ = [
    "ClosedModel",
    "round_sphere_boundary",
    "circle_sphere_boundary",
    "flat_torus_boundary",
    "berger_sphere_boundary",
    "round_sphere4",
    "flat_torus4",
    "product_spheres",
    "fubini_study",
    "hyperbolic",
    "ads_schwarzschild",
    "perturbed_hyperbolic",
    "polynomial_family",
    "model_names",
    "build",
    "exact_reference",
]


# ---------------------------------------------------------------------------
# boundary geometries (closed 3-manifolds)

def _positive(value, name):
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ModelParameterError(f"{name} must be positive, got {value}")
    return value


@lru_cache(maxsize=None)
def _round_sphere_boundary_field(radius: float) -> MetricField:
    t1, t2, t3 = sp.symbols("t1 t2 t3", positive=True)
    lam2 = sp.Rational(radius) ** 2 if float(radius).is_integer() else sp.Float(radius) ** 2
    gmat = sp.diag(lam2, lam2 * sp.sin(t1) ** 2,
                   lam2 * sp.sin(t1) ** 2 * sp.sin(t2) ** 2)
    chart = Chart(("t1", "t2", "t3"), (0.0, 0.0, 0.0), (np.pi, np.pi, 2 * np.pi))
    return MetricField.from_sympy((t1, t2, t3), gmat, chart,
                                  name=f"round-S3(r={radius})")


def round_sphere_boundary(radius: float = 1.0) -> BoundaryGeometry:
    radius = _positive(radius, "radius")
    rhat = Fraction(6) if radius == 1.0 else 6.0 / radius**2
    return BoundaryGeometry(
        name=f"round-S3(r={radius})",
        field=_round_sphere_boundary_field(radius),
        volume=2 * np.pi**2 * radius**3,
        scalar_curvature=rhat,
        default_point=(1.1, 1.3, 0.7),
    )


@lru_cache(maxsize=None)
def _circle_sphere_boundary_field(length: float, radius: float) -> MetricField:
    ph, th, ps = sp.symbols("ph th ps", positive=True)
    a2 = sp.Float(radius) ** 2
    gmat = sp.diag(sp.Integer(1), a2, a2 * sp.sin(th) ** 2)
    chart = Chart(("ph", "th", "ps"), (0.0, 0.0, 0.0),
                  (length, np.pi, 2 * np.pi))
    return MetricField.from_sympy((ph, th, ps), gmat, chart,
                                  name=f"S1({length})xS2(r={radius})")


def circle_sphere_boundary(length: float, radius: float = 1.0) -> BoundaryGeometry:
    length = _positive(length, "length")
    radius = _positive(radius, "radius")
    rhat = Fraction(2) if radius == 1.0 else 2.0 / radius**2
    return BoundaryGeometry(
        name=f"S1({length:.6g})xS2(r={radius})",
        field=_circle_sphere_boundary_field(length, radius),
        volume=length * 4 * np.pi * radius**2,
        scalar_curvature=rhat,
        default_point=(0.37 * length, 1.2, 0.9),
    )


@lru_cache(maxsize=None)
def _flat_torus_boundary_field(lengths: tuple) -> MetricField:
    xs = sp.symbols("x1 x2 x3", real=True)
    gmat = sp.eye(3)
    chart = Chart(("x1", "x2", "x3"), (0.0, 0.0, 0.0), lengths)
    return MetricField.from_sympy(xs, gmat, chart, name="flat-T3")


def flat_torus_boundary(lengths=(2 * np.pi,) * 3) -> BoundaryGeometry:
    lengths = tuple(_positive(l, "length") for l in lengths)
    return BoundaryGeometry(
        name="flat-T3",
        field=_flat_torus_boundary_field(lengths),
        volume=float(np.prod(lengths)),
        scalar_curvature=Fraction(0),
        default_point=tuple(0.3 * l for l in lengths),
    )


@lru_cache(maxsize=None)
def _berger_sphere_boundary_field(lam: float) -> MetricField:
    th, ph, ps = sp.symbols("th ph ps", positive=True)
    lam_s = sp.Float(lam)
    # quarter-scaled bi-invariant frame, Hopf circle stretched by lam:
    # g = (1/4) [dth^2 + sin^2 th dph^2 + lam^2 (dps + cos th dph)^2]
    s1 = [0, sp.cos(th), 1]            # dps + cos th dph in (th, ph, ps)
    gmat = sp.zeros(3, 3)
    gmat[0, 0] = sp.Rational(1, 4)
    gmat[1, 1] = sp.sin(th) ** 2 / 4
    for i in range(3):
        for j in range(3):
            gmat[i, j] += lam_s**2 * s1[i] * s1[j] / 4
    chart = Chart(("th", "ph", "ps"), (0.0, 0.0, 0.0),
                  (np.pi, 2 * np.pi, 4 * np.pi))
    return MetricField.from_sympy((th, ph, ps), gmat, chart,
                                  name=f"berger-S3(lam={lam})")


def berger_sphere_boundary(lam: float = 0.8) -> BoundaryGeometry:
    lam = _positive(lam, "lam")
    return BoundaryGeometry(
        name=f"berger-S3(lam={lam})",
        field=_berger_sphere_boundary_field(lam),
        volume=2 * np.pi**2 * lam,
        scalar_curvature=8 - 2 * lam**2,
        default_point=(1.2, 0.8, 2.1),
    )


# ---------------------------------------------------------------------------
# closed 4-manifolds

@dataclass
class ClosedModel:
    """A closed 4-manifold model: field, integration domain, exact data."""

    name: str
    field: MetricField
    domain: object
    euler: int
    signature: int
    volume: float
    einstein: bool
    yamabe_positive: bool
    orientation: int = 1
    notes: str = ""


@lru_cache(maxsize=None)
def _round_sphere4_field(radius: float) -> MetricField:
    t1, t2, t3, t4 = sp.symbols("t1 t2 t3 t4", positive=True)
    lam2 = sp.Float(radius) ** 2
    s1, s2, s3 = sp.sin(t1), sp.sin(t2), sp.sin(t3)
    gmat = sp.diag(lam2, lam2 * s1**2, lam2 * s1**2 * s2**2,
                   lam2 * s1**2 * s2**2 * s3**2)
    chart = Chart(("t1", "t2", "t3", "t4"), (0.0,) * 4,
                  (np.pi, np.pi, np.pi, 2 * np.pi))
    return MetricField.from_sympy((t1, t2, t3, t4), gmat, chart,
                                  name=f"round-S4(r={radius})")


def round_sphere4(radius: float = 1.0) -> ClosedModel:
    radius = _positive(radius, "radius")
    domain = ProductChartDomain(
        axes=((0.0, np.pi, 1), (0.0, np.pi, 1), (0.0, np.pi, 1),
              (0.0, 2 * np.pi, 1)),
        label="round-S4",
    )
    return ClosedModel(
        name=f"round_sphere(r={radius:g})",
        field=_round_sphere4_field(radius),
        domain=domain,
        euler=2,
        signature=0,
        volume=8 * np.pi**2 / 3 * radius**4,
        einstein=True,
        yamabe_positive=True,
    )


@lru_cache(maxsize=None)
def _flat_torus4_field(lengths: tuple) -> MetricField:
    xs = sp.symbols("x1 x2 x3 x4", real=True)
    chart = Chart(("x1", "x2", "x3", "x4"), (0.0,) * 4, lengths)
    return MetricField.from_sympy(xs, sp.eye(4), chart, name="flat-T4")


def flat_torus4(lengths=(2 * np.pi,) * 4) -> ClosedModel:
    lengths = tuple(_positive(l, "length") for l in lengths)
    domain = ProductChartDomain(
        axes=tuple((0.0, l, 1) for l in lengths), label="flat-T4")
    return ClosedModel(
        name="flat_torus",
        field=_flat_torus4_field(lengths),
        domain=domain,
        euler=0,
        signature=0,
        volume=float(np.prod(lengths)),
        einstein=True,
        yamabe_positive=False,
        notes="scalar-flat; every curvature integral vanishes",
    )


@lru_cache(maxsize=None)
def _product_spheres_field(a: float, b: float) -> MetricField:
    t, p, u, v = sp.symbols("t p u v", positive=True)
    a2, b2 = sp.Float(a) ** 2, sp.Float(b) ** 2
    gmat = sp.diag(a2, a2 * sp.sin(t) ** 2, b2, b2 * sp.sin(u) ** 2)
    chart = Chart(("t", "p", "u", "v"), (0.0,) * 4,
                  (np.pi, 2 * np.pi, np.pi, 2 * np.pi))
    return MetricField.from_sympy((t, p, u, v), gmat, chart,
                                  name=f"S2(a={a})xS2(b={b})")


def product_spheres(a: float = 1.0, b: float = 1.0) -> ClosedModel:
    a = _positive(a, "a")
    b = _positive(b, "b")
    domain = ProductChartDomain(
        axes=((0.0, np.pi, 1), (0.0, 2 * np.pi, 1), (0.0, np.pi, 1),
              (0.0, 2 * np.pi, 1)),
        label="S2xS2",
    )
    return ClosedModel(
        name=f"product_spheres(a={a:g},b={b:g})",
        field=_product_spheres_field(a, b),
        domain=domain,
        euler=4,
        signature=0,
        volume=16 * np.pi**2 * a**2 * b**2,
        einstein=(a == b),
        yamabe_positive=True,
    )


@lru_cache(maxsize=None)
def _fubini_study_field() -> MetricField:
    # cohomogeneity-one polar form: the geodesic spheres about a point are
    # Berger 3-spheres, the psi-circle collapsing onto the 2-sphere at
    # infinity (r = pi/2). Entries stay bounded, unlike the affine chart
    # whose inverse metric grows without bound and wrecks conditioning.
    r, t, p, q = sp.symbols("r t p q", positive=True)
    s2 = sp.sin(r) ** 2
    c2 = sp.cos(r) ** 2
    gmat = sp.zeros(4, 4)
    gmat[0, 0] = 1
    gmat[1, 1] = s2 / 4
    gmat[2, 2] = s2 * sp.sin(t) ** 2 / 4 + s2 * c2 * sp.cos(t) ** 2 / 4
    gmat[3, 3] = s2 * c2 / 4
    gmat[2, 3] = gmat[3, 2] = s2 * c2 * sp.cos(t) / 4
    chart = Chart(("r", "t", "p", "q"), (0.0,) * 4,
                  (np.pi / 2, np.pi, 2 * np.pi, 4 * np.pi))
    return MetricField.from_sympy((r, t, p, q), gmat, chart,
                                  name="fubini-study")


def fubini_study() -> ClosedModel:
    """The Fubini-Study metric in geodesic polar coordinates.

    Normalized so Ric = 6 g (scalar curvature 24), holomorphic sectional
    curvature 4. The chart covers the complement of a point and the
    cut-locus 2-sphere, both measure zero.
    """
    domain = ProductChartDomain(
        axes=((0.0, np.pi / 2, 1), (0.0, np.pi, 1), (0.0, 2 * np.pi, 1),
              (0.0, 4 * np.pi, 1)),
        label="fubini-study",
    )
    return ClosedModel(
        name="fubini_study",
        field=_fubini_study_field(),
        domain=domain,
        euler=3,
        signature=1,
        volume=np.pi**2 / 2,
        einstein=True,
        yamabe_positive=True,
        orientation=-1,
        notes="self-dual in the complex orientation (-1 in this chart order)",
    )


# ---------------------------------------------------------------------------
# conformally compact models

def hyperbolic(boundary_radius: float = 1.0) -> FGMetric:
    """Hyperbolic 4-space with a round conformal infinity of given radius.

    The normal-form warp is exact: g_s = (lam - s^2/(4 lam))^2 ghat_1,
    i.e. h(s) = (1 - s^2/(4 lam^2))^2 against the radius-lam boundary
    metric, closing at s = 2 lam. Changing boundary_radius changes only
    the defining function, not the interior metric.
    """
    lam = _positive(boundary_radius, "boundary_radius")
    lam2 = lam * lam
    boundary = round_sphere_boundary(lam)

    def jet(s):
        c = 1.0 - s**2 / (4 * lam2)
        return c**2, 2.0 * c * (-s / (2 * lam2)), (s / lam2) ** 2 / 2 - c / lam2

    fg = FGMetric(
        boundary=boundary,
        s_max=2 * lam,
        blocks=[BlockWarp((0, 1, 2), jet)],
        tip_multiplicity=3,
        einstein=True,
        yamabe_positive=True,
        name=f"hyperbolic(r={lam:g})",
        family="hyperbolic",
        parameters={"boundary_radius": lam},
    )
    return fg


def horizon_radius(m: float) -> float:
    """Largest root of r^3 + r - 2m = 0 (the horizon of the AdS family)."""
    m = _positive(m, "m")
    roots = np.roots([1.0, 0.0, 1.0, -2.0 * m])
    real = roots[np.abs(roots.imag) < 1e-12].real
    rp = float(np.max(real))
    # one Newton step to polish the polynomial root
    for _ in range(3):
        rp -= (rp**3 + rp - 2 * m) / (3 * rp**2 + 1)
    return rp


def ads_schwarzschild(m: float = 1.0) -> FGMetric:
    """The AdS-Schwarzschild fill of S1(beta) x S2 at mass parameter m.

    V(r) = r^2 + 1 - 2m/r, the circle period beta = 4 pi / V'(r+)
    closes the metric smoothly at the horizon r+ (a disc x S2 topology,
    Euler characteristic 2). The normal form is built numerically from
    the radial profile.
    """
    m = _positive(m, "m")
    rp = horizon_radius(m)
    vprime = 2 * rp + 2 * m / rp**2
    beta = 4 * np.pi / vprime
    boundary = circle_sphere_boundary(beta, 1.0)

    def V(r):
        return r**2 + 1.0 - 2.0 * m / r

    def dV(r):
        return 2.0 * r + 2.0 * m / r**2

    def d2V(r):
        return 2.0 - 4.0 * m / r**3

    profile = RadialProfile(
        name=f"ads_schwarzschild(m={m:g})",
        boundary=boundary,
        blocks=(
            ProfileBlock((0,), V, dV, d2V),
            ProfileBlock((1, 2), lambda r: r**2, lambda r: 2.0 * r,
                         lambda r: 2.0 * np.ones_like(r)),
        ),
        radial_factor=lambda r: V(r) ** -0.5,
        radial_factor_deriv=lambda r: -0.5 * dV(r) * V(r) ** -1.5,
        r_interior=rp,
        r_boundary=np.inf,
        interior_sqrt_vanishing=True,
        tip_multiplicity=1,
        einstein=True,
        yamabe_positive=True,
        family="ads_schwarzschild",
        parameters={"m": m, "horizon_radius": rp, "period": beta},
    )
    return normal_form_from_profile(profile)


def perturbed_hyperbolic(amplitude: float = 0.05) -> FGMetric:
    """Non-Einstein control family: the hyperbolic warp times a bump.

    f(s) = (1 - s^2/4)(1 + A s^2 (2-s)^2 / 4). The bump vanishes to
    second order at both ends, so the boundary metric, the gauge and
    the tip location are untouched, but the interior fails the Einstein
    equation for A != 0.
    """
    amp = float(amplitude)
    if not np.isfinite(amp) or abs(amp) > 1.0:
        raise ModelParameterError(f"amplitude must lie in [-1, 1], got {amp}")
    boundary = round_sphere_boundary(1.0)

    def jet(s):
        # f = base * bump and its derivatives; h = f^2
        base, dbase = 1.0 - s**2 / 4, -s / 2
        v = s * (2.0 - s)
        vp = 2.0 - 2.0 * s
        bump = 1.0 + amp * v**2 / 4
        dbump = amp * v * vp / 2
        d2bump = amp * (vp**2 + v * (-2.0)) / 2
        f = base * bump
        df = dbase * bump + base * dbump
        d2f = (-0.5) * bump + 2 * dbase * dbump + base * d2bump
        return f**2, 2 * f * df, 2 * (df**2 + f * d2f)

    return FGMetric(
        boundary=boundary,
        s_max=2.0,
        blocks=[BlockWarp((0, 1, 2), jet)],
        tip_multiplicity=3,
        einstein=(amp == 0.0),
        yamabe_positive=True,
        name=f"perturbed_hyperbolic(A={amp:g})",
        family="perturbed_hyperbolic",
        parameters={"amplitude": amp},
    )


def polynomial_family(boundary: BoundaryGeometry, coefficients: dict,
                      s_max: float = 1.0) -> FGMetric:
    """Synthetic g_s = ghat + sum_k C_k s^k with prescribed matrices.

    For exercising the expansion extraction against known answers.
    """
    coeffs = {int(k): np.asarray(v, dtype=float) for k, v in coefficients.items()}

    def gs_func(s, p):
        base = boundary.field.g(np.asarray(p, dtype=float))
        out = np.repeat(base[None], s.size, axis=0)
        for k, mat in coeffs.items():
            out = out + (s**k)[:, None, None] * mat[None]
        return out

    return FGMetric(
        boundary=boundary,
        s_max=s_max,
        gs_func=gs_func,
        einstein=False,
        name="polynomial_family",
        family="polynomial_family",
        parameters={"orders": sorted(coeffs)},
    )


# ---------------------------------------------------------------------------
# registry and exact references

_CLOSED = {
    "round_sphere": round_sphere4,
    "flat_torus": flat_torus4,
    "product_spheres": product_spheres,
    "fubini_study": fubini_study,
}

_CCE = {
    "hyperbolic": hyperbolic,
    "ads_schwarzschild": ads_schwarzschild,
    "perturbed_hyperbolic": perturbed_hyperbolic,
}


def model_names() -> dict:
    return {"closed": sorted(_CLOSED), "conformally_compact": sorted(_CCE)}


def build(name: str, **params):
    """Instantiate a model by registry name."""
    if name in _CLOSED:
        return _CLOSED[name](**params)
    if name in _CCE:
        return _CCE[name](**params)
    known = sorted(_CLOSED) + sorted(_CCE)
    raise ModelParameterError(f"unknown model '{name}'; known: {', '.join(known)}")


def exact_reference(name: str, quantity: Optional[str] = None, **params):
    """Closed-form reference values for a model.

    With quantity=None returns the whole dict; otherwise returns that
    entry or raises NotAvailable when no closed form is known (the AdS
    renormalized volume is deliberately absent: the toolkit must produce
    it numerically).
    """
    if name == "hyperbolic":
        lam = float(params.get("boundary_radius", 1.0))
        lam2 = lam * lam
        refs = {
            "renormalized_volume": 4 * np.pi**2 / 3,
            "boundary_volume": 2 * np.pi**2 * lam**3,
            "c0": 2 * np.pi**2 * lam**3 / 3,
            "c2": -1.5 * np.pi**2 * lam,
            "w2": Fraction(1, 4) if lam == 1.0 else 1.0 / (4 * lam2),
            "eigenfunction": lambda s: 1.0 / s + s / (4 * lam2),
            "warp": lambda s: (1.0 - s**2 / (4 * lam2)) ** 2,
            "s_max": 2 * lam,
            "compactified_scalar": 12.0,
            "euler": 1,
            "weyl_energy": 0.0,
        }
    elif name == "ads_schwarzschild":
        m = float(params.get("m", 1.0))
        rp = horizon_radius(m)
        beta = 4 * np.pi / (2 * rp + 2 * m / rp**2)
        refs = {
            "horizon_radius": rp,
            "period": beta,
            "w2": Fraction(1, 12),
            "weyl_energy": 64 * np.pi * beta * m**2 / rp**3,
            "euler": 2,
            "boundary_volume": 4 * np.pi * beta,
        }
    elif name == "perturbed_hyperbolic":
        # the bump leaves the ball topology unchanged for every amplitude
        refs = {"euler": 1}
    elif name == "flat_torus":
        refs = {
            "weyl_energy": 0.0,
            "sigma2_integral": 0.0,
            "euler": 0,
            "signature": 0,
        }
    elif name == "round_sphere":
        lam = float(params.get("radius", 1.0))
        refs = {
            "volume": 8 * np.pi**2 / 3 * lam**4,
            "weyl_energy": 0.0,
            "sigma2_integral": 16 * np.pi**2,
            "euler": 2,
            "signature": 0,
        }
    elif name == "product_spheres":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        vol = 16 * np.pi**2 * a**2 * b**2
        if a == b:
            w2 = 16.0 / (3 * a**4)
            refs = {
                "volume": vol,
                "weyl_energy": w2 * vol,
                "weyl_plus": w2 * vol / 2,
                "weyl_minus": w2 * vol / 2,
                "sigma2_integral": (2.0 / (3 * a**4)) * vol,
                "euler": 4,
                "signature": 0,
            }
        else:
            refs = {"volume": vol, "euler": 4, "signature": 0}
    elif name == "fubini_study":
        vol = np.pi**2 / 2
        refs = {
            "volume": vol,
            "weyl_energy": 96.0 * vol,
            "weyl_plus": 96.0 * vol,
            "weyl_minus": 0.0,
            "sigma2_integral": 24.0 * vol,
            "euler": 3,
            "signature": 1,
        }
    else:
        raise NotAvailable(f"no reference data for model '{name}'")
    if quantity is None:
        return refs
    if quantity not in refs:
        raise NotAvailable(
            f"no closed form for '{quantity}' of model '{name}'"
        )
    return refs[quantity]

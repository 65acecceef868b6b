"""Model library: closed 4-manifolds and conformally compact fills.

Closed models come with their integration domain and exact topological
data; conformally compact models come as FGMetric families of
normal-form warps. Each builder attaches the closed forms of its
validated parameters to the model it returns (``reference``), stated
apart from the model's own metric so that they stay an oracle for it;
``exact_reference`` reads them off a built model. Every closed and
boundary metric is a plain function of the chart coordinates it reads,
written in the jet operations of ``autodiff``: one evaluation gives g
and its first and second derivatives exactly, so curvature needs no
finite differencing, and the coordinates a metric does not take are its
cyclic axes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .autodiff import cos, diag, sin
from .errors import ModelParameterError, NotAvailable
from .integrals import ProductChartDomain
from .normal_form import (
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
    "model_names",
    "build",
    "exact_reference",
]


# ---------------------------------------------------------------------------
# boundary geometries (closed 3-manifolds)

def _number(value, name):
    try:
        if isinstance(value, bool):  # float() would read true as 1.0
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ModelParameterError(f"{name} must be a number, got {value!r}") from None


def _positive(value, name):
    value = _number(value, name)
    if not np.isfinite(value) or value <= 0:
        raise ModelParameterError(f"{name} must be positive, got {value}")
    return value


def _boundary(name, names, his, g, **data) -> BoundaryGeometry:
    """A boundary geometry whose metric g lives on the chart box (0, his)."""
    chart = Chart(names, (0.0,) * len(names), his)
    return BoundaryGeometry(name=name, field=MetricField.from_function(chart, g, name=name),
                            **data)


def round_sphere_boundary(radius: float = 1.0) -> BoundaryGeometry:
    radius = _positive(radius, "radius")
    lam2 = radius**2

    def g(t1, t2):
        a = lam2 * sin(t1) ** 2
        return diag(lam2, a, a * sin(t2) ** 2)

    return _boundary(
        f"round-S3(r={radius})", ("t1", "t2", "t3"), (np.pi, np.pi, 2 * np.pi), g,
        volume=2 * np.pi**2 * radius**3,
        scalar_curvature=6.0 / lam2,
        default_point=(1.1, 1.3, 0.7),
    )


def circle_sphere_boundary(length: float, radius: float = 1.0) -> BoundaryGeometry:
    length = _positive(length, "length")
    radius = _positive(radius, "radius")
    a2 = radius**2

    def g(th):
        return diag(1.0, a2, a2 * sin(th) ** 2)

    return _boundary(
        f"S1({length:.6g})xS2(r={radius})", ("ph", "th", "ps"),
        (length, np.pi, 2 * np.pi), g,
        volume=length * 4 * np.pi * a2,
        scalar_curvature=2.0 / a2,
        default_point=(0.37 * length, 1.2, 0.9),
    )


def _lengths(lengths, count):
    if len(lengths) != count:
        raise ModelParameterError(f"lengths must hold {count} numbers, got {len(lengths)}")
    return tuple(_positive(l, "length") for l in lengths)


def flat_torus_boundary(lengths=(2 * np.pi,) * 3) -> BoundaryGeometry:
    lengths = _lengths(lengths, 3)
    return _boundary(
        "flat-T3", ("x1", "x2", "x3"), lengths, lambda: diag(1.0, 1.0, 1.0),
        volume=float(np.prod(lengths)),
        scalar_curvature=0.0,
        default_point=tuple(0.3 * l for l in lengths),
    )


def berger_sphere_boundary(lam: float = 0.8) -> BoundaryGeometry:
    lam = _positive(lam, "lam")
    lam2 = lam**2

    # quarter-scaled bi-invariant frame, Hopf circle stretched by lam:
    # g = (1/4) [dth^2 + sin^2 th dph^2 + lam^2 (dps + cos th dph)^2]
    def g(th):
        c = cos(th)
        g12 = lam2 * c / 4
        return [[0.25, 0.0, 0.0],
                [0.0, sin(th) ** 2 / 4 + lam2 * c**2 / 4, g12],
                [0.0, g12, lam2 / 4]]

    return _boundary(
        f"berger-S3(lam={lam})", ("th", "ph", "ps"), (np.pi, 2 * np.pi, 4 * np.pi), g,
        volume=2 * np.pi**2 * lam,
        scalar_curvature=8 - 2 * lam2,
        default_point=(1.2, 0.8, 2.1),
    )


# ---------------------------------------------------------------------------
# closed 4-manifolds

class ClosedModel(NamedTuple):
    """A closed 4-manifold model: field, integration domain, exact data;
    ``reference`` holds those the record lacks (Weyl energies, int sigma_2)."""

    name: str
    field: MetricField
    domain: object
    euler: int
    signature: int
    volume: float
    einstein: bool
    reference: dict
    orientation: int = 1


def _closed(label, names, his, g, rules, **data) -> ClosedModel:
    """A closed model whose metric g lives on the chart box (0, his),
    integrated over that whole box with one rule per axis: "periodic" on
    an azimuthal axis whose chart interval is one full period, "polar"
    on an angle on (0, pi) whose volume density is an odd power of sin,
    "kronrod" on any other (ProductChartDomain)."""
    chart = Chart(names, (0.0,) * len(names), his)
    return ClosedModel(field=MetricField.from_function(chart, g, name=label),
                       domain=ProductChartDomain(
                           tuple((0.0, hi, rule) for hi, rule in zip(his, rules)), label),
                       **data)


def round_sphere4(radius: float = 1.0) -> ClosedModel:
    radius = _positive(radius, "radius")
    lam2 = radius**2

    def g(t1, t2, t3):
        a = lam2 * sin(t1) ** 2
        b = a * sin(t2) ** 2
        return diag(lam2, a, b, b * sin(t3) ** 2)

    return _closed(
        "round-S4", ("t1", "t2", "t3", "t4"), (np.pi, np.pi, np.pi, 2 * np.pi), g,
        # densities sin^3 t1, sin^2 t2 and sin t3: t2 is not polar
        rules=("polar", "kronrod", "polar", "periodic"),
        name=f"round_sphere(r={radius:g})",
        euler=2,
        signature=0,
        volume=8 * np.pi**2 / 3 * radius**4,
        einstein=True,
        reference={"weyl_energy": 0.0, "sigma2_integral": 16 * np.pi**2},
    )


def flat_torus4(lengths=(2 * np.pi,) * 4) -> ClosedModel:
    lengths = _lengths(lengths, 4)
    return _closed(
        "flat-T4", ("x1", "x2", "x3", "x4"), lengths, lambda: diag(1.0, 1.0, 1.0, 1.0),
        rules=("periodic",) * 4,
        name="flat_torus",
        euler=0,
        signature=0,
        volume=float(np.prod(lengths)),
        einstein=True,
        reference={"weyl_energy": 0.0, "sigma2_integral": 0.0},
    )


def product_spheres(a: float = 1.0, b: float = 1.0) -> ClosedModel:
    a = _positive(a, "a")
    b = _positive(b, "b")
    a2, b2 = a**2, b**2
    vol = 16 * np.pi**2 * a2 * b2
    w2 = 16.0 / (3 * a**4)
    # the Weyl energies and int sigma_2 of the Einstein product a = b
    reference = {"weyl_energy": w2 * vol, "weyl_plus": w2 * vol / 2, "weyl_minus": w2 * vol / 2,
                 "sigma2_integral": (2.0 / (3 * a**4)) * vol} if a == b else {}

    def g(t, u):
        return diag(a2, a2 * sin(t) ** 2, b2, b2 * sin(u) ** 2)

    return _closed(
        "S2xS2", ("t", "p", "u", "v"), (np.pi, 2 * np.pi, np.pi, 2 * np.pi), g,
        rules=("polar", "periodic", "polar", "periodic"),
        name=f"product_spheres(a={a:g},b={b:g})",
        euler=4,
        signature=0,
        volume=vol,
        einstein=(a == b),
        reference=reference,
    )


def fubini_study() -> ClosedModel:
    """The Fubini-Study metric in geodesic polar coordinates.

    Normalized so Ric = 6 g (scalar curvature 24), holomorphic sectional
    curvature 4. The chart covers the complement of a point and the
    cut-locus 2-sphere, both measure zero.
    """
    vol = np.pi**2 / 2
    # cohomogeneity-one polar form: the geodesic spheres about a point are
    # Berger 3-spheres, the psi-circle collapsing onto the 2-sphere at
    # infinity (r = pi/2). Entries stay bounded, unlike the affine chart
    # whose inverse metric grows without bound and wrecks conditioning.
    def g(r, t):
        s2 = sin(r) ** 2
        sc = s2 * cos(r) ** 2
        ct = cos(t)
        g23 = sc * ct / 4
        return [[1.0, 0.0, 0.0, 0.0],
                [0.0, s2 / 4, 0.0, 0.0],
                [0.0, 0.0, s2 * sin(t) ** 2 / 4 + sc * ct**2 / 4, g23],
                [0.0, 0.0, g23, sc / 4]]

    return _closed(
        "fubini-study", ("r", "t", "p", "q"), (np.pi / 2, np.pi, 2 * np.pi, 4 * np.pi), g,
        rules=("kronrod", "polar", "periodic", "periodic"),
        name="fubini_study",
        euler=3,
        signature=1,
        volume=vol,
        einstein=True,
        reference={"weyl_energy": 96.0 * vol, "weyl_plus": 96.0 * vol,
                   "weyl_minus": 0.0, "sigma2_integral": 24.0 * vol},
        # self-dual in the complex orientation, -1 in this chart order
        orientation=-1,
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
    return FGMetric(
        boundary=round_sphere_boundary(lam),
        s_max=2 * lam,
        blocks=[(0, 1, 2)],
        warp=lambda s: [(1.0 - s**2 / (4 * lam2)) ** 2],
        tip_multiplicity=3,
        einstein=True,
        name=f"hyperbolic(r={lam:g})",
        family="hyperbolic",
        parameters={"boundary_radius": lam},
        reference={
            "renormalized_volume": 4 * np.pi**2 / 3, "euler": 1, "weyl_energy": 0.0,
            "boundary_volume": 2 * np.pi**2 * lam**3, "s_max": 2 * lam,
            "c0": 2 * np.pi**2 * lam**3 / 3, "c2": -1.5 * np.pi**2 * lam,
            "w2": 1.0 / (4 * lam2), "compactified_scalar": 12.0 / lam2,
            "eigenfunction": lambda s: 1.0 / s + s / (4 * lam2),
            "warp": lambda s: (1.0 - s**2 / (4 * lam2)) ** 2,
        },
    )


def horizon_radius(m: float) -> float:
    """Largest root of r^3 + r - 2m = 0 (the horizon of the AdS family)."""
    m = _positive(m, "m")
    roots = np.roots([1.0, 0.0, 1.0, -2.0 * m])
    real = roots[np.abs(roots.imag) < 1e-12].real
    rp = float(np.max(real))
    # three Newton steps to polish the polynomial root
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

    # V = r^2 + 1 - 2m/r = rho F with rho = r - r+ handed in by the chart,
    # so V keeps its digits at the horizon
    def F(rho):
        r = rho + rp
        return (r**2 + r * rp + (rp**2 + 1.0)) / r

    profile = RadialProfile(
        name=f"ads_schwarzschild(m={m:g})",
        boundary=boundary,
        blocks=(ProfileBlock((0,), lambda rho: rho * F(rho)),
                ProfileBlock((1, 2), lambda rho: (rho + rp) ** 2)),
        radial_factor=lambda rho: F(rho) ** -0.5,
        r_interior=rp,
        tip_multiplicity=1,
        einstein=True,
        family="ads_schwarzschild",
        parameters={"m": m},
    )
    fg = normal_form_from_profile(profile)
    # V from its definition, (4 pi beta / 3)(r+ - m), apart from
    # Anderson's identity, which the toolkit checks against it
    fg.reference = {"horizon_radius": rp, "period": beta, "w2": 1.0 / 12, "euler": 2,
                    "weyl_energy": 64 * np.pi * beta * m**2 / rp**3,
                    "boundary_volume": 4 * np.pi * beta,
                    "renormalized_volume": 4 * np.pi * beta / 3 * (rp - m)}
    return fg


def perturbed_hyperbolic(amplitude: float = 0.05) -> FGMetric:
    """Non-Einstein control family: the hyperbolic warp times a bump.

    f(s) = (1 - s^2/4)(1 + A s^2 (2-s)^2 / 4). The bump vanishes to
    second order at both ends, so the boundary metric, the gauge and
    the tip location are untouched, but the interior fails the Einstein
    equation for A != 0.
    """
    amp = _number(amplitude, "amplitude")
    if not np.isfinite(amp) or abs(amp) > 1.0:
        raise ModelParameterError(f"amplitude must lie in [-1, 1], got {amp}")

    def f(s):
        return (1.0 - s**2 / 4) * (1.0 + amp * (s * (2.0 - s)) ** 2 / 4)

    return FGMetric(
        boundary=round_sphere_boundary(1.0),
        s_max=2.0,
        blocks=[(0, 1, 2)],
        warp=lambda s: [f(s) ** 2],
        tip_multiplicity=3,
        einstein=(amp == 0.0),
        name=f"perturbed_hyperbolic(A={amp:g})",
        family="perturbed_hyperbolic",
        parameters={"amplitude": amp},
        # the bump leaves the ball topology unchanged for every amplitude
        reference={"w2": 0.25 - amp, "euler": 1},
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
    """Closed-form reference values for a model: the ``reference`` of the
    model ``build`` returns, with a closed model's Euler characteristic,
    signature and volume.

    With quantity=None returns the whole dict; otherwise returns that
    entry or raises NotAvailable when no closed form is known. The
    renormalized volume of a fill is its definitional value (AdS:
    (4 pi beta / 3)(r+ - m)), never one read back through Anderson's
    identity 8 pi^2 chi = (1/4) int |W|^2 + 6V, so the identity stays a
    check. Since the model is built, parameters are refused exactly as
    ``build`` refuses them.
    """
    if name not in _CLOSED and name not in _CCE:
        raise NotAvailable(f"no reference data for model '{name}'")
    model = build(name, **params)
    refs = model.reference
    if isinstance(model, ClosedModel):
        refs = {"volume": model.volume, **refs,
                "euler": model.euler, "signature": model.signature}
    if quantity is None:
        return refs
    if quantity not in refs:
        raise NotAvailable(f"no closed form for '{quantity}' of model '{name}'")
    return refs[quantity]

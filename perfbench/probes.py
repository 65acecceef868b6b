"""Layer probes: single layers timed on fixed inputs, outside any pipeline.

The inputs are the same on every workload: the catalogue AdS-Schwarzschild
model (m = 1) for the radial map, the four closed catalogue fields for the
curvature kernel. Each probe repeats its call and keeps the median, so a
probe reads the layer's cost per call, not the machine's hiccups.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CLOSED = ("round_sphere", "flat_torus", "product_spheres", "fubini_study")
BATCH = 2048
SMALL_BATCH = 8


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def radial_map() -> dict:
    from ccegeom import models
    from ccegeom.normal_form import RadialMap

    profile = models.build("ads_schwarzschild").radial_map.profile
    build_s = _median_time(lambda: RadialMap(profile), 3)
    # queries on a freshly built map, so none is answered from its cache
    rmap = RadialMap(profile)
    r = np.geomspace(rmap.edges[1], rmap.edges[-2], 400)
    t = time.perf_counter()
    for x in r:
        rmap.lns_of_r(float(x))
    lns_us = (time.perf_counter() - t) / r.size * 1e6
    s = np.geomspace(2 * rmap.s_floor, 0.9 * rmap.s_interior, 200)
    t = time.perf_counter()
    for x in s:
        rmap.r_of_s(float(x))
    r_of_s_us = (time.perf_counter() - t) / s.size * 1e6
    return {"normal_form.radial_map_build_s": build_s,
            "normal_form.lns_of_r_us": lns_us,
            "normal_form.r_of_s_us": r_of_s_us}


def quadrature(calls: int = 100) -> dict:
    """One-panel rules at the radial map's order (24) and the volume's (16)."""
    from ccegeom.quadrature import gauss_legendre_rule

    def batch():
        for _ in range(calls):
            gauss_legendre_rule(0.25, 0.75, 1, 24)
            gauss_legendre_rule(0.25, 0.75, 1, 16)

    return {"quadrature.rule_us": _median_time(batch, 5) / (2 * calls) * 1e6}


def tensor() -> dict:
    from ccegeom import models
    from ccegeom.tensor import curvature

    per_point, per_call, eval_point = [], [], []
    for name in CLOSED:
        mdl = models.build(name)
        field, orientation = mdl.field, mdl.orientation
        pts = field.chart.sample(BATCH, seed=1)
        small = pts[:SMALL_BATCH]
        per_point.append(_median_time(
            lambda: curvature(field, pts, orientation), 3) / BATCH)
        per_call.append(_median_time(
            lambda: curvature(field, small, orientation), 25))
        eval_point.append(_median_time(
            lambda: (field.g(pts), field.dg(pts), field.d2g(pts)), 5) / BATCH)
    return {"tensor.curvature_us_per_point": statistics.median(per_point) * 1e6,
            "tensor.curvature_call_us": statistics.median(per_call) * 1e6,
            "tensor.field_eval_us_per_point": statistics.median(eval_point) * 1e6}


def volume_and_topology() -> dict:
    """The volume fit and the topology report on the hyperbolic fill.

    Stands in for those stages on a command that runs neither.
    """
    from ccegeom import models
    from ccegeom.topology import build_topology_report
    from ccegeom.volume import fit_renormalized_volume

    fg = models.build("hyperbolic")
    t = time.perf_counter()
    fit = fit_renormalized_volume(fg)
    fit_s = time.perf_counter() - t
    t = time.perf_counter()
    build_topology_report(1, fit.V, fg.yamabe_positive)
    return {"volume.fit_s": fit_s, "topology.report_s": time.perf_counter() - t}


def run_all() -> dict:
    out = {}
    for probe in (radial_map, quadrature, tensor):
        out.update(probe())
    return out

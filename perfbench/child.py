"""One ccegeom command line, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py RESULT.json TRACE ARG...

Runs ``ccegeom.cli.main(ARG...)`` in this process, as the ``ccegeom``
console script does, and writes timings to RESULT.json. The exit status
is the command's.

TRACE 0 times only the package import and each ``models.build`` call;
their sum is the invocation's set-up time. TRACE 1 also records a span
around every call into a layer module (see ``tracer.py``), and after the
command returns measures the layer probes on their own (``probes.py``).
"""

from __future__ import annotations

import copy
import json
import sys
import time

from tracer import Tracer


def _untraced(argv: list) -> tuple:
    t0 = time.perf_counter()
    from ccegeom import cli, models
    import_s = time.perf_counter() - t0
    build = models.build
    builds = []

    def timed_build(*args, **kwargs):
        t = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            builds.append(time.perf_counter() - t)

    models.build = timed_build
    try:
        rc = cli.main(argv)
    finally:
        models.build = build
    total_s = time.perf_counter() - t0
    return rc, {"import_s": import_s, "build_s": sum(builds),
                "setup_s": import_s + sum(builds), "total_s": total_s}, None


def _traced(argv: list) -> tuple:
    tracer = Tracer()
    mesh_nodes = []
    points = [0]

    def solve_hook(solve):
        def solve_and_count(*args, **kwargs):
            sol = solve(*args, **kwargs)
            mesh_nodes.append(sol.mesh_size)
            return sol
        return solve_and_count

    def integrate_hook(integrate):
        # count curvature points at the field the integrator is handed,
        # so a quadrature that needs fewer points shows in the count
        def integrate_counted(m, *args, **kwargs):
            counted = _counting_field(m, points)
            return integrate(counted, *args, **kwargs)
        return integrate_counted

    def domain_kind(*args, **kwargs):
        domain = args[1] if len(args) > 1 else kwargs["domain"]
        return "radial" if type(domain).__name__ == "RadialDomain" else "box"

    t0 = time.perf_counter()
    idx = tracer.begin("import")
    from ccegeom import cli
    tracer.finish(idx)
    idx = tracer.begin("bench.install")
    tracer.install(
        labels={"integrals.integrate_curvature": domain_kind},
        hooks={"eigenfunction.solve_eigenfunction": solve_hook,
               "integrals.integrate_curvature": integrate_hook})
    tracer.finish(idx)
    idx = tracer.begin("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tracer.finish(idx)
        wall_s = time.perf_counter() - t0
        tracer.uninstall()

    import probes  # after the traced window: it loads numpy ahead of the package
    summary = tracer.summary()
    spans = summary["spans"]

    def inclusive(name):
        return spans.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    stages = {
        "models.build_s": inclusive("models.build"),
        "volume.fit_s": inclusive("volume.fit_renormalized_volume"),
        "eigenfunction.solve_s": inclusive("eigenfunction.solve_eigenfunction"),
        "eigenfunction.checks_s": inclusive("eigenfunction.compactification_checks"),
        "integrals.integrate_s": (inclusive("integrals.integrate_curvature[box]")
                                  + inclusive("integrals.integrate_curvature[radial]")),
        "topology.report_s": inclusive("topology.build_topology_report"),
    }
    # a stage the command never reaches is timed on the probe input
    # instead, so no stage reads a constant 0
    skipped = [k for k in ("volume.fit_s", "topology.report_s") if not stages[k]]
    if skipped:
        stages.update({k: v for k, v in probes.volume_and_topology().items()
                       if k in skipped})
    setup_s = inclusive("import") + inclusive("models.build")
    return rc, {
        "total_s": wall_s,
        "setup_s": setup_s,
        "layer_self_s": summary["layer_self_s"],
        "untraced_remainder_s": wall_s - summary["roots_s"],
        "spans": spans,
        "counts": {
            "eigenfunction.mesh_nodes": sum(mesh_nodes),
            "integrals.points": points[0],
            "volume.rungs": calls("volume.sublevel_volume"),
            "quadrature.rule_calls": calls("quadrature.gauss_legendre_rule"),
            "normal_form.r_of_s_calls": calls("normal_form.RadialMap.r_of_s"),
            "normal_form.lns_of_r_calls": calls("normal_form.RadialMap.lns_of_r"),
            "tensor.curvature_calls": calls("tensor.curvature"),
        },
        "stages": stages,
        "stages_from_probe": skipped,
        "probes": probes.run_all(),
    }, tracer.columns()


def _counting_field(field, counter: list):
    """A copy of a MetricField whose d2g adds the rows it is asked for.

    Only the curvature kernel asks a field for second derivatives, once
    per batch, so the count is the number of curvature points.
    """
    counted = copy.copy(field)
    d2g = counted.d2g

    def d2g_counted(points, *args, **kwargs):
        shape = getattr(points, "shape", ())
        counter[0] += shape[0] if len(shape) == 2 else 1
        return d2g(points, *args, **kwargs)

    counted.d2g = d2g_counted
    return counted


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    rc, result, spans = (_traced if trace else _untraced)(argv)
    result["exit"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if spans is not None:
        with open(result_path.replace(".json", ".spans.json"), "w") as fh:
            json.dump(spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

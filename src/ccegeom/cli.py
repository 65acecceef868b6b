"""Batch front end: run the full pipeline from a config and emit artifacts.

Subcommands
-----------
analyze    model -> curvature -> volume fit -> compactification ->
           integrals -> topology report; writes report.txt, report.json
           and CSV tables into the output directory.
check      invariant suites only (curvature symmetries, Bochner identity,
           conformal invariance, the index formulas, negative
           controls); intended for CI. No artifacts, exit status is the
           result.
curvature  pointwise curvature packet dump at deterministic sample points.

Configuration comes from an optional JSON document with flat
command-line flags overriding its fields, so a run of record is a single
file. The document has two sections: "model" (its "name" and the
builder's parameters) and "outputs" (its "dir"); any other section or
key is refused. analyze writes into the output directory, "." unless one
is given; curvature writes its file only when one is given (--out or
outputs.dir) and otherwise only prints. All outputs are
deterministic: fixed-order reductions, fixed sample points, and check's
conformal factors written out as literals.

Exit codes: 0 all gates pass, 1 a gate or module computation failed,
2 the configuration or command line is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import models, topology, volume
from .autodiff import cos, sin
from .errors import CcegeomError, NotAvailable
from .eigenfunction import (
    asymptotic_data,
    compactification_checks,
    compactified_metric_field,
    compactified_radial_domain,
    solve_eigenfunction,
)
from .integrals import (
    fg_radial_domain,
    gauss_bonnet_volume_residual,
    integrate_curvature,
    radial_section,
    sigma2_volume_bridge,
    suite_document,
)
from .normal_form import FGMetric, fg_document
from .tensor import (ScalarField, conformal_rescale, curvature, einstein_residual,
                     riemann_symmetry_residuals)
from .topology import Check, build_topology_report, gate, render_topology_report

__all__ = ["RunConfig", "run_analyze", "run_check", "run_curvature",
           "build_parser", "main"]

class ConfigError(Exception):
    """Unusable configuration; maps to exit code 2."""


class RunConfig(NamedTuple):
    """Resolved run configuration: document defaults plus flag overrides."""

    model: str = "hyperbolic"
    #: the default is one dict shared by every RunConfig(); nothing mutates it
    parameters: dict = {}
    #: None: analyze writes into ".", curvature only prints
    output_dir: Optional[str] = None


def resolve_config(args) -> RunConfig:
    """Merge defaults, the JSON document and the command-line flags
    given; check runs the whole catalogue unless a model is named."""
    name = "all" if args.command == "check" else RunConfig().model
    parameters = {}
    output_dir = None
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        model = doc.get("model", {})
        outputs = doc.get("outputs", {})
        if not (isinstance(model, dict) and isinstance(outputs, dict)):
            raise ConfigError("config sections must be JSON objects")
        unknown = sorted(set(doc) - {"model", "outputs"}) + sorted(
            f"outputs.{key}" for key in set(outputs) - {"dir"})
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known: "
                              "model, outputs.dir")
        if model:
            name = str(model.get("name", name))
            parameters = {k: v for k, v in model.items() if k != "name"}
        if "dir" in outputs:
            output_dir = str(outputs["dir"])
    if args.model:
        if args.model != name:
            parameters = {}
        name = args.model
    if args.m is not None:
        parameters["m"] = float(args.m)
    if args.out:
        output_dir = args.out
    return RunConfig(name, parameters, output_dir)


def _build_model(cfg: RunConfig, name: str = None):
    try:
        return models.build(name or cfg.model, **cfg.parameters)
    except (CcegeomError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# report plumbing

def _render_section(lines, key, value, depth=1):
    pad = "  " * depth
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_section(lines, k, v, depth + 1)
    elif isinstance(value, (list, tuple)):
        lines.append(f"{pad}{key} = {', '.join(str(v) for v in value)}")
    else:
        lines.append(f"{pad}{key} = {value}")


def _gate_line(g: Check) -> str:
    return (f"[{'pass' if g.verdict == 'pass' else 'FAIL'}] {g.name}: "
            f"{g.value:.10g} {g.comparison} {g.threshold:.10g} "
            f"(margin {g.margin:+.3e})")


def _render_report(doc: dict, gates: list) -> str:
    lines = ["ccegeom analyze report", "  schema: analyze-report v1"]
    for key, value in doc.items():
        if key != "topology":
            _render_section(lines, key, value)
    lines.append("  gates:")
    lines.extend("    " + _gate_line(g) for g in gates)
    if "topology" in doc:
        lines.extend("  " + ln for ln in render_topology_report(doc["topology"]).splitlines())
    return "\n".join(lines) + "\n"


def _write_artifacts(cfg: RunConfig, doc: dict, gates: list, tables: dict):
    out_dir = cfg.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    with open(path("report.txt"), "w") as fh:
        fh.write(_render_report(doc, gates))
    machine = dict(doc)
    machine["gates"] = [{**g._asdict(), "ok": g.verdict == "pass"}
                        for g in gates]
    with open(path("report.json"), "w") as fh:
        json.dump(machine, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, writer in tables.items():
        writer(path(name))
    return ["report.txt", "report.json", *tables]


def _write_suite_csv(suites: dict):
    def writer(path):
        with open(path, "w") as fh:
            fh.write("# integral-suite v1\n")
            fh.write("domain,quantity,value,error_estimate\n")
            for label in sorted(suites):
                doc = suite_document(suites[label])
                errors = doc.pop("error_estimates")
                doc.pop("domain")
                for key in sorted(doc):
                    if key == "orientation":
                        continue
                    err = errors.get(key, "")
                    fh.write(f"{label},{key},{doc[key]:.17g},"
                             + (f"{err:.3e}" if err != "" else "") + "\n")
    return writer


def _write_eigen_grid(sol):
    s = np.geomspace(sol.s_lo, sol.s_hi, 96)

    def writer(path):
        with open(path, "w") as fh:
            fh.write("# eigen-grid v1\n")
            fh.write("s,u,du,compactified_scalar\n")
            for row in zip(s, *sol.jet(s, 1), sol.compactified_scalar(s)):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return writer


class _StageFailure(Exception):
    def __init__(self, stage: str, exc: Exception):
        super().__init__(f"stage '{stage}': {type(exc).__name__}: {exc}")
        self.stage = stage
        self.exc = exc


def _stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CcegeomError as exc:
        raise _StageFailure(label, exc) from exc


def _euler(fg: FGMetric) -> int:
    if "euler" not in fg.reference:
        raise NotAvailable(f"no closed form for 'euler' of model '{fg.name}'")
    return fg.reference["euler"]


# ---------------------------------------------------------------------------
# analyze

def _closed_gates(model):
    """The curvature integrals of a closed model and the gates on them and
    on its Riemann symmetries. The orientation-refined index formulas
    4 pi^2 (2 chi +- 3 tau) = 1/2 int |W+-|^2 + int sigma2 miss by
    exactly 4 pi^2 (2 dchi +- 3 dtau), dchi and dtau the Euler and
    signature deviations, so the two gates at 5e-6 hold them within
    4 pi^2 * 5 * 5e-6 < 1e-3."""
    pts = _closed_sample_points(model.field)
    riem = curvature(model.field, pts, model.orientation).riemann
    suite = _stage("curvature integrals", integrate_curvature,
                   model.field, model.domain, model.orientation)
    return suite, [
        gate("bianchi-symmetries", max(riemann_symmetry_residuals(riem).values()), 1e-9),
        gate("euler-characteristic", abs(suite.euler_gb - model.euler), 5e-6),
        gate("signature", abs(suite.signature - model.signature), 5e-6),
        gate("volume", abs(suite.volume - model.volume),
             1e-6 * max(1.0, model.volume)),
    ]


def _fill_gates(fg: FGMetric):
    """The boundary limit and the collar's Einstein residual, which a
    non-Einstein fill must show large rather than be certified: the
    identities section they open and the gates on them."""
    limit = float(_stage("boundary limit", fg.boundary_limit_residual))
    pts = radial_section(fg.boundary.default_point)(
        np.geomspace(0.05, 0.9 * fg.y_max, 12))
    res = float(np.max(einstein_residual(fg.four_metric(), pts)))
    einstein = (gate("einstein-residual", res, 1e-6) if fg.einstein
                else gate("non-einstein-detected", res, 1e-2, ">"))
    return ({"einstein_residual_max": res, "boundary_limit_residual": limit},
            [gate("boundary-limit", limit, 1e-6), einstein])


def _analyze_closed(model):
    suite, gates = _closed_gates(model)
    doc = {
        "model": {
            "name": model.name, "kind": "closed",
            "euler": model.euler, "signature": model.signature,
            "einstein": model.einstein,
        },
        "integrals": suite_document(suite),
        "identities": {
            "euler_gb_deviation": suite.euler_gb - model.euler,
            "signature_deviation": suite.signature - model.signature,
        },
    }
    return doc, gates, {"integrals.csv": _write_suite_csv({suite.domain_label: suite})}


def _analyze_cce(fg: FGMetric):
    identities, gates = _fill_gates(fg)
    # the volume expansion in Einstein powers (no eps^-2, no log) only
    # exists for Einstein fills; fitting it to anything else is noise
    fit = None
    volume_doc = {"note": "skipped: the expansion in Einstein powers "
                          "does not apply to a non-Einstein family"}
    if fg.einstein:
        fit = _stage("volume fit", volume.fit_renormalized_volume, fg)
        volume_doc = volume.fit_document(fit)
    sol = _stage("eigenfunction", solve_eigenfunction, fg)
    eigen, checks = _stage("compactification checks", compactification_checks, sol)
    gates += checks

    # Weyl energy of the collar; the integrand density |W|^2 dv is a
    # pointwise conformal invariant, so this is also the Weyl energy of
    # the compactified metric. The small-s cut costs O(s^3).
    collar = _stage("collar integrals", integrate_curvature,
                    fg.four_metric(), fg_radial_domain(fg))
    compact = _stage("compactified integrals", integrate_curvature,
                     compactified_metric_field(sol), compactified_radial_domain(sol))

    doc = {
        "model": {"kind": "conformally-compact", **fg_document(fg)},
        "volume_fit": volume_doc,
        "eigenfunction": eigen,
        "integrals": {
            "collar": suite_document(collar),
            "compactified": suite_document(compact),
        },
        "identities": identities,
    }

    if fg.einstein:
        chi = _stage("reference data", _euler, fg)
        identity = gauss_bonnet_volume_residual(chi, collar.weyl_energy, fit.V)
        # normalized by 8 pi^2 chi, floored at one for a chi = 0 fill
        rel = abs(identity) / (8 * np.pi**2 * max(1, abs(chi)))
        identities.update({
            "gauss_bonnet_volume_residual": identity,
            "gauss_bonnet_volume_relative": rel,
            "sigma2_volume_bridge": sigma2_volume_bridge(compact.sigma2_integral, fit.V),
        })
        gates.append(gate("gauss-bonnet-volume", rel, topology.IDENTITY_TOL))
        doc["topology"] = _stage("topology report", build_topology_report,
                                 chi, fit.V, fg.yamabe_positive,
                                 half_suite=compact,
                                 identity_residual=rel)
    else:
        identities["note"] = (
            "model is not Einstein; volume identity and decision criteria "
            "are not applicable")

    tables = {
        "integrals.csv": _write_suite_csv({
            collar.domain_label: collar, compact.domain_label: compact}),
    }
    if fit is not None:
        tables["volumes.csv"] = lambda path: volume.write_volume_table(fit, path)
    tables["eigen_grid.csv"] = _write_eigen_grid(sol)
    return doc, gates, tables


def run_analyze(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    analyze = _analyze_cce if isinstance(model, FGMetric) else _analyze_closed
    try:
        doc, gates, tables = analyze(model)
    except _StageFailure as exc:
        print(f"analyze failed on model '{cfg.model}' at {exc}", file=sys.stderr)
        return 1
    written = _write_artifacts(cfg, doc, gates, tables)
    for g in gates:
        print(_gate_line(g))
    print("artifacts: " + ", ".join(written))
    if "topology" in doc:
        print(render_topology_report(doc["topology"]))
    return 0 if all(g.verdict == "pass" for g in gates) else 1


# ---------------------------------------------------------------------------
# check: invariant suites for CI

def _conformal_factor(a, b, c, k1, k2):
    # a factor in every coordinate of the S2 x S2 chart (t, p, u, v),
    # smooth on both spheres: in the embedding coordinates x, y, z of a
    # unit sphere, sin(k t) cos(p) = x U_{k-1}(z), cos(u) = z and
    # sin(u)^k sin(k v) = Im (x + i y)^k
    def w(t, p, u, v):
        return a * sin(k1 * t) * cos(p) + b * cos(u) + c * sin(u) ** k2 * sin(k2 * v)

    return w


#: the (a, b, c, k1, k2) of check's two factors: draws of uniform(-0.25,
#: 0.25) rounded to 6 places and of k in {1, 2}
_FACTORS = ((-0.181202, 0.150442, 0.047918, 2, 2),
            (0.019773, -0.016208, -0.052437, 1, 1))


def _conformal_factors(chart):
    return [ScalarField.from_function(chart, _conformal_factor(*args))
            for args in _FACTORS]


def _closed_sample_points(field_obj) -> np.ndarray:
    lo = np.asarray(field_obj.chart.lo, dtype=float)
    hi = np.asarray(field_obj.chart.hi, dtype=float)
    fracs = np.array([
        [0.31, 0.47, 0.53, 0.62],
        [0.55, 0.71, 0.36, 0.28],
        [0.44, 0.58, 0.69, 0.81],
        [0.66, 0.33, 0.49, 0.57],
    ])
    return lo + fracs * (hi - lo)


def run_check(cfg: RunConfig) -> int:
    names = models.model_names()
    scope = names["closed"] + names["conformally_compact"]
    if cfg.model != "all":
        if cfg.model not in scope:
            raise ConfigError(
                f"unknown model '{cfg.model}'; known: all, {', '.join(scope)}")
        scope = [cfg.model]
    elif cfg.parameters:
        raise ConfigError(
            f"model parameters {sorted(cfg.parameters)} need a named model")

    gates = []
    try:
        for g in _check_gates(cfg, scope):
            print(_gate_line(g))
            gates.append(g)
    except _StageFailure as exc:
        print(f"check failed at {exc}", file=sys.stderr)
        return 1
    bad = [g.name for g in gates if g.verdict != "pass"]
    print(f"{len(gates) - len(bad)}/{len(gates)} checks passed"
          + (f"; failing: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


def _check_gates(cfg: RunConfig, scope: list):
    """check's gates, model by model, each named after its model."""
    spheres = None
    for name in scope:
        model = _build_model(cfg, name)
        if isinstance(model, FGMetric):
            gates = _check_cce(model)
        else:
            suite, gates = _closed_gates(model)
            if name == "product_spheres":
                spheres = model, suite
        for g in gates:
            yield g._replace(name=f"{g.name} {name}")
    if spheres is not None:
        yield from _check_conformal_invariance(*spheres)


def _check_cce(fg):
    """A fill's gates and, picked by the keys of its reference, the gates
    on its closed forms."""
    _, gates = _fill_gates(fg)
    ref = fg.reference
    if not fg.einstein and "w2" in ref:
        gates.append(gate("matched-asymptotics",
                          abs(asymptotic_data(fg) - ref["w2"]), 1e-6))
    if "eigenfunction" in ref:
        sol = solve_eigenfunction(fg)
        grid = np.geomspace(sol.s_lo, sol.s_hi, 400)
        section, checks = compactification_checks(sol)
        gates += [
            gate("eigenfunction-exactness",
                 np.max(np.abs(sol.u(grid) - ref["eigenfunction"](grid))), 1e-8),
            *checks,
        ]
        if "compactified_scalar" in ref:
            scalar = ref["compactified_scalar"]
            gates.append(gate("compactified-scalar",
                              max(abs(section["scalar_boundary"] - scalar),
                                  abs(section["scalar_min"] - scalar)), 1e-5))
    return gates


def _check_conformal_invariance(model, base):
    """Rescalings of a closed model against its integrals ``base``."""
    suites = [integrate_curvature(conformal_rescale(model.field, w), model.domain,
                                  model.orientation)
              for w in _conformal_factors(model.field.chart)]
    worst = max(abs(s.weyl_energy - base.weyl_energy) / base.weyl_energy for s in suites)
    # each rescaled metric is a metric on S2 x S2, so Chern-Gauss-Bonnet
    # and Hirzebruch hold for it with the model's chi and tau, gated as
    # tightly as the closed models' own euler-characteristic and signature
    chi = max(abs(s.euler_gb - model.euler) for s in suites)
    tau = max(abs(s.signature - model.signature) for s in suites)
    return [gate("conformal-invariance product_spheres", worst, 1e-6),
            gate("conformal-gauss-bonnet product_spheres", max(chi, tau), 5e-6)]


# ---------------------------------------------------------------------------
# curvature packet dump

def run_curvature(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    if isinstance(model, FGMetric):
        field_obj = model.four_metric()
        pts = radial_section(model.boundary.default_point)(
            np.geomspace(0.01, 0.95 * model.y_max, 6))
        orientation = 1
    else:
        field_obj = model.field
        pts = _closed_sample_points(field_obj)
        orientation = model.orientation
    pack = curvature(field_obj, pts, orientation)
    header = (list(field_obj.chart.names)
              + ["scalar", "sigma2", "traceless_ricci_sq",
                 "weyl_sq", "weyl_plus_sq", "weyl_minus_sq"])
    rows = np.column_stack([
        pts, pack.scalar, pack.sigma2, pack.norms["traceless_ricci_sq"],
        pack.norms["weyl_sq"], pack.norms["weyl_plus_sq"],
        pack.norms["weyl_minus_sq"]])
    lines = ["# curvature-packet v1", ",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.output_dir is not None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "curvature.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"artifacts: {path}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccegeom",
        description="conformally compact Einstein 4-manifold toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--model", help="model registry name")
        p.add_argument("--m", type=float, help="mass parameter where applicable")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("analyze", help="full pipeline with artifacts")
    common(p)
    p = sub.add_parser("check", help="invariant suites only (CI)")
    common(p)
    p = sub.add_parser("curvature", help="pointwise curvature packet dump")
    common(p)
    return parser


_COMMANDS = {
    "analyze": run_analyze,
    "check": run_check,
    "curvature": run_curvature,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CcegeomError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

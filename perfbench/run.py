"""Benchmark of ccegeom: its command line timed end to end, and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is the ``ccegeom`` command line in a fresh interpreter
(``child.py``), one at a time, started from this process. The seed picks
the workload's inputs; the program sees only the generated flags or
config file. Each invocation's outputs are checked against the closed
forms of ``ccegeom.models.exact_reference`` and, where an input repeats,
against the first iteration's artifacts byte for byte.

--trace 0 repeats iterations over the inputs while the next one still
fits in S seconds (at least one) and reports the end-to-end metrics.
--trace 1 runs the first input once untraced and once traced, and
reports the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. README.md in this
directory says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS as PACKAGE_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: every run must end within 180 s; children are killed past this
DEADLINE_S = 170.0
#: BLAS/OpenMP threads per child: invocations run one at a time and the
#: linear algebra is small, so one thread keeps timings independent of
#: the machine's defaults (at most nproc on any machine)
BLAS_THREADS = 1
#: analyze artifacts pinned as byte-deterministic
ARTIFACTS = ("report.json", "integrals.csv", "volumes.csv", "eigen_grid.csv")
#: the CLI's default identity gate (relative to 8 pi^2 chi), reused as the
#: tolerance of every closed-form comparison on that scale
TOL_IDENTITY = 1e-3
#: the CLI's default volume-fit drift gate
TOL_FIT = 1e-3
#: tolerance on w2, as in the CLI's matched-asymptotics check
TOL_W2 = 1e-6

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("import", "cli", "bench") + PACKAGE_LAYERS
#: layers every workload enters; volume and topology self times read 0 on
#: check-all, so they are printed but not reported
REPORTED_SELF = ("import", "cli", "bench", "models", "normal_form", "quadrature",
                 "eigenfunction", "integrals", "tensor")
PER_LAYER_UNITS = (
    [(f"{layer}.self_s", "s") for layer in REPORTED_SELF]
    + [("models.build_s", "s"),
       ("normal_form.radial_map_build_s", "s"), ("normal_form.r_of_s_us", "us"),
       ("normal_form.lns_of_r_us", "us"), ("normal_form.r_of_s_calls", "count"),
       ("normal_form.lns_of_r_calls", "count"),
       ("quadrature.rule_us", "us"), ("quadrature.rule_calls", "count"),
       ("volume.fit_s", "s"), ("volume.rungs", "count"), ("volume.fit_drift", "ratio"),
       ("eigenfunction.solve_s", "s"), ("eigenfunction.mesh_nodes", "count"),
       ("eigenfunction.checks_s", "s"),
       ("integrals.integrate_s", "s"), ("integrals.points", "count"),
       ("tensor.curvature_us_per_point", "us"), ("tensor.curvature_call_us", "us"),
       ("tensor.field_eval_us_per_point", "us"), ("tensor.curvature_calls", "count"),
       ("topology.report_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")])


# ---------------------------------------------------------------------------
# workloads: the seed picks inputs, one stratum at a time

def _stratified(rng, lo, hi, strata):
    """One draw from each of `strata` equal slices of [lo, hi]."""
    width = (hi - lo) / strata
    return [round(lo + width * (k + rng.random()), 4) for k in range(strata)]


#: parameter ranges on which every gate passes today: the AdS volume fit
#: drifts up to 0.96e-3 against its 1e-3 gate near m = 0.9 and passes for
#: m <= 2.45; the hyperbolic boundary-limit residual is 7.3e-7 at
#: lambda = 0.9 and crosses its 1e-6 gate near 0.77 (README.md, "Failing
#: inputs")
ADS_MASSES = (0.5, 2.25)
RADII = (0.9, 1.5)


def _ads(m):
    return {"label": f"m={m}", "model": "ads_schwarzschild", "params": {"m": m},
            "argv": ["analyze", "--model", "ads_schwarzschild", "--m", repr(m),
                     "--out", "out"]}


def _hyperbolic(lam):
    return {"label": f"lambda={lam}", "model": "hyperbolic",
            "params": {"boundary_radius": lam},
            "config": {"model": {"name": "hyperbolic", "boundary_radius": lam}},
            "argv": ["analyze", "--config", "run.json", "--out", "out"]}


def ads_fill(rng):
    return [_ads(m) for m in _stratified(rng, *ADS_MASSES, 2)]


def startup(rng):
    # one radius, repeated: the cost does not depend on it
    return [_hyperbolic(_stratified(rng, *RADII, 1)[0])]


def known_failures(rng):
    # fixed inputs the program refuses today; not a timed workload of
    # BENCHMARK.json, run by hand to see whether they still fail
    return [_ads(3.0), _hyperbolic(0.7)]


def check_all(rng):
    # fixed inputs: the whole catalogue, as CI runs it
    return [{"label": "catalogue", "model": None, "params": {}, "argv": ["check"]}]


WORKLOADS = {"ads-fill": ads_fill, "check-all": check_all, "startup": startup,
             "known-failures": known_failures}


# ---------------------------------------------------------------------------
# one invocation

def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(inp: dict, workdir: str, trace: bool, deadline: float) -> dict:
    """Run one command line in a fresh interpreter; return its record."""
    os.makedirs(workdir)
    if "config" in inp:
        with open(os.path.join(workdir, "run.json"), "w") as fh:
            json.dump(inp["config"], fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "result.json",
           "1" if trace else "0"] + inp["argv"]
    with open(os.path.join(workdir, "stdout.txt"), "w") as out, \
            open(os.path.join(workdir, "stderr.txt"), "w") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            # rusage of this child alone: RUSAGE_CHILDREN would report the
            # largest child so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"input": inp["label"], "exit": proc.returncode, "wall_s": wall,
           "rss_mb": usage.ru_maxrss / 1024.0, "dir": workdir}
    try:
        with open(os.path.join(workdir, "result.json")) as fh:
            rec["child"] = json.load(fh)
    except (OSError, ValueError):
        rec["child"] = None
    rec["digests"] = _digests(os.path.join(workdir, "out"))
    return rec


def _digests(outdir: str) -> dict:
    found = {}
    for name in ARTIFACTS:
        path = os.path.join(outdir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


# ---------------------------------------------------------------------------
# output checks

def _read(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name)) as fh:
        return fh.read()


def check_analyze(inp: dict, outdir: str) -> tuple:
    """Compare report.json with the model's closed forms -> (problems, values)."""
    from ccegeom import models

    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    refs = models.exact_reference(inp["model"], **inp["params"])
    scale = 8 * math.pi**2 * refs["euler"]
    w_ref = float(refs["weyl_energy"])
    v_ref = float(refs.get("renormalized_volume", (scale - w_ref / 4) / 6))
    v = report["volume_fit"]["V"]
    w = report["integrals"]["collar"]["weyl_energy"]
    w2 = report["eigenfunction"]["w2"]
    identity = report["identities"]["gauss_bonnet_volume_relative"]
    values = {"volume_abs_err": abs(v - v_ref), "identity_rel_err": identity}
    if w_ref:
        values["weyl_rel_err"] = abs(w - w_ref) / w_ref
    problems = []
    params = report["model"]["parameters"]
    for key, want in inp["params"].items():
        if params.get(key) != want:
            problems.append(f"report has {key} = {params.get(key)}, input {want}")
    if 6 * abs(v - v_ref) / scale > TOL_IDENTITY:
        problems.append(f"V = {v!r} against {v_ref!r}")
    if abs(w - w_ref) / (4 * scale) > TOL_IDENTITY:
        problems.append(f"collar Weyl energy {w!r} against {w_ref!r}")
    if abs(w2 - float(refs["w2"])) > TOL_W2:
        problems.append(f"w2 = {w2!r} against {float(refs['w2'])!r}")
    if not identity <= TOL_IDENTITY:
        problems.append(f"identity residual {identity!r} above {TOL_IDENTITY}")
    return problems, values


_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$", re.M)


def classify(inp: dict, rec: dict, first: dict) -> None:
    """Set rec["status"] to ok, refused (an honest gate failure) or wrong.

    wrong means the program claimed success with outputs that do not
    check, changed its artifacts between iterations, or crashed.
    """
    stdout = _read(rec["dir"], "stdout.txt")
    stderr = _read(rec["dir"], "stderr.txt")
    fails = [ln for ln in stdout.splitlines() if ln.startswith("[FAIL]")]
    rec["fail_gates"] = len(fails)
    rec["values"] = {}
    problems = []
    if rec["exit"] == 0 and not fails and rec["child"] is not None:
        if inp["model"] is None:
            m = _PASSED.search(stdout)
            if not m or m.group(1) != m.group(2):
                problems.append("no 'N/N checks passed' line")
        else:
            try:
                problems, rec["values"] = check_analyze(inp, os.path.join(rec["dir"], "out"))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        status = "wrong" if problems else "ok"
        reason = "; ".join(problems)
    elif rec["exit"] == 1 and "Traceback" not in stderr and (fails or "failed" in stderr):
        status = "refused"
        reason = fails[0] if fails else stderr.strip().splitlines()[-1]
    else:
        status = "wrong"
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        reason = f"exit {rec['exit']}: {tail[0]}"
    if first is not None and first["digests"] and rec["digests"] != first["digests"]:
        status = "wrong"
        changed = sorted(k for k in set(first["digests"]) | set(rec["digests"])
                         if first["digests"].get(k) != rec["digests"].get(k))
        reason = f"artifacts differ from the first iteration: {', '.join(changed)}"
    rec["status"], rec["reason"] = status, reason


# ---------------------------------------------------------------------------
# runs

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _line(rec: dict) -> str:
    setup = (rec["child"] or {}).get("setup_s")
    text = (f"  [{rec['status']}] {rec['input']} iteration {rec['iteration']}: "
            f"exit {rec['exit']}, wall {rec['wall_s']:.3f} s, "
            + (f"setup {setup:.3f} s, " if setup is not None else "")
            + f"rss {rec['rss_mb']:.1f} MB")
    return text + (f" -- {rec['reason']}" if rec["reason"] else "")


def untraced(inputs, seconds, rundir, deadline):
    records, first = [], {}
    start = time.monotonic()
    iteration = 0
    while True:
        iteration += 1
        t_it = time.monotonic()
        for k, inp in enumerate(inputs):
            rec = invoke(inp, os.path.join(rundir, f"{iteration}-{k}"), False, deadline)
            rec["iteration"] = iteration
            classify(inp, rec, first.get(k))
            first.setdefault(k, rec)
            records.append(rec)
            print(_line(rec), flush=True)
        now = time.monotonic()
        last = now - t_it
        if now - start + last > seconds or now + last > deadline:
            break
    ok = [r for r in records if r["status"] == "ok"]
    # failing inputs stay out of the timing medians, so fixing one does
    # not read as a slowdown; with no success at all, time what ran
    timed = ok or records
    wall = _median(r["wall_s"] for r in timed)
    setup = _median((r["child"] or {}).get("setup_s") for r in timed)
    metrics = {"wall_s": wall, "setup_s": setup if setup is not None else wall,
               "peak_rss_mb": _median(r["rss_mb"] for r in timed)}
    print(f"wall_s = {metrics['wall_s']:.4f} s (median of {len(timed)} invocations)")
    print(f"setup_s = {metrics['setup_s']:.4f} s (import plus models.build, median)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (median of per-child peaks)")
    _print_accuracy(records)
    return records, metrics


def _print_accuracy(records):
    failed = [r for r in records if r["status"] != "ok"]
    print(f"failed_frac = {len(failed) / len(records):.4f} "
          f"({len(failed)} of {len(records)} invocations)")
    for name in ("volume_abs_err", "weyl_rel_err", "identity_rel_err"):
        value = _median(r["values"].get(name) for r in records)
        print(f"{name} = " + (f"{value:.6e} (median over successful invocations)"
                              if value is not None else "n/a on this workload"))
    for label in dict.fromkeys(r["input"] for r in failed):
        reasons = dict.fromkeys(r["reason"] for r in failed if r["input"] == label)
        print(f"failing input {label}: " + " | ".join(reasons))


def traced(inputs, rundir, deadline):
    inp = inputs[0]
    base = invoke(inp, os.path.join(rundir, "untraced"), False, deadline)
    base["iteration"] = 1
    classify(inp, base, None)
    print(_line(base), flush=True)
    rec = invoke(inp, os.path.join(rundir, "traced"), True, deadline)
    rec["iteration"] = 2
    # the traced iteration must write the same artifacts as the untraced one
    classify(inp, rec, base)
    print(_line(rec), flush=True)
    records = [base, rec]
    _print_accuracy(records)
    child = rec["child"]
    if child is None:
        return records, None
    selfs = dict(child["layer_self_s"])
    selfs["bench"] = selfs.get("bench", 0.0) + child["untraced_remainder_s"]
    print("self time: " + ", ".join(f"{layer} {selfs.get(layer, 0.0):.4f} s"
                                    for layer in LAYERS))
    print(f"coverage: self times add up to {sum(selfs.values()):.6f} s "
          f"of {child['total_s']:.6f} s traced wall")
    spans = child["spans"]
    print("integrals: " + ", ".join(
        f"{kind} {spans.get(f'integrals.integrate_curvature[{kind}]', {}).get('inclusive_s', 0.0):.4f} s"
        for kind in ("box", "radial")))
    if child["stages_from_probe"]:
        print("timed on the probe input (not run by this command): "
              + ", ".join(child["stages_from_probe"]))
    metrics = {**child["stages"], **child["probes"], **child["counts"],
               "volume.fit_drift": _fit_drift(rec),
               "trace.wall_s": child["total_s"],
               "trace.overhead_s": child["total_s"] - (base["child"] or {}).get("total_s", 0.0)}
    for layer in REPORTED_SELF:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return records, metrics


def _fit_drift(rec: dict) -> float:
    """stability_change over its gate, from the traced report when it has one."""
    try:
        with open(os.path.join(rec["dir"], "out", "report.json")) as fh:
            change = json.load(fh)["volume_fit"].get("stability_change")
    except (OSError, ValueError, KeyError):
        change = None
    return change / TOL_FIT if change is not None else 0.0


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ccegeom", "cli.py")):
        print(f"no ccegeom sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, SRC)
    # bytecode first, so no timed invocation pays for compiling the sources
    compileall.compile_dir(SRC, quiet=1)
    import ccegeom.models  # noqa: F401  closed forms for the checks, loaded before timing
    env = environment()
    rundir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    inputs = WORKLOADS[args.workload](random.Random(args.seed))
    print(f"perfbench ccegeom: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("inputs: " + ", ".join(inp["label"] for inp in inputs), flush=True)
    if args.trace:
        records, metrics = traced(inputs, rundir, deadline)
        units = dict(PER_LAYER_UNITS)
    else:
        records, metrics = untraced(inputs, args.seconds, rundir, deadline)
        units = dict(END_TO_END)
    correct = metrics is not None and all(r["status"] != "wrong" for r in records)
    result = {"correct": correct, "attempted": len(records),
              "failed": sum(r["status"] != "ok" for r in records),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
              if metrics is not None else {}}
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump({"env": env, "inputs": inputs, "records": records, "result": result},
                  fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Convergence behavior of the volume fit.

Two sweeps on the hyperbolic model, where V = 4 pi^2/3 in closed form:

  1. volume fit error against the ladder starting rung s0,
  2. volume fit error against ladder depth at fixed s0;

and one on AdS-Schwarzschild at m = 3 and 5, where the definition of V
gives V = (4 pi beta / 3)(r+ - m) (the model's reference value):

  3. volume fit error against ladder depth, 8 and 12 chart rungs
     y_k = 0.3 * 0.78^k of the fill's radial chart, where y = s to first
     order; the fit reads eps_k = s(y_k) forward.

On the hyperbolic fill the chart is s itself, so its rungs are the eps.

The point of all three is that the answer must NOT depend on the ladder
once it spans a decade: the expansion coefficients are properties of the
metric, and the tail columns absorb whatever the truncation leaves over.

Usage:
    python3 scripts/convergence_study.py [--csv PATH]
"""

import argparse
import sys
import time

import numpy as np

from ccegeom import models
from ccegeom.volume import fit_renormalized_volume

V_EXACT = 4 * np.pi ** 2 / 3


def ladder_start_sweep(fg, rows):
    for s0 in (0.5, 0.4, 0.3, 0.2, 0.1, 0.05):
        ladder = s0 * 0.7 ** np.arange(12)
        t0 = time.perf_counter()
        fit = fit_renormalized_volume(fg, ladder=ladder)
        rows.append(("ladder-start", s0, abs(fit.V - V_EXACT),
                     fit.condition_number, time.perf_counter() - t0))


def ladder_depth_sweep(fg, rows):
    for rungs in (8, 10, 12, 14):
        ladder = 0.3 * 0.7 ** np.arange(rungs)
        t0 = time.perf_counter()
        fit = fit_renormalized_volume(fg, ladder=ladder)
        rows.append(("ladder-depth", rungs, abs(fit.V - V_EXACT),
                     fit.condition_number, time.perf_counter() - t0))


def ads_ladder_depth_sweep(rows):
    for m in (3.0, 5.0):
        fg = models.ads_schwarzschild(m=m)
        exact = models.exact_reference("ads_schwarzschild", "renormalized_volume", m=m)
        for rungs in (8, 12):
            t0 = time.perf_counter()
            # chart rungs: fit.epsilons holds the s read at each
            fit = fit_renormalized_volume(fg, ladder=0.3 * 0.78 ** np.arange(rungs))
            rows.append((f"ads-m{m:g}-depth", rungs, abs(fit.V - exact),
                         fit.condition_number, time.perf_counter() - t0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", default=None, help="also write rows here")
    args = parser.parse_args(argv)

    fg = models.hyperbolic()
    rows = []
    ladder_start_sweep(fg, rows)
    ladder_depth_sweep(fg, rows)
    ads_ladder_depth_sweep(rows)

    print(f"{'sweep':<14} {'parameter':>12} {'error':>12} "
          f"{'condition':>12} {'seconds':>8}")
    for sweep, param, err, cond, secs in rows:
        print(f"{sweep:<14} {param:>12g} {err:>12.3e} {cond:>12.4g} {secs:>8.2f}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("sweep,parameter,error,condition,seconds\n")
            for sweep, param, err, cond, secs in rows:
                fh.write(f"{sweep},{param:.6g},{err:.6e},{cond:.6g},{secs:.3f}\n")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

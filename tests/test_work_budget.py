"""Work budgets: hardware-independent counters of three command runs.

The counter of record for the numerics' work until the benchmark reads
its own counters: curvature-kernel points (every MetricField.jet batch),
warp points (every FGMetric.warp batch), inversions of the radial map
(RadialMap.r_of_s points, which no program path makes), the
collocation sizes of the eigenfunction solve, and two counters of the
jets' Hessian entries, each pinned exactly. jet_entries counts the
Hessians of the jets built (np.size(h) summed over every autodiff.Jet);
lift_entries counts the zero-padded Hessians that autodiff._lift
allocates when one operand of + or * or of chain_jet lacks some of the
other's directions, a work jet_entries does not see. A change that
moves the work edits the pins and says so.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ccegeom import autodiff, cli, eigenfunction
from ccegeom.normal_form import FGMetric, RadialMap
from ccegeom.tensor import MetricField


def _count(monkeypatch, owner, name, tally, size):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[0] += size(*args)
        tally[1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("argv, budget", [
    (["analyze", "--model", "ads_schwarzschild", "--m", "1.0"],
     {"kernel": [374, 5], "warp": [1303, 8], "r_of_s": [0, 0],
      "collocation": [16, 64], "jet_entries": 74004, "lift_entries": 3696}),
    (["analyze", "--model", "hyperbolic"],
     {"kernel": [374, 5], "warp": [1079, 7], "r_of_s": [0, 0],
      "collocation": [16], "jet_entries": 23823, "lift_entries": 15004}),
    (["check"],
     {"kernel": [7214, 15], "warp": [423, 8], "r_of_s": [0, 0],
      "collocation": [16], "jet_entries": 965239, "lift_entries": 637398}),
], ids=["analyze-ads", "analyze-hyperbolic", "check"])
def test_work_budget(argv, budget, tmp_path, monkeypatch, capsys):
    """[points, calls] of the kernel, the warp and the inversion, the
    collocation sizes tried and the jet and lift Hessian entries formed,
    in one run of the command."""
    seen = {"kernel": [0, 0], "warp": [0, 0], "r_of_s": [0, 0], "collocation": [],
            "jet_entries": 0, "lift_entries": 0}
    _count(monkeypatch, MetricField, "jet", seen["kernel"],
           lambda self, pts, *a: np.shape(pts)[0])
    _count(monkeypatch, FGMetric, "warp", seen["warp"], lambda self, s: np.size(s))
    _count(monkeypatch, RadialMap, "r_of_s", seen["r_of_s"], lambda self, s: np.size(s))
    init = autodiff.Jet.__init__

    def counted_init(self, v, d, h, dirs):
        seen["jet_entries"] += np.size(h)
        init(self, v, d, h, dirs)

    monkeypatch.setattr(autodiff.Jet, "__init__", counted_init)
    lift = autodiff._lift

    def counted_lift(jet, dirs):
        d, h = lift(jet, dirs)
        seen["lift_entries"] += 0 if h is jet.h else h.size
        return d, h

    monkeypatch.setattr(autodiff, "_lift", counted_lift)
    collocate = eigenfunction._collocate
    monkeypatch.setattr(eigenfunction, "_collocate", lambda fg, w2, n: (
        seen["collocation"].append(n), collocate(fg, w2, n))[1])
    out = ["--out", str(tmp_path)] if argv[0] == "analyze" else []
    assert cli.main(argv + out) == 0
    capsys.readouterr()
    assert seen == budget


def test_benchmark_probes_read_the_program():
    """The benchmark's layer probes (perfbench/probes.py) run in process on
    the current package and read finite numbers: the radial map's
    construction and scalar queries, the Gauss-Legendre rule, the kernel
    and field jets of the closed models, and the volume fit with the
    topology report. A program change that drops what they read fails
    here, not only in the benchmark's smoke runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
    spec = importlib.util.spec_from_file_location("perfbench_probes", path)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    for probe in (probes.radial_map, probes.quadrature, probes.tensor,
                  probes.volume_and_topology):
        values = probe()
        assert values and all(np.isfinite(v) for v in values.values()), probe.__name__

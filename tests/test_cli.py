"""Command line driver: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from ccegeom import cli, models, topology, volume
from ccegeom.eigenfunction import compactification_checks, solve_eigenfunction
from ccegeom.errors import QuadratureTolerance

ARTIFACTS = ("report.txt", "report.json", "integrals.csv",
             "volumes.csv", "eigen_grid.csv")


def _run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def analyze_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    code = _run(["analyze", "--model", "hyperbolic", "--out", str(out)])
    assert code == 0
    return out


def test_analyze_writes_all_artifacts(analyze_dir):
    names = sorted(p.name for p in analyze_dir.iterdir())
    assert names == sorted(ARTIFACTS)


def test_analyze_report_values(analyze_dir):
    doc = json.loads((analyze_dir / "report.json").read_text())
    assert doc["gates"] and all(g["ok"] for g in doc["gates"])
    fit = doc["volume_fit"]
    assert abs(fit["V"] - 4 * np.pi ** 2 / 3) < 1e-6
    assert abs(fit["c0"] - 2 * np.pi ** 2 / 3) < 1e-6
    assert abs(fit["c2"] + 1.5 * np.pi ** 2) < 1e-6
    assert doc["identities"]["gauss_bonnet_volume_relative"] < 1e-3
    assert doc["eigenfunction"]["w2"] == 0.25
    assert doc["topology"]["consistent"] is True
    assert len(doc["topology"]["conclusions"]) >= 4
    text = (analyze_dir / "report.txt").read_text()
    assert "[pass]" in text and "FAIL" not in text
    # headline number appears in both renderings
    assert f"{fit['V']:.12g}"[:10] in text


def test_analyze_is_deterministic(analyze_dir, tmp_path):
    second = tmp_path / "again"
    second.mkdir()
    assert _run(["analyze", "--model", "hyperbolic", "--out", str(second)]) == 0
    for name in ARTIFACTS:
        assert (analyze_dir / name).read_bytes() == (second / name).read_bytes()


def test_artifacts_end_lines_with_newline_alone(analyze_dir):
    """No analyze artifact holds a carriage return."""
    for path in analyze_dir.iterdir():
        assert b"\r" not in path.read_bytes(), path.name


def test_volume_table_holds_one_row_per_default_rung(analyze_dir):
    table = (analyze_dir / "volumes.csv").read_text().splitlines()
    assert table[:2] == ["# volume-ladder v1", "epsilon,volume,fit_value,deviation"]
    rungs = tuple(float(ln.split(",")[0]) for ln in table[2:])
    assert rungs == volume.DEFAULT_LADDER


def test_analyze_skips_the_volume_fit_of_a_non_einstein_fill(tmp_path, capsys):
    """The expansion in Einstein powers is not fitted to the non-Einstein
    control: no volumes.csv, and the report says why."""
    assert _run(["analyze", "--model", "perturbed_hyperbolic",
                 "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "volumes.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert list(doc["volume_fit"]) == ["note"]
    assert doc["volume_fit"]["note"].startswith("skipped: ")


@pytest.mark.parametrize("name", models.model_names()["closed"])
def test_analyze_closed_model(name, tmp_path):
    """Every closed model goes through analyze: its report encodes as
    plain JSON, its four gates pass, and a second run is byte-identical."""
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert _run(["analyze", "--model", name, "--out", str(out)]) == 0
    names = ("report.txt", "report.json", "integrals.csv")
    assert sorted(p.name for p in first.iterdir()) == sorted(names)
    gates = json.loads((first / "report.json").read_text())["gates"]
    assert len(gates) == 4 and all(g["ok"] for g in gates)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_suite_csv_schema(analyze_dir):
    lines = (analyze_dir / "integrals.csv").read_text().splitlines()
    assert lines[0] == "# integral-suite v1"
    assert lines[1].split(",") == ["domain", "quantity", "value",
                                   "error_estimate"]
    rows = [ln.split(",") for ln in lines[2:]]
    quantities = {r[1] for r in rows}
    assert {"weyl_energy", "sigma2_integral", "volume",
            "euler_gb", "signature"} <= quantities
    domains = {r[0] for r in rows}
    assert len(domains) == 2  # collar and compactified


def test_eigen_grid_schema(analyze_dir):
    lines = (analyze_dir / "eigen_grid.csv").read_text().splitlines()
    assert lines[0] == "# eigen-grid v1"
    assert lines[1] == "s,u,du,compactified_scalar"
    first = [float(x) for x in lines[2].split(",")]
    s, u = first[0], first[1]
    assert u == pytest.approx(1 / s + s / 4, rel=1e-8)
    assert first[3] == pytest.approx(12.0, abs=1e-5)


def test_eigen_grid_rows_equal_scalar_queries(analyze_dir, hyp_solution):
    """The grid is written from whole-grid jets; each row reads exactly
    what the one-point queries give at its s."""
    sol = hyp_solution
    lines = (analyze_dir / "eigen_grid.csv").read_text().splitlines()[2:]
    assert len(lines) == 96
    for line in lines:
        s = float(line.split(",")[0])
        want = [s, sol.u(s)[0], sol.jet(s, 1)[1][0], sol.compactified_scalar(s)[0]]
        assert line == ",".join(f"{x:.17g}" for x in want)


def test_exit_code_unknown_model(tmp_path, capsys):
    assert _run(["analyze", "--model", "klein_bottle",
                 "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "check", "curvature"])
def test_every_subcommand_refuses_a_ladder_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        _run([command, "--model", "hyperbolic", "--ladder", "0.2,0.1,0.05"])
    assert exc.value.code == 2
    assert "--ladder" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "check"])
@pytest.mark.parametrize("extra", [
    {"numerics": {"ladder": [0.3, 0.21, 0.147]}},
    {"numerics": {"tol_identity": 1e-3}},
    {"outputs": {"artifacts": ["report"]}},
])
def test_document_with_a_removed_key_is_refused(command, extra, tmp_path, capsys):
    """A document is not run on defaults it asked to change."""
    out = tmp_path / "out"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"name": "hyperbolic"}, **extra}))
    assert _run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "unknown config keys" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "check"])
@pytest.mark.parametrize("model", [
    *(pytest.param({"name": "ads_schwarzschild", "m": m}, id=label)
      for m, label in (("abc", "abc"), ([1], "m1"), (None, "None"), (True, "True"))),
    # a flat 4-torus has four lengths, no more and no fewer
    pytest.param({"name": "flat_torus", "lengths": [1, 2, 3, 4, 5]}, id="torus5"),
    pytest.param({"name": "flat_torus", "lengths": [1, 2]}, id="torus2"),
])
def test_unusable_model_parameter_exits_two(command, model, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": model}))
    assert _run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def test_curvature_without_a_directory_only_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(["curvature", "--model", "hyperbolic"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# curvature-packet v1\n")
    assert "artifacts" not in out
    assert list(tmp_path.iterdir()) == []


def test_curvature_writes_into_the_document_directory(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"name": "round_sphere"},
                                "outputs": {"dir": str(tmp_path / "out")}}))
    assert _run(["curvature", "--config", str(path)]) == 0
    assert "artifacts: " in capsys.readouterr().out
    lines = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
    assert lines[0] == "# curvature-packet v1"


def test_exit_code_injected_defect(flipped_riemann, tmp_path, capsys):
    code = _run(["check", "--model", "round_sphere", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] bianchi-symmetries round_sphere" in out
    assert "failing:" in out


@pytest.mark.parametrize("field, shift, failing", [
    ("sigma2_integral", 8 * np.pi ** 2 * 1.3e-5, "euler-characteristic"),
    ("weyl_plus", 4 * 12 * np.pi ** 2 * 1.3e-5, "signature"),
], ids=["chi", "tau"])
def test_closed_index_defect_trips_its_gate(field, shift, failing, tmp_path,
                                            capsys, monkeypatch):
    """chi or tau off by 1.3e-5 trips its own gate at 5e-6: each such
    defect moves 4 pi^2 (2 chi +- 3 tau) by more than 1e-3, so the two
    gates hold the orientation-refined index formulas as tightly as a
    gate on them at 1e-3 would."""
    from ccegeom import integrals

    def shifted(*args, **kwargs):
        suite = integrals.integrate_curvature(*args, **kwargs)
        setattr(suite, field, getattr(suite, field) + shift)
        return suite

    monkeypatch.setattr(cli, "integrate_curvature", shifted)
    assert _run(["analyze", "--model", "fubini_study", "--out", str(tmp_path)]) == 1
    assert f"[FAIL] {failing}: " in capsys.readouterr().out
    gates = json.loads((tmp_path / "report.json").read_text())["gates"]
    assert [g["name"] for g in gates if not g["ok"]] == [failing]


@pytest.mark.parametrize("field, shift", [
    ("sigma2_integral", 8 * np.pi ** 2 * 1.3e-5),
    ("weyl_plus", 4 * 12 * np.pi ** 2 * 1.3e-5),
], ids=["chi", "tau"])
def test_rescaled_index_defect_trips_the_conformal_line(field, shift, capsys,
                                                        monkeypatch):
    """chi or tau off by 1.3e-5 in the rescaled S2 x S2 suites alone trips
    conformal-gauss-bonnet at the closed models' 5e-6, and nothing else."""
    from ccegeom import integrals

    def shifted(m, *args, **kwargs):
        suite = integrals.integrate_curvature(m, *args, **kwargs)
        if m.name.endswith("/conformal"):
            setattr(suite, field, getattr(suite, field) + shift)
        return suite

    monkeypatch.setattr(cli, "integrate_curvature", shifted)
    assert _run(["check", "--model", "product_spheres"]) == 1
    out = capsys.readouterr().out
    assert "failing: conformal-gauss-bonnet product_spheres" in out
    assert out.count("[FAIL]") == 1


def test_check_single_model_passes(tmp_path, capsys):
    assert _run(["check", "--model", "flat_torus", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4/4 checks passed" in out
    assert "FAIL" not in out


def test_check_builds_the_named_model_with_its_parameters(tmp_path, capsys):
    assert _run(["check", "--model", "ads_schwarzschild", "--m", "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # m = 3 is outside the range the default mass reaches
    assert _run(["check", "--model", "ads_schwarzschild", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"model": {"name": "hyperbolic",
                                          "boundary_radius": 1.3}}))
    assert _run(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "7/7 checks passed" in out
    assert "[pass] compactified-scalar hyperbolic" in out
    # the control family's matched asymptotics away from the default
    # amplitude; at A = 0 it is Einstein and has no such gate
    for amplitude, count in ((-0.3, 3), (0.0, 2)):
        path.write_text(json.dumps({"model": {"name": "perturbed_hyperbolic",
                                              "amplitude": amplitude}}))
        assert _run(["check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{count}/{count} checks passed" in out
        assert ("[pass] matched-asymptotics perturbed_hyperbolic" in out) == (count == 3)
    # parameters without a model name would apply to every model
    assert _run(["check", "--m", "2"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_check_stage_error_exits_one_without_traceback(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise QuadratureTolerance("no convergence")

    monkeypatch.setattr(cli, "integrate_curvature", failing)
    assert _run(["check", "--model", "round_sphere"]) == 1
    err = capsys.readouterr().err
    assert "stage 'curvature integrals'" in err and "Traceback" not in err


def test_check_integrates_the_base_product_once(monkeypatch, capsys):
    """The conformal-invariance lines reuse the closed gates' suite."""
    from ccegeom import integrals

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrals.integrate_curvature(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_curvature", counted)
    assert _run(["check", "--model", "product_spheres"]) == 0
    assert "6/6 checks passed" in capsys.readouterr().out
    # the base S2 x S2 once, then one integration per conformal factor
    assert len(calls) == 3


def test_analyze_ads_at_mass_three_passes_every_gate(tmp_path, capsys):
    code = _run(["analyze", "--model", "ads_schwarzschild", "--m", "3.0",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] gauss-bonnet-volume" in out
    assert not any(ln.startswith("[FAIL]") for ln in out.splitlines())


def test_report_gates_carry_value_threshold_and_margin(analyze_dir):
    gates = json.loads((analyze_dir / "report.json").read_text())["gates"]
    assert len(gates) == 6
    for gate in gates:
        assert {"value", "threshold", "comparison", "margin"} <= set(gate)
        assert gate["margin"] == gate["value"] - gate["threshold"]
        assert gate["ok"] == (gate["verdict"] == "pass")


def test_failing_gate_exits_one_with_its_margin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(topology, "IDENTITY_TOL", 1e-20)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps({"model": {"name": "hyperbolic"},
                                "outputs": {"dir": str(tmp_path / "out")}}))
    assert _run(["analyze", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert any(ln.startswith("[FAIL] gauss-bonnet-volume: ")
               for ln in out.splitlines())
    gates = json.loads((tmp_path / "out" / "report.json").read_text())["gates"]
    gate = next(g for g in gates if g["name"] == "gauss-bonnet-volume")
    assert gate["ok"] is False and gate["margin"] > 0
    assert [g["name"] for g in gates if not g["ok"]] == ["gauss-bonnet-volume"]


def test_check_rejects_unknown_scope(tmp_path, capsys):
    assert _run(["check", "--model", "moebius", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name, params, count", [
    pytest.param("hyperbolic", {}, 3, id="hyperbolic"),
    pytest.param("perturbed_hyperbolic", {}, 2, id="perturbed_hyperbolic"),
    pytest.param("perturbed_hyperbolic", {"amplitude": -0.3}, 2,
                 id="perturbed_hyperbolic--0.3")])
def test_report_carries_the_compactification_gates(name, params, count, tmp_path):
    """analyze writes the stage's own gates, not a second decision; a
    non-Einstein fill, whose scalar gap is not gated, exits 0 even where
    that gap is negative (amplitude -0.3)."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"name": name, **params},
                                "outputs": {"dir": str(tmp_path)}}))
    assert _run(["analyze", "--config", str(path)]) == 0
    gates = json.loads((tmp_path / "report.json").read_text())["gates"]
    sol = solve_eigenfunction(models.build(name, **params))
    want = [(g.name, g.value, g.threshold, g.comparison)
            for g in compactification_checks(sol)[1]]
    names = [w[0] for w in want]
    got = [(g["name"], g["value"], g["threshold"], g["comparison"])
           for g in gates if g["name"] in names]
    assert got == want and len(want) == count


def test_report_carries_every_key_the_benchmark_reads(tmp_path):
    """The AdS report holds, finite, each value the benchmark harness
    compares with the model's closed forms, and the mass it was run at."""
    assert _run(["analyze", "--model", "ads_schwarzschild", "--m", "1.0",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    for value in (doc["volume_fit"]["V"], doc["integrals"]["collar"]["weyl_energy"],
                  doc["eigenfunction"]["w2"],
                  doc["identities"]["gauss_bonnet_volume_relative"]):
        assert isinstance(value, float) and np.isfinite(value)
    assert doc["model"]["parameters"]["m"] == 1.0


@pytest.mark.parametrize("model", [
    None,
    {"name": "hyperbolic", "boundary_radius": 1.3},
    *({"name": "ads_schwarzschild", "m": m} for m in (0.5, 1.0, 2.0, 3.0)),
], ids=["hyperbolic-1", "hyperbolic-1.3", "ads-0.5", "ads-1", "ads-2", "ads-3"])
def test_full_homology_agrees_with_finite_cover_ball(model, request, tmp_path):
    """On the double of a compactified Einstein fill, int sigma2 = 12V and
    Anderson's identity make (1/4) int |W|^2 < 2 int sigma2 the inequality
    V > (4 pi^2/9) chi: the two checks reach one verdict. None is the
    default hyperbolic run of analyze_dir."""
    out = tmp_path
    if model is None:
        out = request.getfixturevalue("analyze_dir")
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": model}))
        assert _run(["analyze", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c["verdict"] for c in doc["topology"]["checks"]}
    assert checks["full-homology"] == checks["finite-cover-ball"] != "boundary"


def _topology_block(lines, indent):
    start = lines.index(indent + "topology checks")
    assert all(ln.startswith(indent) for ln in lines[start:])
    return [ln[len(indent):] for ln in lines[start:]]


@pytest.mark.parametrize("argv", [["--model", "hyperbolic"],
                                  ["--model", "ads_schwarzschild", "--m", "1.0"]],
                         ids=["hyperbolic", "ads-1"])
def test_printed_topology_block_is_the_reports(argv, tmp_path, capsys):
    """stdout and report.txt render the same topology document."""
    assert _run(["analyze", *argv, "--out", str(tmp_path)]) == 0
    printed = _topology_block(capsys.readouterr().out.splitlines(), "")
    written = _topology_block((tmp_path / "report.txt").read_text().splitlines(), "  ")
    assert printed == written and len(printed) > 10


def test_report_text_follows_the_eigenfunction_section(analyze_dir, hyp_solution):
    """report.txt writes the eigenfunction section in the order the
    compactification checks build it, with report.json's values."""
    lines = (analyze_dir / "report.txt").read_text().splitlines()
    start = lines.index("  eigenfunction:") + 1
    rows = [ln.strip().split(" = ") for ln in lines[start:start + 11]]
    section = json.loads((analyze_dir / "report.json").read_text())["eigenfunction"]
    keys = ["w2", "u_min", "scalar_boundary", "scalar_min", "scalar_gap",
            "bochner_sup", "second_form_linear", "collocation_nodes",
            "coefficient_tail", "collocation_residual", "asymptotic_residual"]
    assert [key for key, _ in rows] == keys == list(compactification_checks(hyp_solution)[0])
    assert sorted(section) == sorted(keys)
    assert [value for _, value in rows] == [str(section[k]) for k in keys]
    assert not lines[start + 11].startswith("    ")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "model": {"name": "ads_schwarzschild", "m": 1.0},
        "outputs": {"dir": str(tmp_path)},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    # flag overrides the config model; stale parameters must not leak
    code = _run(["analyze", "--config", str(path), "--model", "hyperbolic"])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["model"]["name"].startswith("hyperbolic")
    assert abs(doc["volume_fit"]["V"] - 4 * np.pi ** 2 / 3) < 1e-6


def test_einstein_perturbed_family_from_config(tmp_path):
    """At amplitude 0 the control family is Einstein and needs its chi."""
    cfg = {"model": {"name": "perturbed_hyperbolic", "amplitude": 0.0},
           "outputs": {"dir": str(tmp_path)}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert _run(["analyze", "--config", str(path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["identities"]["gauss_bonnet_volume_relative"] < 1e-3


def _edit_reference(monkeypatch, edit):
    """Build models as the CLI does, then replace each reference by edit(reference)."""
    build = cli._build_model

    def built(cfg, name=None):
        model = build(cfg, name)
        model.reference = edit(dict(model.reference))
        return model

    monkeypatch.setattr(cli, "_build_model", built)


def test_einstein_family_without_chi_fails_as_stage(tmp_path, capsys,
                                                    monkeypatch):
    _edit_reference(monkeypatch, lambda ref: {k: v for k, v in ref.items()
                                              if k != "euler"})
    code = _run(["analyze", "--model", "hyperbolic", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "at stage 'reference data'" in err
    assert "Traceback" not in err


def test_einstein_fill_with_chi_zero_fails_its_gate(tmp_path, capsys, monkeypatch):
    """At chi = 0 the identity is normalized by 8 pi^2, not divided by
    zero: hyperbolic space read as chi = 0 misses it by 6V and fails."""
    _edit_reference(monkeypatch, lambda ref: {**ref, "euler": 0})
    code = _run(["analyze", "--model", "hyperbolic", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert any(ln.startswith("[FAIL] gauss-bonnet-volume: ")
               for ln in captured.out.splitlines())
    assert "Traceback" not in captured.err
    # 6V = 8 pi^2 at V = 4 pi^2 / 3
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["identities"]["gauss_bonnet_volume_relative"] == pytest.approx(
        1.0, rel=1e-6)


def test_curvature_table(tmp_path):
    """A closed model and a fill, both conformally flat with constant
    curvature; the fill's rows read the normal-form four-metric."""
    for model, scalar in (("round_sphere", 12.0), ("hyperbolic", -12.0)):
        out = tmp_path / model
        assert _run(["curvature", "--model", model, "--out", str(out)]) == 0
        lines = (out / "curvature.csv").read_text().splitlines()
        assert lines[0] == "# curvature-packet v1"
        header = lines[1].split(",")
        for col in ("scalar", "sigma2", "weyl_sq", "traceless_ricci_sq"):
            assert col in header
        assert len(lines) > 2
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["scalar"]) == pytest.approx(scalar, abs=1e-9)
            assert float(row["sigma2"]) == pytest.approx(6.0, abs=1e-9)
            assert float(row["weyl_sq"]) < 1e-9


def _resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def test_check_keeps_the_document_model(tmp_path):
    """Only a flag that is given overrides the document; with neither,
    check runs the whole catalogue."""
    path = tmp_path / "chk.json"
    path.write_text(json.dumps({"model": {"name": "hyperbolic"}}))
    assert _resolve(["check", "--config", str(path)]).model == "hyperbolic"
    flagged = _resolve(["check", "--config", str(path), "--model", "flat_torus"])
    assert flagged.model == "flat_torus"
    assert _resolve(["check"]).model == "all"


def test_check_conformal_factors_are_metrics_on_s2xs2():
    # each factor is smooth on both spheres, so the rescaled metric keeps
    # chi = 4 and tau = 0 (a factor singular at the poles does not)
    from ccegeom import models
    from ccegeom.integrals import integrate_curvature
    from ccegeom.tensor import conformal_rescale

    mdl = models.build("product_spheres")
    for w in cli._conformal_factors():
        suite = integrate_curvature(conformal_rescale(mdl.field, w), mdl.domain,
                                    mdl.orientation)
        assert abs(suite.euler_gb - 4.0) < 1e-6
        assert abs(suite.signature) < 1e-12


def test_check_conformal_factors_are_the_seeded_draws():
    """check's (a, b, c, k1, k2) are the draws of default_rng(20260816),
    a, b and c rounded to 6 places, written out as literals."""
    rng = np.random.default_rng(20260816)
    draws = []
    for _ in range(2):
        a, b, c = (round(float(v), 6) for v in rng.uniform(-0.25, 0.25, 3))
        k1, k2 = (int(v) for v in rng.integers(1, 3, 2))
        draws.append((a, b, c, k1, k2))
    assert cli._FACTORS == tuple(draws)


def test_conformal_gauss_bonnet_line_gates_euler(monkeypatch):
    from ccegeom import models
    from ccegeom.integrals import IntegralSuite

    # the base suite, and rescaled suites whose sigma2 is off by 1%
    sigma2 = 8 * np.pi ** 2 * 4 - 0.25 * 64.0
    base = IntegralSuite(64.0, 32.0, 32.0, sigma2, 1.0, 1)
    suites = iter([IntegralSuite(64.0, 32.0, 32.0, 1.01 * sigma2, 1.0, 1)
                   for _ in range(2)])
    monkeypatch.setattr(cli, "integrate_curvature", lambda *args: next(suites))
    gates = cli._check_conformal_invariance(models.build("product_spheres"), base)
    assert [(g.name, g.verdict == "pass") for g in gates] == [
        ("conformal-invariance product_spheres", True),
        ("conformal-gauss-bonnet product_spheres", False)]

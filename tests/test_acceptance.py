"""End-to-end acceptance criteria with one PASS/FAIL line per criterion.

Run with -s to see the lines as they happen; without -s pytest still
shows them for any failing criterion.
"""

import time

import numpy as np

from ccegeom import cli, models
from ccegeom import eigenfunction as ef
from ccegeom import integrals as ig
from ccegeom import normal_form as nf
from ccegeom import topology as tp
from ccegeom import volume as vol
from ccegeom.tensor import conformal_rescale, einstein_residual

V_BALL = 4 * np.pi ** 2 / 3


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _radial_points(fg, svals):
    n = len(svals)
    return np.column_stack([np.asarray(svals), np.full(n, 0.9),
                            np.full(n, 1.1), np.full(n, 1.3)])


def test_criterion_01_renormalized_volume():
    t0 = time.perf_counter()
    fit = vol.fit_renormalized_volume(models.hyperbolic())
    elapsed = time.perf_counter() - t0
    err_v = abs(fit.V - V_BALL)
    err_c0 = abs(fit.c0 - 2 * np.pi ** 2 / 3)
    err_c2 = abs(fit.c2 + 1.5 * np.pi ** 2)
    ok = err_v < 1e-6 and err_c0 < 1e-6 and err_c2 < 1e-6 and elapsed < 10.0
    _report(1, "hyperbolic-volume-fit", ok,
            f"|V - 4pi^2/3| = {err_v:.3e}, |dc0| = {err_c0:.3e}, "
            f"|dc2| = {err_c2:.3e}, {elapsed:.2f} s")


def test_criterion_02_gauss_bonnet_volume_identity(hyperbolic, hyp_fit):
    suite = ig.integrate_curvature(hyperbolic.four_metric(),
                                   ig.fg_radial_domain(hyperbolic))
    residual = abs(ig.gauss_bonnet_volume_residual(
        1, suite.weyl_energy, hyp_fit.V))
    ok = residual < 1e-5
    _report(2, "gauss-bonnet-volume", ok,
            f"|8 pi^2 chi - W/4 - 6V| = {residual:.3e}, "
            f"W = {suite.weyl_energy:.3e}")


def test_criterion_03_eigenfunction_compactification(hyp_solution, hyp_checks):
    s = np.geomspace(hyp_solution.s_lo, hyp_solution.s_hi, 400)
    sup = float(np.max(np.abs(hyp_solution.u(s) - (1 / s + s / 4))))
    grid = np.geomspace(1e-4, hyp_solution.s_hi, 200)
    dev = float(np.max(np.abs(hyp_solution.compactified_scalar(grid) - 12.0)))
    section, _ = hyp_checks
    ok = (sup < 1e-8 and dev < 1e-5
          and section["bochner_sup"] < 1e-6
          and section["second_form_linear"] < 1e-6)
    _report(3, "eigenfunction-exactness", ok,
            f"sup |u - exact| = {sup:.3e}, scalar dev = {dev:.3e}, "
            f"bochner = {section['bochner_sup']:.3e}, "
            f"II = {section['second_form_linear']:.3e}")


def test_criterion_04_scalar_lower_bound(hyp_checks, ads_checks):
    gap_h = hyp_checks[0]["scalar_min"] - 2 * 6.0
    gap_a = ads_checks[0]["scalar_min"] - 2 * 2.0
    ok = gap_h > -1e-4 and gap_a > -1e-4
    _report(4, "compactified-scalar-bound", ok,
            f"hyperbolic gap = {gap_h:+.3e}, ads gap = {gap_a:+.3e}")


def test_criterion_05_ads_gauss_bonnet():
    t0 = time.perf_counter()
    ads = models.ads_schwarzschild(m=1.0)
    suite = ig.integrate_curvature(ads.four_metric(),
                                   ig.fg_radial_domain(ads))
    fit = vol.fit_renormalized_volume(
        ads, ladder=np.asarray([0.3 * 0.78 ** k for k in range(12)]))
    chi = 2
    residual = ig.gauss_bonnet_volume_residual(chi, suite.weyl_energy, fit.V)
    rel = abs(residual) / (8 * np.pi ** 2 * chi)
    elapsed = time.perf_counter() - t0
    weyl_rel = abs(suite.weyl_energy - 64 * np.pi ** 2) / (64 * np.pi ** 2)
    ok = rel < 1e-3 and elapsed < 60.0
    _report(5, "ads-gauss-bonnet", ok,
            f"relative residual = {rel:.3e}, weyl rel = {weyl_rel:.3e}, "
            f"V = {fit.V:.3e}, {elapsed:.1f} s")


def test_criterion_06_closed_model_invariants(sphere_suite, torus_suite):
    _, sph = sphere_suite
    _, tor = torus_suite
    sig_err = abs(sph.sigma2_integral - 16 * np.pi ** 2)
    eul_err = abs(sph.euler_gb - 2.0)
    tau_err = abs(sph.signature)
    torus_worst = max(abs(tor.euler_gb), abs(tor.signature),
                      abs(tor.weyl_energy), abs(tor.sigma2_integral))
    ok = (sig_err < 1e-6 and eul_err < 1e-6 and tau_err < 1e-8
          and torus_worst < 1e-10)
    _report(6, "closed-invariants", ok,
            f"S4: |dsigma2| = {sig_err:.3e}, |dchi| = {eul_err:.3e}, "
            f"|tau| = {tau_err:.3e}; torus worst = {torus_worst:.3e}")


def test_criterion_07_conformal_invariance(product_suite, rng):
    mdl, base = product_suite
    worst = worst_chi = 0.0
    for _ in range(5):
        a, b, c = (round(float(x), 3) for x in 0.3 * rng.standard_normal(3))
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        # smooth on S2 x S2, so the rescaled metric keeps chi = 4
        w = cli._conformal_factor(a, b, c, k1, k2)
        suite = ig.integrate_curvature(conformal_rescale(mdl.field, w),
                                       mdl.domain, orientation=mdl.orientation)
        worst = max(worst, abs(suite.weyl_energy - base.weyl_energy)
                    / base.weyl_energy)
        worst_chi = max(worst_chi, abs(suite.euler_gb - mdl.euler))
    ok = worst < 1e-6 and worst_chi < 1e-4
    _report(7, "conformal-invariance", ok,
            f"max relative deviation = {worst:.3e}, "
            f"max |euler_gb - {mdl.euler}| = {worst_chi:.3e} over 5 factors")


def test_criterion_08_expansion_coefficients(hyperbolic, ads):
    roots_ok = ef.indicial_roots(3) == (-1, 4)
    w2 = ef.asymptotic_data(hyperbolic)
    errs = []
    for fg in (hyperbolic, ads):
        # g2 is h_b''(0)/2, row 2 of the boundary fit, times ghat on block b
        closed = nf.order2_coefficient(fg.boundary.field, 3,
                                       fg.boundary.default_point)
        ghat = fg.boundary.field.g(np.asarray([fg.boundary.default_point]))[0]
        row = fg.boundary_expansion()[2]
        g2 = np.zeros_like(ghat)
        for b, idx in enumerate(fg.blocks):
            i = np.asarray(idx)
            g2[i[:, None], i] = row[b] * ghat[i[:, None], i]
        errs.append(float(np.max(np.abs(g2 - closed))))
    ok = roots_ok and w2 == 0.25 and max(errs) < 1e-5
    _report(8, "expansion-coefficients", ok,
            f"roots = {ef.indicial_roots(3)}, w2 = {w2}, "
            f"g2 errors = {errs[0]:.3e}, {errs[1]:.3e}")


def test_criterion_09_betti_sweep():
    # with first and self-dual second cohomology gone, anti-self-dual
    # dimension 2k gives chi = 2 + 2k and tau = -2k, and the integrated
    # pinching 2 chi + 3 tau > (2/3) chi must leave only k = 0
    feasible = {k for k in range(101)
                if 2 * (2 + 2 * k) + 3 * (-2 * k) > (2.0 / 3.0) * (2 + 2 * k)}
    ok = feasible == {0}
    _report(9, "betti-feasibility", ok, f"feasible set = {sorted(feasible)}")


def test_criterion_10_ball_criteria(rng, hyp_fit):
    # both ball criteria must fire on the computed hyperbolic volume
    a_hyp, a_concl = tp.finite_cover_ball_criterion(1, hyp_fit.V, True)
    b_hyp, b_concl = tp.diffeomorphism_ball_criterion(1, hyp_fit.V, True)
    hyp_ok = (a_hyp.verdict == "pass" and b_hyp.verdict == "pass"
              and a_concl and b_concl)
    a_pass, _ = tp.finite_cover_ball_criterion(1, 13.0, True)
    a_fail, concl_fail = tp.finite_cover_ball_criterion(2, 3.0, True)
    bound = tp.volume_upper_bound(13.0, True)
    rigid = tp.volume_upper_bound(V_BALL, True)
    implication = True
    for _ in range(1000):
        chi = int(rng.integers(1, 4))
        v = float(rng.uniform(0.05, 20.0))
        direct, _ = tp.diffeomorphism_ball_criterion(chi, v, True)
        weaker, _ = tp.finite_cover_ball_criterion(chi, v, True)
        if direct.verdict == "pass" and weaker.verdict != "pass":
            implication = False
    ok = (a_pass.verdict == "pass"
          and abs(a_pass.margin - (13.0 - 4 * np.pi ** 2 / 9)) < 1e-9
          and a_fail.verdict == "fail" and concl_fail == ()
          and abs(a_fail.margin - (3.0 - 8 * np.pi ** 2 / 9)) < 1e-9
          and bound.verdict == "pass"
          and abs(bound.margin - (13.0 - V_BALL)) < 1e-9
          and rigid.verdict == "boundary" and "rigidity" in rigid.note
          and implication)
    _report(10, "ball-criteria", ok,
            f"margins {a_pass.margin:+.4f} / {a_fail.margin:+.4f} / "
            f"{bound.margin:+.4f}, rigidity verdict = {rigid.verdict!r}, "
            f"implication over 1000 samples = {implication}")


def test_criterion_11_negative_controls(perturbed, pert_checks, flipped_riemann,
                                        tmp_path):
    pts = _radial_points(perturbed, np.geomspace(0.2, 1.6, 8))
    res = float(np.max(einstein_residual(
        perturbed.four_metric(), pts)))
    code = cli.main(["check", "--model", "round_sphere", "--out", str(tmp_path)])
    section, gates = pert_checks
    flag = next(g for g in gates if g.name == "bochner-flag-trips")
    ok = (res > 1e-2 and flag.verdict == "pass"
          and flag.threshold == ef.BOCHNER_TOL
          and section["bochner_sup"] > 0.1 and code == 1)
    _report(11, "negative-controls", ok,
            f"einstein residual = {res:.3f}, "
            f"bochner sup = {section['bochner_sup']:.3f}, "
            f"defect injection exit = {code}")

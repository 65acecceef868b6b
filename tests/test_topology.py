"""Decision criteria wired to the integral identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccegeom import topology as tp
from ccegeom.eigenfunction import compactified_metric_field, compactified_radial_domain
from ccegeom.errors import NotAvailable
from ccegeom.integrals import integrate_curvature


@pytest.fixture(scope="module")
def hyp_half(hyp_solution):
    """Integrals of the compactified hyperbolic fill, a round hemisphere:
    one half of the round 4-sphere."""
    return integrate_curvature(compactified_metric_field(hyp_solution),
                               compactified_radial_domain(hyp_solution))


def test_ball_volume_constant():
    assert tp.BALL_VOLUME == pytest.approx(4 * np.pi ** 2 / 3, rel=1e-15)


def test_compare_lower_bound_and_document():
    assert tp.compare("x", 2.0, 1.0, ">=", tol=0.0).verdict == "pass"
    assert tp.compare("x", 0.5, 1.0, ">=", tol=0.0).verdict == "fail"
    # with no tolerance a value exactly at its threshold is still undecided
    assert tp.compare("x", 1.0, 1.0, ">=", tol=0.0).verdict == "boundary"
    with pytest.raises(ValueError, match="comparison"):
        tp.compare("x", 2.0, 1.0, "==", tol=0.0)
    doc = tp.compare("x", 0.25, 1.0, "<", tol=0.0, note="n")._asdict()
    assert list(doc.items()) == [
        ("name", "x"), ("value", 0.25), ("threshold", 1.0), ("comparison", "<"),
        ("margin", -0.75), ("verdict", "pass"), ("note", "n")]


def test_volume_upper_bound():
    check = tp.volume_upper_bound(13.0, True)
    assert check.verdict == "pass"
    assert check.margin == pytest.approx(13.0 - 4 * np.pi ** 2 / 3, abs=1e-12)
    # equality is the rigidity case, reported as its own verdict
    edge = tp.volume_upper_bound(tp.BALL_VOLUME, True)
    assert edge.verdict == "boundary"
    assert "rigidity" in edge.note
    above = tp.volume_upper_bound(tp.BALL_VOLUME + 1e-6, True)
    assert above.verdict == "fail"
    assert "inconsistent" in above.note
    with pytest.raises(NotAvailable, match="Yamabe"):
        tp.volume_upper_bound(13.0, False)


def test_finite_cover_ball_criterion():
    check, conclusions = tp.finite_cover_ball_criterion(1, 13.0, True)
    assert check.verdict == "pass"
    assert check.threshold == pytest.approx(4 * np.pi ** 2 / 9, rel=1e-12)
    assert len(conclusions) == 3
    assert any("finite cover" in c for c in conclusions)
    # too little volume: no conclusion
    check2, conclusions2 = tp.finite_cover_ball_criterion(2, 3.0, True)
    assert check2.verdict == "fail"
    assert conclusions2 == ()


def test_diffeomorphism_ball_criterion():
    check, conclusions = tp.diffeomorphism_ball_criterion(1, 13.0, True)
    assert check.verdict == "pass"
    assert check.threshold == pytest.approx(2 * np.pi ** 2 / 3, rel=1e-12)
    # the doubled form 16 pi^2 chi - 12V < 12V is the same inequality times 24
    assert 24 * check.margin == pytest.approx(12 * 13.0 - (16 * np.pi ** 2 - 12 * 13.0),
                                              abs=1e-9)
    assert any("diffeomorphic to the 4-ball" in c for c in conclusions)
    assert any("4-sphere" in c for c in conclusions)
    check2, conclusions2 = tp.diffeomorphism_ball_criterion(2, 3.0, True)
    assert check2.verdict == "fail"
    assert conclusions2 == ()


def test_stronger_criterion_implies_weaker(rng):
    """Whenever the diffeomorphism bound passes, the finite-cover bound must."""
    for _ in range(1000):
        chi = int(rng.integers(1, 4))
        v = float(rng.uniform(0.05, 20.0))
        direct, _ = tp.diffeomorphism_ball_criterion(chi, v, True)
        weaker, _ = tp.finite_cover_ball_criterion(chi, v, True)
        if direct.verdict == "pass":
            assert weaker.verdict == "pass"


@settings(max_examples=200, deadline=None)
@given(chi=st.integers(min_value=1, max_value=6),
       v1=st.floats(min_value=0.01, max_value=40.0),
       bump=st.floats(min_value=1e-6, max_value=40.0))
def test_criteria_monotone_in_volume(chi, v1, bump):
    a1, _ = tp.finite_cover_ball_criterion(chi, v1, True)
    a2, _ = tp.finite_cover_ball_criterion(chi, v1 + bump, True)
    assert a2.margin > a1.margin
    if a1.verdict == "pass":
        assert a2.verdict == "pass"


def test_homology_vanishing_on_round_double(sphere_suite):
    """The round 4-sphere is the double of the compactified hyperbolic
    ball, and the homology check passes strictly there."""
    _, suite = sphere_suite
    check = tp.homology_vanishing_criterion(suite.weyl_energy, suite.sigma2_integral)
    assert check.name == "full-homology"
    assert check.verdict == "pass"
    assert check.margin < 0


def test_homology_checks_are_sharp_on_product_double(product_suite):
    """Doubling S^2 x S^2 lands exactly on the threshold: its second
    cohomology is the known obstruction, so the check may not pass
    strictly."""
    _, suite = product_suite
    check = tp.homology_vanishing_criterion(2 * suite.weyl_energy,
                                            2 * suite.sigma2_integral)
    assert check.verdict == "boundary"
    assert check.margin == pytest.approx(0.0, abs=1e-7)


def test_full_report_on_hyperbolic_data(hyp_fit, hyp_half):
    rep = tp.build_topology_report(1, hyp_fit.V, True, half_suite=hyp_half,
                                   identity_residual=1e-9)
    assert rep["consistent"]
    assert len(rep["conclusions"]) >= 4
    text = tp.render_topology_report(rep)
    assert "volume-upper-bound" in text
    assert "[" in text and "pass" in text
    names = [c["name"] for c in rep["checks"]]
    assert names == ["volume-upper-bound", "finite-cover-ball",
                     "diffeomorphism-ball", "full-homology"]
    # the double's numbers are twice the half's, exactly
    assert rep["inputs"]["double_weyl_sq"] == 2 * hyp_half.weyl_energy
    assert rep["inputs"]["double_sigma2"] == 2 * hyp_half.sigma2_integral


def test_report_consistency_gate(hyp_fit):
    rep = tp.build_topology_report(1, hyp_fit.V, True, identity_residual=5e-3)
    assert not rep["consistent"]
    assert rep["conclusions"] == []
    assert any("identity" in note for note in rep["notes"])


def test_topology_document(hyp_fit, hyp_half):
    """The report is the analyze document: sorted inputs, each check the
    fields of the criterion's Check record, each conclusion a statement
    with the check that licenses it."""
    doc = tp.build_topology_report(1, hyp_fit.V, True, half_suite=hyp_half,
                                   identity_residual=1e-9)
    assert list(doc) == ["inputs", "checks", "conclusions", "consistent", "notes"]
    assert doc["consistent"] is True and doc["notes"] == []
    assert list(doc["inputs"]) == ["chi", "double_sigma2", "double_weyl_sq",
                                   "identity_residual", "volume", "yamabe_positive"]
    assert doc["inputs"]["chi"] == 1
    want = [tp.volume_upper_bound(hyp_fit.V, True),
            tp.finite_cover_ball_criterion(1, hyp_fit.V, True)[0],
            tp.diffeomorphism_ball_criterion(1, hyp_fit.V, True)[0],
            tp.homology_vanishing_criterion(2 * hyp_half.weyl_energy,
                                            2 * hyp_half.sigma2_integral)]
    assert doc["checks"] == [c._asdict() for c in want]
    checks = {c["name"] for c in doc["checks"]}
    assert len(doc["conclusions"]) >= 4
    for entry in doc["conclusions"]:
        assert list(entry) == ["statement", "via"]
        assert entry["statement"] and entry["via"] in checks

"""Decision inequalities tying renormalized volume to interior topology.

For a conformally compact Einstein 4-manifold with positive-Yamabe
conformal boundary, the renormalized volume V is bounded above by the
hyperbolic value 4 pi^2/3, and lower bounds on V relative to the Euler
characteristic force the interior to be topologically trivial: above a
third of the hyperbolic value per unit characteristic the interior is a
4-ball up to finite cover, and above half it is diffeomorphic to the
ball outright, with 3-sphere boundary. One more check works on the
closed double: when its Weyl energy is small against its integrated
second elementary symmetric function of the Schouten tensor, all second
cohomology vanishes. Through int sigma2 = 6V and 8 pi^2 chi =
(1/4) int |W|^2 + 6V that is the finite-cover threshold again, read
from the integrals instead of from V.

Everything here is exact arithmetic on previously computed invariants;
the only numerics is one comparison tolerance, COMPARISON_TOL. Strict
hypotheses never pass silently: values within tolerance of a threshold
get an explicit "boundary" verdict. build_topology_report gathers every
check into one document, the topology section of the analyze report,
and render_topology_report prints that document.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import NotAvailable

__all__ = [
    "BALL_VOLUME",
    "IDENTITY_TOL",
    "Check",
    "compare",
    "gate",
    "volume_upper_bound",
    "finite_cover_ball_criterion",
    "diffeomorphism_ball_criterion",
    "homology_vanishing_criterion",
    "build_topology_report",
    "render_topology_report",
]

#: renormalized volume of the hyperbolic model, the extremal value
BALL_VOLUME = 4.0 * np.pi**2 / 3.0

#: absolute tolerance of every criterion below: a margin within it is
#: "boundary", neither pass nor fail
COMPARISON_TOL = 1e-9

#: largest relative defect of 8 pi^2 chi = (1/4) int |W|^2 + 6V that
#: still lets the report draw conclusions; the analyze gate reads it too
IDENTITY_TOL = 1e-3


class Check(NamedTuple):
    """One evaluated inequality: value `comparison` threshold.

    margin is always value - threshold, so the verdict is reproducible
    from the record alone. verdict "boundary" means |margin| fell
    within the comparison tolerance: a strict hypothesis is neither
    satisfied nor refuted at this precision.
    """

    name: str
    value: float
    threshold: float
    comparison: str
    margin: float
    verdict: str
    note: str = ""


def compare(name: str, value: float, threshold: float, comparison: str,
            tol: float, note: str = "", boundary_note: str = "") -> Check:
    """Evaluate value `comparison` threshold; |margin| <= tol is "boundary"."""
    value = float(value)
    threshold = float(threshold)
    margin = value - threshold
    if abs(margin) <= tol:
        verdict = "boundary"
        if boundary_note:
            note = f"{note}; {boundary_note}" if note else boundary_note
    elif comparison == ">":
        verdict = "pass" if margin > 0 else "fail"
    elif comparison == "<":
        verdict = "pass" if margin < 0 else "fail"
    elif comparison == "<=":
        verdict = "pass" if margin <= 0 else "fail"
    elif comparison == ">=":
        verdict = "pass" if margin >= 0 else "fail"
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return Check(name, value, threshold, comparison, margin, verdict, note)


def gate(name: str, value: float, threshold: float, comparison: str = "<") -> Check:
    """One pipeline gate: compare with no boundary band, so a value
    exactly at its threshold fails."""
    return compare(name, value, threshold, comparison, tol=0.0)


def _require_yamabe(yamabe_positive: bool):
    if not yamabe_positive:
        raise NotAvailable(
            "this inequality assumes a positive-Yamabe conformal boundary; "
            "this boundary's Yamabe invariant is not positive"
        )


def volume_upper_bound(volume: float, yamabe_positive: bool) -> Check:
    """V <= 4 pi^2/3, with the equality case flagged as rigidity.

    Equality holds exactly for the hyperbolic model (round-sphere
    boundary), so a value at the threshold is reported as the rigidity
    case rather than a pass: a margin within COMPARISON_TOL. A clear
    violation means the inputs cannot come from a positive-Yamabe
    conformally compact Einstein metric.
    """
    _require_yamabe(yamabe_positive)
    check = compare(
        "volume-upper-bound", volume, BALL_VOLUME, "<=", COMPARISON_TOL,
        boundary_note="equality: rigidity, the metric is the hyperbolic "
                      "model and the boundary the round sphere",
    )
    if check.verdict == "fail":
        check = check._replace(note="no positive-Yamabe conformally compact Einstein "
                               "metric attains this volume; inputs are inconsistent")
    return check


def finite_cover_ball_criterion(chi: int, volume: float, yamabe_positive: bool):
    """V > (1/3)(4 pi^2/3) chi forces ball topology up to finite cover.

    Returns (check, conclusions); a margin within COMPARISON_TOL is
    "boundary". On a strict pass the interior is homeomorphic to the
    4-ball up to a possible finite cover (equivalently the fundamental
    group is at most finite), with the intermediate facts recorded: the
    volume is positive, first and second real cohomology vanish, and
    the integrated sigma2 of the double is positive.
    """
    _require_yamabe(yamabe_positive)
    check = compare("finite-cover-ball", volume,
                     BALL_VOLUME * chi / 3.0, ">", COMPARISON_TOL,
                     note=f"chi = {int(chi)}")
    conclusions = ()
    if check.verdict == "pass":
        conclusions = (
            "interior homeomorphic to the 4-ball up to a possible finite "
            "cover (fundamental group at most finite)",
            "renormalized volume positive; first and second real "
            "cohomology of the interior vanish",
            "integrated sigma2 of the closed double is positive",
        )
    return check, conclusions


def diffeomorphism_ball_criterion(chi: int, volume: float, yamabe_positive: bool):
    """V > (1/2)(4 pi^2/3) chi forces the ball outright.

    Returns (check, conclusions); a margin within COMPARISON_TOL is
    "boundary". Through the volume identity 8 pi^2 chi = (1/4) int |W|^2
    + 6V and the closed Gauss-Bonnet formula the threshold is the
    doubled-manifold form (1/4) int |W|^2 < int sigma2, so that form is
    not checked again. On a strict pass the interior is diffeomorphic to
    the 4-ball, the boundary to the 3-sphere, and the double to the
    4-sphere.
    """
    _require_yamabe(yamabe_positive)
    check = compare("diffeomorphism-ball", volume,
                     0.5 * BALL_VOLUME * chi, ">", COMPARISON_TOL,
                     note=f"chi = {int(chi)}")
    conclusions = ()
    if check.verdict == "pass":
        conclusions = (
            "interior diffeomorphic to the 4-ball; boundary diffeomorphic "
            "to the 3-sphere",
            "closed double diffeomorphic to the 4-sphere",
        )
    return check, conclusions


def homology_vanishing_criterion(weyl_energy: float, sigma2: float) -> Check:
    """(1/4) int |W|^2 < 2 int sigma2 on a closed double kills its second
    cohomology; a margin within COMPARISON_TOL is "boundary".

    weyl_energy and sigma2 are the double's integrals. The double of a
    compactified Einstein fill has int sigma2 = 12V and, by Anderson's
    identity, (1/4) int |W|^2 = 16 pi^2 chi - 12V, so the check reads
    V > (4 pi^2/9) chi, finite_cover_ball_criterion's threshold. The
    double's W+ and W- carry the same energy, so the self-dual and
    anti-self-dual forms (1/4) int |W+-|^2 < int sigma2 are this check
    too. With first cohomology and self-dual second cohomology gone,
    anti-self-dual dimension 2k gives chi = 2 + 2k and tau = -2k, and
    the integrated pinching 2 chi + 3 tau > (2/3) chi reads
    4 - 2k > (4 + 4k)/3, i.e. k < 4/5: only k = 0 survives.
    """
    return compare("full-homology", 0.25 * float(weyl_energy),
                   2.0 * float(sigma2), "<", COMPARISON_TOL,
                   note="pass kills all second cohomology; the same "
                        "inequality as finite-cover-ball")


def build_topology_report(chi: int, volume: float, yamabe_positive: bool,
                          half_suite=None,
                          identity_residual: Optional[float] = None) -> dict:
    """All decision checks for one model, with licensed conclusions: the
    topology section of the analyze report.

    The document holds the inputs in key order, every check as a Check
    record's fields, the conclusions as {statement, via}, via naming the
    single check that licenses the statement, consistent and notes.
    half_suite is the IntegralSuite of the compactified fill, one half of
    its closed double across the totally geodesic boundary: the
    double's integrals are twice the half's.
    identity_residual is the relative defect of
    8 pi^2 chi = (1/4) int |W|^2 + 6V measured upstream; when it is
    supplied and above IDENTITY_TOL the numbers feeding the inequalities
    cannot all be right, so the document keeps the raw checks, withholds
    every conclusion and says why in its notes.
    """
    inputs = {
        "chi": int(chi),
        "volume": float(volume),
        "yamabe_positive": bool(yamabe_positive),
        "identity_residual": (None if identity_residual is None
                              else float(identity_residual)),
    }
    checks = [volume_upper_bound(volume, yamabe_positive)]
    notes = []

    cover_check, cover_conc = finite_cover_ball_criterion(chi, volume, yamabe_positive)
    checks.append(cover_check)
    diffeo_check, diffeo_conc = diffeomorphism_ball_criterion(chi, volume, yamabe_positive)
    checks.append(diffeo_check)

    if half_suite is not None:
        inputs["double_weyl_sq"] = 2.0 * float(half_suite.weyl_energy)
        inputs["double_sigma2"] = 2.0 * float(half_suite.sigma2_integral)
        checks.append(homology_vanishing_criterion(inputs["double_weyl_sq"],
                                                   inputs["double_sigma2"]))

    consistent = True
    if checks[0].verdict == "fail":
        consistent = False
        notes.append("volume exceeds the universal upper bound: inputs "
                     "inconsistent, conclusions withheld")
    if identity_residual is not None and identity_residual > IDENTITY_TOL:
        consistent = False
        notes.append(
            f"volume identity residual {identity_residual:.3e} exceeds "
            f"{IDENTITY_TOL:.1e}: chi, Weyl energy and V disagree, "
            "conclusions withheld"
        )
    conclusions = [{"statement": text, "via": check.name}
                   for check, texts in ((cover_check, cover_conc),
                                        (diffeo_check, diffeo_conc))
                   for text in texts]
    return {
        "inputs": {k: inputs[k] for k in sorted(inputs)},
        "checks": [c._asdict() for c in checks],
        "conclusions": conclusions if consistent else [],
        "consistent": consistent,
        "notes": notes,
    }


def render_topology_report(doc: dict) -> str:
    """Human-readable block of a build_topology_report document, one line
    per check plus conclusions."""
    lines = ["topology checks"]
    for key, val in doc["inputs"].items():
        lines.append(f"  input {key} = {val}")
    for c in doc["checks"]:
        lines.append(
            f"  [{c['verdict']:>8}] {c['name']}: {c['value']:.10g} {c['comparison']} "
            f"{c['threshold']:.10g} (margin {c['margin']:+.3e})"
            + (f"  -- {c['note']}" if c['note'] else "")
        )
    for note in doc["notes"]:
        lines.append(f"  note: {note}")
    if doc["conclusions"]:
        lines.append("  conclusions:")
        for c in doc["conclusions"]:
            lines.append(f"    - {c['statement']} [via {c['via']}]")
    else:
        lines.append("  conclusions: none")
    return "\n".join(lines)

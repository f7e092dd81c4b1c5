"""Fig. 3: the prototype demonstration.

Paper values: our scheme delivers 6 photos covering 346 degrees of the
target; PhotoNet delivers 12 covering 160; Spray&Wait 12 covering 171.
Shape asserted here: ours delivers the fewest photos, covers at least as
many aspects as Spray&Wait, and strictly more than PhotoNet; the
baselines are bounded by the 4-uplinks x 3-photos budget.
"""

from __future__ import annotations

from repro.experiments import fig3_demo

from bench_config import save_report

PAPER = {
    "our-scheme": (6, 346.0),
    "photonet": (12, 160.0),
    "spray-and-wait": (12, 171.0),
}


def test_fig3_demo():
    outcomes = fig3_demo.run(seed=0)

    ours = outcomes["our-scheme"]
    photonet = outcomes["photonet"]
    spray = outcomes["spray-and-wait"]

    # Shape claims from Section IV-B.
    assert ours.point_covered
    assert ours.delivered_photos <= min(photonet.delivered_photos, spray.delivered_photos)
    assert ours.aspect_coverage_deg >= spray.aspect_coverage_deg
    assert ours.aspect_coverage_deg > photonet.aspect_coverage_deg
    assert spray.delivered_photos <= 12
    assert photonet.delivered_photos <= 12

    lines = [fig3_demo.report(outcomes), "", "paper reference:"]
    for name, (delivered, degrees) in PAPER.items():
        lines.append(f"  {name:15s} {delivered:2d} photos  {degrees:5.0f} deg")
    save_report("fig3_demo", "\n".join(lines))

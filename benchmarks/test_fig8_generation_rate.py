"""Fig. 8: the effect of the photo-generation rate (a-c MIT, d-f Cambridge06).

Paper shape claims asserted per trace:

* our scheme improves as more photos are generated -- the larger candidate
  pool outweighs the extra contention, because selection filters it;
* Spray&Wait does not improve comparably (it cannot tell photos apart);
* panels (c)/(f): selective schemes deliver far fewer photos;
* the redundancy check from Section V-E: the aspect coverage achieved per
  delivered covering photo stays close to the ideal 2*theta arc, i.e. the
  delivered photos barely overlap.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig8
from repro.experiments.config import TRACE_CAMBRIDGE, TRACE_MIT

from bench_config import bench_runs, bench_scale, save_report

BENCH_RATES = (50.0, 150.0, 250.0)


@pytest.mark.parametrize("trace_name", [TRACE_MIT, TRACE_CAMBRIDGE])
def test_fig8_generation_rate(trace_name):
    scale, runs = bench_scale(), bench_runs()
    sweep = fig8.run(
        trace_name=trace_name,
        scale=scale,
        num_runs=runs,
        seed=0,
        rates=BENCH_RATES,
    )

    labels = [f"{rate:.0f}/h" for rate in BENCH_RATES]
    ours = [sweep[label]["our-scheme"] for label in labels]
    spray = [sweep[label]["spray-and-wait"] for label in labels]

    # Ours benefits from more candidate photos.
    assert ours[-1].point_coverage >= ours[0].point_coverage - 1e-9
    assert ours[-1].aspect_coverage_deg >= ours[0].aspect_coverage_deg - 1e-9

    # At the top rate, ours beats Spray&Wait clearly on both metrics.
    assert ours[-1].point_coverage >= spray[-1].point_coverage
    assert ours[-1].aspect_coverage_deg > spray[-1].aspect_coverage_deg

    # Panels (c)/(f): selective delivery.
    for label in labels:
        assert (
            sweep[label]["our-scheme"].delivered_photos
            < sweep[label]["spray-and-wait"].delivered_photos
        ), f"{trace_name} {label}"

    report = [
        f"(scale={scale}, runs={runs}, trace={trace_name})",
        fig8.report(sweep, trace_name=trace_name),
        "",
        "paper reference: ours/NoMetadata/ModifiedSpray improve with more "
        "generated photos; Spray&Wait fluctuates; ours delivers ~3.2 photos "
        "per PoI with only ~12 deg of overlap between them (Section V-E).",
    ]
    save_report(f"fig8_generation_rate_{trace_name}", "\n".join(report))

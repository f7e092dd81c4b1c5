"""Fig. 7: the effect of storage capacity (a-c MIT, d-f Cambridge06).

Paper shape claims asserted per trace:

* more storage does not hurt (and generally helps) our scheme and
  NoMetadata -- more replicas of useful photos survive;
* ModifiedSpray is comparatively flat in storage (its 4-copy limit binds);
* panels (c)/(f): our scheme and NoMetadata deliver far fewer photos than
  the spray baselines at every storage size.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig7
from repro.experiments.config import TRACE_CAMBRIDGE, TRACE_MIT

from bench_config import bench_runs, bench_scale, save_report

BENCH_STORAGE_GB = (0.2, 0.6, 1.0)


@pytest.mark.parametrize("trace_name", [TRACE_MIT, TRACE_CAMBRIDGE])
def test_fig7_storage(trace_name):
    scale, runs = bench_scale(), bench_runs()
    sweep = fig7.run(
        trace_name=trace_name,
        scale=scale,
        num_runs=runs,
        seed=0,
        storage_values=BENCH_STORAGE_GB,
    )

    labels = [f"{gb:.1f}GB" for gb in BENCH_STORAGE_GB]
    ours = [sweep[label]["our-scheme"] for label in labels]
    spray = [sweep[label]["spray-and-wait"] for label in labels]
    modified = [sweep[label]["modified-spray"] for label in labels]

    # More storage does not hurt ours (small tolerance for run noise).
    assert ours[-1].point_coverage >= ours[0].point_coverage - 0.08
    assert ours[-1].aspect_coverage_deg >= ours[0].aspect_coverage_deg - 10.0

    # Panels (c)/(f): selective schemes deliver far fewer photos.
    for label in labels:
        selective = sweep[label]["our-scheme"].delivered_photos
        blind = sweep[label]["spray-and-wait"].delivered_photos
        assert selective < blind, f"{trace_name} {label}"

    # ModifiedSpray flat-ish: its swing across storage stays small relative
    # to ours' (the 4-copy limit, not storage, binds it).
    modified_swing = abs(modified[-1].point_coverage - modified[0].point_coverage)
    assert modified_swing <= 0.35

    # Ours dominates the spray baselines at the reference 0.6 GB point.
    reference = sweep["0.6GB"]
    assert reference["our-scheme"].aspect_coverage_deg >= (
        reference["spray-and-wait"].aspect_coverage_deg
    )

    report = [
        f"(scale={scale}, runs={runs}, trace={trace_name})",
        fig7.report(sweep, trace_name=trace_name),
        "",
        "paper reference: coverage grows with storage for ours/NoMetadata; "
        "ModifiedSpray ~flat; ours/NoMetadata deliver orders of magnitude "
        "fewer photos (log-scale panels).",
    ]
    save_report(f"fig7_storage_{trace_name}", "\n".join(report))

"""Benches for the extension studies (beyond the paper's figures).

* Delivery latency percentiles per scheme -- operational relevance of the
  coverage-vs-volume trade-off.
* PoI-list dissemination delay -- the Section II-A spreading step the
  paper assumes instantaneous, measured.
"""

from __future__ import annotations

import math

from repro.experiments.dissemination_study import run_dissemination_study
from repro.experiments.latency_study import latency_report, run_latency_study

from bench_config import bench_runs, bench_scale, save_report


def test_latency_study():
    scale, runs = bench_scale(), bench_runs()
    summaries = run_latency_study(scale=scale, num_runs=runs, seed=0)
    ours = summaries["our-scheme"]
    spray = summaries["spray-and-wait"]
    # Selectivity: far fewer photos delivered for at least equal coverage.
    assert ours.delivered < spray.delivered
    assert ours.point_coverage >= spray.point_coverage - 1e-9
    if ours.delivered and spray.delivered:
        assert ours.p50_h <= ours.p90_h
    save_report(
        "extension_latency",
        f"(scale={scale}, runs={runs})\n" + latency_report(summaries),
    )


def test_dissemination_study():
    scale, runs = bench_scale(), bench_runs()
    outcome = run_dissemination_study(scale=scale, num_runs=runs, seed=0)
    # Delay can only cost coverage, never create it.
    for name in outcome.with_delay:
        assert outcome.coverage_cost(name) >= -1e-9
    # The epidemic list spread reaches at least half the nodes.
    assert outcome.informed_fraction >= 0.5
    lines = [
        f"(scale={scale}, runs={runs})",
        "PoI-list arrival quantiles (hours): "
        + ", ".join(
            f"{q:.0%}={'inf' if math.isinf(h) else f'{h:.1f}h'}"
            for q, h in outcome.arrival_quantiles_h.items()
        ),
        f"informed fraction: {outcome.informed_fraction:.2f}",
        "",
        "point coverage with-delay / without-delay (cost):",
    ]
    for name in outcome.with_delay:
        lines.append(
            f"  {name:15s} {outcome.with_delay[name].point_coverage:.3f} / "
            f"{outcome.without_delay[name].point_coverage:.3f} "
            f"({outcome.coverage_cost(name):.3f})"
        )
    save_report("extension_dissemination", "\n".join(lines))

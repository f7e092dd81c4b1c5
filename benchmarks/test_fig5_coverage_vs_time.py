"""Fig. 5: point and aspect coverage versus time, five schemes, MIT trace.

Paper shape claims asserted:

* BestPossible is the upper bound on both metrics;
* our scheme stays within a modest gap of it (paper: <= 10 % point,
  <= 17 % aspect at 150 h; we allow a looser band at reduced scale);
* NoMetadata <= ours; ModifiedSpray < ours; Spray&Wait is worst
  (paper: 49 % less point, 69 % less aspect coverage than ours at 150 h);
* coverage is non-decreasing in time for every scheme.
"""

from __future__ import annotations

from repro.experiments import fig5
from repro.experiments.runner import PAPER_SCHEMES

from bench_config import bench_runs, bench_scale, save_report


def test_fig5_coverage_vs_time():
    scale, runs = bench_scale(), bench_runs()
    results = fig5.run(scale=scale, num_runs=runs, seed=0, schemes=PAPER_SCHEMES)

    best = results["best-possible"]
    ours = results["our-scheme"]
    nometa = results["no-metadata"]
    modified = results["modified-spray"]
    spray = results["spray-and-wait"]

    # Upper bound.
    for result in results.values():
        assert result.point_coverage <= best.point_coverage + 1e-9
        assert result.aspect_coverage_deg <= best.aspect_coverage_deg + 1e-9

    # Ordering (the figure's headline).
    assert ours.point_coverage > spray.point_coverage
    assert ours.aspect_coverage_deg > spray.aspect_coverage_deg
    assert ours.aspect_coverage_deg >= modified.aspect_coverage_deg
    assert ours.aspect_coverage_deg >= nometa.aspect_coverage_deg - 1e-9
    assert modified.aspect_coverage_deg >= spray.aspect_coverage_deg - 1e-9

    # Ours tracks the bound within a factor (paper: within 10% / 17%).
    assert ours.point_coverage >= 0.5 * best.point_coverage
    # Spray&Wait trails ours by a wide margin (paper: ~49% / ~69% less).
    assert spray.aspect_coverage_deg <= 0.75 * ours.aspect_coverage_deg

    # Monotone time series.
    for name, result in results.items():
        series = result.point_series
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:])), name

    report = [
        f"(scale={scale}, runs={runs})",
        fig5.report(results),
        "",
        "paper reference at 150 h: ours ~0.70 point; gaps vs ours:",
        "  BestPossible +10% point / +17% aspect;",
        "  ModifiedSpray -26% point / -38% aspect;",
        "  Spray&Wait    -49% point / -69% aspect.",
        "measured gaps vs ours: "
        f"best {best.point_coverage / max(ours.point_coverage, 1e-9) - 1:+.0%} point, "
        f"modified {modified.point_coverage / max(ours.point_coverage, 1e-9) - 1:+.0%} point, "
        f"spray {spray.point_coverage / max(ours.point_coverage, 1e-9) - 1:+.0%} point / "
        f"{spray.aspect_coverage_deg / max(ours.aspect_coverage_deg, 1e-9) - 1:+.0%} aspect",
    ]
    save_report("fig5_coverage_vs_time", "\n".join(report))

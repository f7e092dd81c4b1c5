"""Ablation benches for the design choices DESIGN.md calls out.

Not part of the paper's figures, but each quantifies a knob the design
fixes: the Eq. 1 validity threshold, the effective angle, the cold-start
probability floor and gateway placement.
"""

from __future__ import annotations

from repro.experiments import ablations
from repro.experiments.report import format_comparison

from bench_config import bench_runs, bench_scale, save_report


def test_ablation_validity_threshold():
    scale, runs = bench_scale(), bench_runs()
    results = ablations.sweep_validity_threshold(scale=scale, num_runs=runs)
    for result in results.values():
        assert 0.0 <= result.point_coverage <= 1.0
    save_report(
        "ablation_pthld",
        f"(scale={scale}, runs={runs})\n"
        + format_comparison(results, title="Eq. 1 validity threshold P_thld"),
    )


def test_ablation_effective_angle():
    scale, runs = bench_scale(), bench_runs()
    results = ablations.sweep_effective_angle(scale=scale, num_runs=runs)
    # Wider effective angles credit more degrees per photo, so the raw
    # aspect metric grows with theta.
    thetas = sorted(results, key=lambda k: float(k.split("=")[1].rstrip("deg")))
    aspects = [results[k].aspect_coverage_deg for k in thetas]
    assert aspects[0] <= aspects[-1] + 1e-9
    save_report(
        "ablation_theta",
        f"(scale={scale}, runs={runs})\n"
        + format_comparison(results, title="effective angle theta"),
    )


def test_ablation_probability_floor():
    scale, runs = bench_scale(), bench_runs()
    results = ablations.sweep_probability_floor(scale=scale, num_runs=runs)
    # The paper-verbatim floor=0 must not beat the small-floor variant:
    # cold-start zero probabilities freeze early exchanges.
    zero = results["floor=0.0"]
    small = results["floor=0.02"]
    assert small.point_coverage >= zero.point_coverage - 0.05
    save_report(
        "ablation_floor",
        f"(scale={scale}, runs={runs})\n"
        + format_comparison(results, title="cold-start delivery-probability floor"),
    )


def test_ablation_gateway_placement():
    scale, runs = bench_scale(), bench_runs()
    results = ablations.compare_gateway_strategies(scale=scale, num_runs=runs)
    assert set(results) == {"random", "degree", "betweenness"}
    save_report(
        "ablation_gateways",
        f"(scale={scale}, runs={runs})\n"
        + format_comparison(results, title="gateway placement strategy"),
    )


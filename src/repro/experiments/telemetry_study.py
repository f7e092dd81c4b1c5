"""Telemetry study: an instrumented comparison run that emits a manifest.

This is the observability subsystem's end-to-end exercise: run a (small,
by default) Fig. 5-style comparison with :class:`~repro.obs.telemetry.
SimTelemetry` attached to every unit, aggregate the per-run snapshots
into a run manifest, and summarize the interesting internals as text --
where the simulation spends its wall-clock (selection vs expected-
coverage enumeration vs transfer), how hard the metadata cache works
(Eq. 1 hits vs expiries), how many bytes contacts actually move, and how
buffer pressure evolves.

The same plumbing backs the ``--telemetry`` flag of every engine-driven
CLI command; ``repro telemetry`` just packages it as a one-shot study.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .config import TRACE_MIT, ScenarioSpec
from .report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentEngine

__all__ = ["TELEMETRY_SCHEMES", "spec", "run_telemetry_study", "telemetry_report"]

#: Default schemes for the study: the paper's scheme plus one content-
#: blind baseline, enough to make the metric deltas meaningful without
#: paying for the full five-scheme panel.
TELEMETRY_SCHEMES: Sequence[str] = ("our-scheme", "spray-and-wait")


def spec(scale: float = 0.1, seed: int = 0) -> ScenarioSpec:
    """The study condition: the Fig. 5 setting at a small default scale."""
    return ScenarioSpec(
        trace_name=TRACE_MIT,
        storage_gb=0.6,
        photos_per_hour=250.0,
        scale=scale,
        seed=seed,
    )


def run_telemetry_study(
    scale: float = 0.1,
    num_runs: int = 1,
    seed: int = 0,
    schemes: Sequence[str] = TELEMETRY_SCHEMES,
    engine: Optional["ExperimentEngine"] = None,
    manifest_path: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Run the instrumented comparison and return the run manifest.

    Telemetry is forced on for the engine regardless of how it was
    configured (this study is pointless without it); *manifest_path*
    overrides the engine's destination when given.
    """
    from .engine import RunPlan, default_engine

    engine = engine or default_engine()
    engine.telemetry = True
    if manifest_path is not None:
        from pathlib import Path

        engine.manifest_path = Path(manifest_path)
    plan = RunPlan.comparison(spec(scale=scale, seed=seed), schemes, num_runs)
    engine.run(plan)
    assert engine.last_manifest is not None  # telemetry=True guarantees it
    return engine.last_manifest


def telemetry_report(manifest: Dict[str, Any]) -> str:
    """Summarize a run manifest as the text tables the CLI prints."""
    metrics = manifest.get("metrics", {})
    timings = manifest.get("timings", {})

    header = [
        f"plan {manifest.get('plan_hash', '')[:12]}  "
        f"schemes={','.join(manifest.get('schemes', []))}  "
        f"seeds={manifest.get('seeds', [])}",
        f"units: {len(manifest.get('units', []))} "
        f"({timings.get('executed_units', 0)} executed, "
        f"{timings.get('cached_units', 0)} cached), "
        f"total unit time {timings.get('total_unit_s', 0.0):.1f}s",
    ]

    profile_rows: List[List[str]] = []
    phases = metrics.get("repro_phase_seconds", {}).get("samples", [])
    for sample in sorted(phases, key=lambda s: s["labels"]["phase"]):
        timer = sample["value"]
        per_call = f"{1000.0 * timer['sum'] / timer['count']:.2f}ms" if timer["count"] else "-"
        profile_rows.append(
            [sample["labels"]["phase"], str(timer["count"]), f"{timer['sum']:.3f}s", per_call]
        )

    counter_rows: List[List[str]] = []
    for name, family in sorted(metrics.items()):
        if family.get("kind") != "counter":
            continue
        for sample in family.get("samples", []):
            labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            display = f"{name}{{{labels}}}" if labels else name
            counter_rows.append([display, f"{sample['value']:g}"])

    parts = header
    if profile_rows:
        parts += ["\nwall-clock profile (summed over units):",
                  format_table(["phase", "calls", "total", "per-call"], profile_rows)]
    if counter_rows:
        parts += ["\ncounters (summed over units):",
                  format_table(["counter", "value"], counter_rows)]

    curves = manifest.get("coverage_over_time", {})
    if curves:
        curve_rows = []
        for scheme, curve in sorted(curves.items()):
            if not curve:
                continue
            last = curve[-1]
            curve_rows.append([
                scheme, str(len(curve)), f"{last['point_coverage']:.3f}",
                f"{last['aspect_coverage_deg']:.0f}", f"{last['delivered']:g}",
            ])
        parts += ["\ncoverage over time (per scheme, first run):",
                  format_table(
                      ["scheme", "uplinks", "final point", "final aspect-deg", "delivered"],
                      curve_rows,
                  )]
    return "\n".join(parts)

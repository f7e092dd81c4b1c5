"""Experiment runner: scheme access, repetition, and averaging.

Every figure driver boils down to: build a scenario from a
:class:`~repro.experiments.config.ScenarioSpec`, run each scheme on it
over several seeds, and average the sample series.  The heavy lifting now
lives in :mod:`repro.experiments.engine` (run plans, worker pools, result
cache); this module keeps the single-run primitives and the averaging
they feed.

Scheme construction goes through the decorator registry in
:mod:`repro.routing.registry` -- ``create_scheme(spec)`` with the shared
``"name:k=v"`` spec grammar; enumerate with ``scheme_names()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..dtn.simulator import Simulation, SimulationConfig, SimulationResult
from ..routing import create_scheme
from .config import Scenario, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.telemetry import SimTelemetry

__all__ = [
    "PAPER_SCHEMES",
    "AveragedResult",
    "run_spec",
    "run_scenario",
    "average_results",
]

#: The five schemes compared in Fig. 5-8, in the paper's legend order.
PAPER_SCHEMES: Sequence[str] = (
    "best-possible",
    "our-scheme",
    "no-metadata",
    "modified-spray",
    "spray-and-wait",
)


@dataclass
class AveragedResult:
    """Per-scheme averages over repeated runs of one scenario condition."""

    scheme: str
    runs: int
    point_coverage: float
    aspect_coverage_deg: float
    delivered_photos: float
    sample_times: List[float] = field(default_factory=list)
    point_series: List[float] = field(default_factory=list)
    aspect_series_deg: List[float] = field(default_factory=list)
    delivered_series: List[float] = field(default_factory=list)


def run_spec(
    spec: ScenarioSpec,
    scheme_name: str,
    telemetry: Optional["SimTelemetry"] = None,
) -> SimulationResult:
    """One run: build the spec's scenario and run the named scheme on it.

    *telemetry* is an optional :class:`~repro.obs.telemetry.SimTelemetry`
    that observes the run; it never affects the result (simulations are
    byte-identical with or without it).
    """
    scenario = spec.build()
    return run_scenario(scenario, scheme_name, telemetry=telemetry)


def _best_possible_config(config: SimulationConfig) -> SimulationConfig:
    """The upper bound's config: resource limits lifted, all else kept.

    ``dataclasses.replace`` (rather than a hand-copied constructor call)
    means newly added config fields -- fault plans, future knobs -- can
    never be silently dropped from the bound.
    """
    return replace(
        config,
        storage_bytes=None,
        unlimited_contacts=True,
        contact_duration_cap_s=None,
    )


def run_scenario(
    scenario: Scenario,
    scheme_name: str,
    telemetry: Optional["SimTelemetry"] = None,
) -> SimulationResult:
    """Run the named scheme on an already materialized scenario."""
    scheme = create_scheme(scheme_name)
    config = scenario.config
    if scheme_name == "best-possible":
        config = _best_possible_config(config)
    simulation = Simulation(
        trace=scenario.trace,
        pois=scenario.pois,
        photo_arrivals=scenario.photo_arrivals,
        scheme=scheme,
        config=config,
        gateway_ids=scenario.gateway_ids,
        end_time_s=scenario.end_time_s,
        telemetry=telemetry,
    )
    return simulation.run()


def average_results(results: Sequence[SimulationResult]) -> AveragedResult:
    """Average final metrics and sample series over repeated runs.

    Runs may have slightly different numbers of samples (traces end at
    different instants); series are averaged over the shortest common
    prefix.
    """
    if not results:
        raise ValueError("no results to average")
    runs = len(results)
    common = min(len(r.samples) for r in results)
    times = [results[0].samples[i].time for i in range(common)]
    point_series = [
        sum(r.samples[i].point_coverage for r in results) / runs for i in range(common)
    ]
    aspect_series = [
        sum(r.samples[i].aspect_coverage_deg for r in results) / runs for i in range(common)
    ]
    delivered_series = [
        sum(r.samples[i].delivered_photos for r in results) / runs for i in range(common)
    ]
    return AveragedResult(
        scheme=results[0].scheme,
        runs=runs,
        point_coverage=sum(r.final_point_coverage for r in results) / runs,
        aspect_coverage_deg=sum(r.final_aspect_coverage_deg for r in results) / runs,
        delivered_photos=sum(r.delivered_photos for r in results) / runs,
        sample_times=times,
        point_series=point_series,
        aspect_series_deg=aspect_series,
        delivered_series=delivered_series,
    )


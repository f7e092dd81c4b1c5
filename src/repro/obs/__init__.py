"""Observability: metrics registry, simulation telemetry, and manifests.

Two layers, composable and individually usable:

* :mod:`repro.obs.registry` -- a dependency-free, Prometheus-shaped
  metrics registry (counters, gauges, histograms, timers; labeled
  children; JSON and Prometheus-text export).
* :mod:`repro.obs.telemetry` -- :class:`~repro.obs.telemetry.SimTelemetry`,
  the hook set the DTN simulator, core algorithms, and metadata cache
  feed, including the per-phase wall-clock breakdown (selection vs
  expected-coverage enumeration vs transfer scheduling) as the
  ``repro_phase_seconds`` timer family; plus the
  :class:`~repro.obs.telemetry.SimulationObserver` protocol shared with
  the structured event log.

:mod:`repro.obs.manifest` aggregates all of it across an experiment
engine run plan into a ``manifest.json``, and validates that and the
service-session and load-report manifests against one schema per kind.

Enable from the CLI with ``--telemetry`` on any engine-backed command,
inspect with ``repro metrics <manifest.json>``, or programmatically::

    from repro.obs import SimTelemetry
    from repro.experiments.runner import run_spec

    telemetry = SimTelemetry()
    result = run_spec(spec, "our-scheme", telemetry=telemetry)
    print(telemetry.registry.to_prometheus())

Off is ``telemetry=None``, the default everywhere: each hook site then
costs one global read and a ``None`` check (:mod:`repro.obs.runtime`).
"""

from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    SERVICE_MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    build_service_manifest,
    ensure_valid_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    registry_from_snapshot,
)
from .runtime import activated, active_telemetry
from .telemetry import TELEMETRY_SCHEMA_VERSION, SimTelemetry, SimulationObserver

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "registry_from_snapshot",
    "SimTelemetry",
    "SimulationObserver",
    "TELEMETRY_SCHEMA_VERSION",
    "activated",
    "active_telemetry",
    "ManifestError",
    "MANIFEST_SCHEMA_VERSION",
    "SERVICE_MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "build_service_manifest",
    "load_manifest",
    "ensure_valid_manifest",
    "validate_manifest",
    "write_manifest",
]

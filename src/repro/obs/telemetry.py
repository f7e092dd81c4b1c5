"""Simulation telemetry: the hook set wired through the DTN substrate.

:class:`SimTelemetry` owns a :class:`~repro.obs.registry.MetricsRegistry`
and exposes one narrow method per instrumented event.  The simulator, the
routing base, the selection and transfer algorithms, and the metadata
cache call these hooks -- either directly (the simulator holds a
reference) or via :func:`repro.obs.runtime.active_telemetry` (the pure
core functions).

What it records, mapped to the paper:

* per-contact bytes transferred vs truncated (Section III-D's bandwidth
  constraint in action),
* photos offered vs accepted vs dropped per transfer plan,
* greedy-selection iterations and gain evaluations (the cost of
  problem (3)),
* metadata-cache hits / misses / expiries -- the Eq. 1 validity check,
* per-node buffer occupancy over time (storage pressure),
* the command center's coverage sampled at every gateway uplink,
* fault activations (:class:`~repro.dtn.faults.FaultCounters`) folded
  into the registry at the end of a run,
* the wall-clock split between the scheme's three phases -- greedy
  selection, expected-coverage enumeration and transfer scheduling
  (Section III-D) -- as the timer family
  ``repro_phase_seconds{phase=selection|expected_coverage|transfer}``.

Telemetry has one off switch: pass no telemetry (``telemetry=None``).
Every hook site then costs one global read and a ``None`` check (see
:mod:`repro.obs.runtime`).

:class:`SimulationObserver` is the shared wiring-point protocol: anything
that wants the per-event effect stream (the structured
:class:`~repro.dtn.tracelog.SimulationLog` entries) implements
``on_log_entry``; ``attach_logging`` fans each entry out to the log and
to every registered observer, so the event log and the metrics pipeline
are fed from one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Protocol, runtime_checkable

from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dtn.simulator import SimulationResult
    from ..dtn.tracelog import LogEntry

__all__ = ["SimulationObserver", "SimTelemetry", "TELEMETRY_SCHEMA_VERSION"]

#: Version of the :meth:`SimTelemetry.snapshot` payload shape.
#: v2: the ``profile`` block is gone; phase timings live in the
#: ``repro_phase_seconds`` timer family of ``metrics``.
TELEMETRY_SCHEMA_VERSION = 2


@runtime_checkable
class SimulationObserver(Protocol):
    """Anything that consumes the simulation's per-event effect stream."""

    def on_log_entry(self, entry: "LogEntry") -> None:
        """One simulation event's observable effects (see tracelog)."""


class SimTelemetry:
    """The instrumentation sink one simulation run feeds.

    Each instance owns a fresh :class:`~repro.obs.registry.MetricsRegistry`.
    To run without telemetry, pass none (``telemetry=None``) rather than
    building one.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

        r = self.registry
        self._contacts = r.counter(
            "repro_contacts_total", "Contacts dispatched, by kind (contact|uplink)"
        )
        self._photos_created = r.counter(
            "repro_photos_created_total", "Photos taken by participants"
        )
        self._transfer_photos = r.counter(
            "repro_transfer_photos_total",
            "Per-plan photo outcomes (offered|accepted|corrupted|skipped_no_room)",
        )
        self._transfer_bytes = r.counter(
            "repro_transfer_bytes_total",
            "Contact bytes, by fate (delivered|corrupted|truncated)",
        )
        self._contacts_truncated = r.counter(
            "repro_contacts_truncated_total",
            "Contacts whose transfer plan was cut short by the byte budget",
        )
        self._selection_iterations = r.counter(
            "repro_selection_iterations_total", "Greedy selection loop iterations"
        )
        self._selection_gain_evals = r.counter(
            "repro_selection_gain_evaluations_total",
            "Expected-coverage gain evaluations during selection",
        )
        self._selection_selected = r.counter(
            "repro_selection_photos_selected_total", "Photos committed by greedy selection"
        )
        self._selection_evaluators = r.counter(
            "repro_selection_evaluator_total",
            "Greedy selections run",
        )
        self._cache_events = r.counter(
            "repro_metadata_cache_events_total",
            "Metadata cache activity (hit|miss_expired|purged|store|merge_update), Eq. 1",
        )
        self._encounters = r.counter(
            "repro_prophet_encounters_total", "Node-pair encounters (contacts of kind=contact)"
        )
        self._log_events = r.counter(
            "repro_log_events_total",
            "Observed photo movements from the event log (gained|lost|delivered)",
        )
        self._fault_events = r.counter(
            "repro_fault_events_total", "Fault-injection activations, by fault counter"
        )
        self._delivered = r.gauge(
            "repro_delivered_photos", "Photos at the command center at run end"
        )
        self._created = r.gauge("repro_created_photos", "Photos created over the run")
        self._point_coverage = r.gauge(
            "repro_final_point_coverage", "Final normalized point coverage"
        )
        self._aspect_coverage = r.gauge(
            "repro_final_aspect_coverage_deg", "Final mean aspect coverage (degrees)"
        )
        self._selection_pool = r.histogram(
            "repro_selection_pool_size",
            "Selection pool sizes per greedy_select call",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        )
        self._phases = r.timer(
            "repro_phase_seconds",
            "Wall-clock time per phase (selection|expected_coverage|transfer)",
        )

        #: ``[{time, mean_fraction, max_fraction, used_bytes, nodes}]`` --
        #: storage pressure sampled at every SAMPLE event.
        self.buffer_occupancy: List[Dict[str, float]] = []
        #: ``[{time, point_coverage, aspect_coverage_deg, delivered}]`` --
        #: the command center's coverage observed at every gateway uplink.
        self.coverage_curve: List[Dict[str, float]] = []
        self.scheme: Optional[str] = None

    # ------------------------------------------------------------------
    # Simulator-level hooks
    # ------------------------------------------------------------------

    def on_contact(self, kind: str) -> None:
        self._contacts.labels(kind=kind).inc()
        if kind == "contact":
            self._encounters.inc()

    def on_photo_created(self) -> None:
        self._photos_created.inc()

    def on_buffer_sample(self, time: float, nodes: Iterable[Any]) -> None:
        """Aggregate per-node storage occupancy at one sample instant."""
        fractions: List[float] = []
        used_total = 0
        for node in nodes:
            storage = node.storage
            used_total += storage.used_bytes
            if storage.capacity_bytes:
                fractions.append(storage.used_bytes / storage.capacity_bytes)
        if fractions:
            mean_fraction = sum(fractions) / len(fractions)
            max_fraction = max(fractions)
        else:
            mean_fraction = max_fraction = 0.0
        self.buffer_occupancy.append(
            {
                "time": time,
                "mean_fraction": mean_fraction,
                "max_fraction": max_fraction,
                "used_bytes": used_total,
                "nodes": len(fractions),
            }
        )

    def on_uplink_coverage(
        self, time: float, point_coverage: float, aspect_coverage_deg: float, delivered: int
    ) -> None:
        self.coverage_curve.append(
            {
                "time": time,
                "point_coverage": point_coverage,
                "aspect_coverage_deg": aspect_coverage_deg,
                "delivered": delivered,
            }
        )

    # ------------------------------------------------------------------
    # Algorithm hooks (reached via repro.obs.runtime)
    # ------------------------------------------------------------------

    def on_selection(
        self,
        pool_size: int,
        iterations: int,
        gain_evaluations: int,
        selected: int,
        elapsed_s: float,
        enumeration_s: float,
    ) -> None:
        self._selection_iterations.inc(iterations)
        self._selection_gain_evals.inc(gain_evaluations)
        self._selection_selected.inc(selected)
        self._selection_evaluators.inc()
        self._selection_pool.observe(pool_size)
        self._phases.labels(phase="selection").observe(elapsed_s)
        self._phases.labels(phase="expected_coverage").observe(enumeration_s)

    def on_transfer_outcome(
        self,
        offered: int,
        accepted: int,
        corrupted: int,
        skipped_no_room: int,
        bytes_delivered: int,
        bytes_corrupted: int,
        bytes_truncated: int,
        truncated: bool,
        elapsed_s: float,
    ) -> None:
        photos = self._transfer_photos
        photos.labels(outcome="offered").inc(offered)
        photos.labels(outcome="accepted").inc(accepted)
        photos.labels(outcome="corrupted").inc(corrupted)
        photos.labels(outcome="skipped_no_room").inc(skipped_no_room)
        tbytes = self._transfer_bytes
        tbytes.labels(fate="delivered").inc(bytes_delivered)
        tbytes.labels(fate="corrupted").inc(bytes_corrupted)
        tbytes.labels(fate="truncated").inc(bytes_truncated)
        if truncated:
            self._contacts_truncated.inc()
        self._phases.labels(phase="transfer").observe(elapsed_s)

    def on_cache_event(self, event: str, count: int = 1) -> None:
        if count:
            self._cache_events.labels(event=event).inc(count)

    # ------------------------------------------------------------------
    # Shared wiring point with the event log
    # ------------------------------------------------------------------

    def on_log_entry(self, entry: "LogEntry") -> None:
        """Fold one tracelog entry into the movement counters."""
        gained = sum(len(ids) for ids in entry.gained.values())
        lost = sum(len(ids) for ids in entry.lost.values())
        if gained:
            self._log_events.labels(effect="gained").inc(gained)
        if lost:
            self._log_events.labels(effect="lost").inc(lost)
        if entry.delivered:
            self._log_events.labels(effect="delivered").inc(len(entry.delivered))

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finalize(self, result: "SimulationResult") -> None:
        """Fold a finished run's result into the registry.

        Records the end-state gauges and -- closing the loop the
        robustness study used to drop -- every per-fault activation count
        as ``repro_fault_events_total{fault=...}``.
        """
        self.scheme = result.scheme
        self._delivered.set(result.delivered_photos)
        self._created.set(result.created_photos)
        if result.samples:
            self._point_coverage.set(result.samples[-1].point_coverage)
            self._aspect_coverage.set(result.samples[-1].aspect_coverage_deg)
        for fault, count in result.fault_counters.as_dict().items():
            if count:
                self._fault_events.labels(fault=fault).inc(count)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything this run recorded, as one JSON-serializable dict."""
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "scheme": self.scheme,
            "metrics": self.registry.snapshot(),
            "buffer_occupancy": list(self.buffer_occupancy),
            "coverage_curve": list(self.coverage_curve),
        }

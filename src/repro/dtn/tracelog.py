"""Structured event logging for simulation runs.

For debugging a scheme or auditing a result, a coverage curve is not
enough -- you want to see *which* photo moved *where* and *why it was
dropped*.  :class:`SimulationLog` is an opt-in recorder a scheme (or test)
can attach to; it collects typed entries and answers queries over them.

The built-in schemes do not log by default (hot path); the recorder is
wired in by wrapping scheme callbacks via :func:`attach_logging`, which
records the observable effects (storage deltas and deliveries) around
every event without the schemes knowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.telemetry import SimulationObserver
from ..routing.base import RoutingScheme

__all__ = ["LogEntry", "SimulationLog", "attach_logging"]


@dataclass(frozen=True)
class LogEntry:
    """One recorded simulation event."""

    time: float
    kind: str  # "photo-created" | "contact" | "uplink"
    nodes: Sequence[int]
    gained: Dict[int, List[int]]  # node -> photo ids gained
    lost: Dict[int, List[int]]  # node -> photo ids lost
    delivered: List[int]  # photo ids newly at the command center


class SimulationLog:
    """An append-only collection of :class:`LogEntry` with queries.

    Implements the :class:`~repro.obs.telemetry.SimulationObserver`
    protocol (``on_log_entry``), so the log itself is just one observer
    among possibly many on the shared :func:`attach_logging` wiring point.
    """

    def __init__(self) -> None:
        self.entries: List[LogEntry] = []

    def append(self, entry: LogEntry) -> None:
        self.entries.append(entry)

    def on_log_entry(self, entry: LogEntry) -> None:
        """:class:`SimulationObserver` hook; alias of :meth:`append`."""
        self.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def transfers_of(self, photo_id: int) -> List[LogEntry]:
        """Every event in which *photo_id* changed hands."""
        return [
            entry
            for entry in self.entries
            if any(photo_id in ids for ids in entry.gained.values())
            or any(photo_id in ids for ids in entry.lost.values())
            or photo_id in entry.delivered
        ]

    def delivery_path(self, photo_id: int) -> List[int]:
        """The sequence of nodes that held *photo_id*, in gain order."""
        path: List[int] = []
        for entry in self.entries:
            for node, ids in entry.gained.items():
                if photo_id in ids:
                    path.append(node)
            if photo_id in entry.delivered:
                path.append(0)
        return path


class _LoggingScheme(RoutingScheme):
    """Wraps another scheme, recording storage deltas around each event.

    Every recorded :class:`LogEntry` is fanned out to all registered
    :class:`~repro.obs.telemetry.SimulationObserver`\\ s -- the log itself
    plus e.g. a :class:`~repro.obs.telemetry.SimTelemetry` -- so the event
    log and the metrics pipeline share one wiring point.
    """

    def __init__(
        self,
        inner: RoutingScheme,
        log: SimulationLog,
        observers: Sequence[SimulationObserver] = (),
    ) -> None:
        super().__init__()
        self.inner = inner
        self.log = log
        self.observers: Tuple[SimulationObserver, ...] = (log, *observers)
        self.name = inner.name

    def bind(self, sim) -> None:
        super().bind(sim)
        self.inner.bind(sim)

    def _snapshot(self, nodes) -> Dict[int, set]:
        return {node.node_id: set(node.storage.photo_ids()) for node in nodes}

    def _delivered_snapshot(self) -> set:
        return set(self.sim.command_center.storage.photo_ids())

    def _record(self, kind: str, now: float, nodes, before, delivered_before) -> None:
        gained: Dict[int, List[int]] = {}
        lost: Dict[int, List[int]] = {}
        for node in nodes:
            after = set(node.storage.photo_ids())
            plus = sorted(after - before[node.node_id])
            minus = sorted(before[node.node_id] - after)
            if plus:
                gained[node.node_id] = plus
            if minus:
                lost[node.node_id] = minus
        delivered = sorted(self._delivered_snapshot() - delivered_before)
        entry = LogEntry(
            time=now,
            kind=kind,
            nodes=[node.node_id for node in nodes],
            gained=gained,
            lost=lost,
            delivered=delivered,
        )
        for observer in self.observers:
            observer.on_log_entry(entry)

    def on_photo_created(self, node, photo, now: float) -> None:
        before = self._snapshot([node])
        delivered_before = self._delivered_snapshot()
        self.inner.on_photo_created(node, photo, now)
        self._record("photo-created", now, [node], before, delivered_before)

    def on_contact(self, node_a, node_b, now: float, duration: float) -> None:
        before = self._snapshot([node_a, node_b])
        delivered_before = self._delivered_snapshot()
        self.inner.on_contact(node_a, node_b, now, duration)
        self._record("contact", now, [node_a, node_b], before, delivered_before)

    def on_command_center_contact(self, node, center, now: float, duration: float) -> None:
        before = self._snapshot([node])
        delivered_before = self._delivered_snapshot()
        self.inner.on_command_center_contact(node, center, now, duration)
        self._record("uplink", now, [node], before, delivered_before)


def attach_logging(
    scheme: RoutingScheme,
    log: Optional[SimulationLog] = None,
    observers: Sequence[SimulationObserver] = (),
):
    """Wrap *scheme* so every event's observable effects land in a log.

    Returns ``(wrapped_scheme, log)``; pass the wrapped scheme to
    :class:`~repro.dtn.simulator.Simulation` in place of the original.

    *observers* are additional :class:`~repro.obs.telemetry.
    SimulationObserver` sinks (e.g. a :class:`~repro.obs.telemetry.
    SimTelemetry`) notified of every entry the log records -- the single
    wiring point shared by the event log and the metrics pipeline::

        telemetry = SimTelemetry()
        wrapped, log = attach_logging(scheme, observers=(telemetry,))
        Simulation(..., scheme=wrapped, telemetry=telemetry).run()
    """
    log = log if log is not None else SimulationLog()
    return _LoggingScheme(scheme, log, observers), log

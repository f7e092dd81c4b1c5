"""The discrete-event DTN crowdsourcing simulator.

Wires together the substrate (nodes, storage, traces, workload) and a
pluggable routing scheme, and records the command center's coverage over
time -- the quantity every figure of Section V plots.

Time is in seconds from the start of the run.  The command center is node
``COMMAND_CENTER_ID`` (0); contacts that involve it (gateway uplinks) are
dispatched to the scheme's :meth:`~repro.routing.base.RoutingScheme.
on_command_center_contact` callback, everything else to
:meth:`~repro.routing.base.RoutingScheme.on_contact`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.coverage import DEFAULT_EFFECTIVE_ANGLE, CoverageValue
from ..core.coverage_index import CoverageIndex, PoICoverageState
from ..core.metadata import Photo
from ..core.poi import PoIList
from ..metadata_mgmt.intercontact import DEFAULT_VALIDITY_THRESHOLD
from ..obs.runtime import activated
from ..obs.telemetry import SimTelemetry
from ..routing.base import RoutingScheme
from ..routing.prophet import ProphetParameters
from ..traces.model import ContactTrace
from ..workload.photos import PhotoArrival
from .events import Event, EventKind, EventQueue
from .faults import FaultCounters, FaultInjector, FaultPlan
from .node import COMMAND_CENTER_ID, CommandCenter, DTNNode

__all__ = ["SimulationConfig", "SampleRecord", "SimulationResult", "Simulation", "nearest_rank"]

GIGABYTE = 1024**3
MEGABYTE = 1024**2


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs shared by every scheme (Table I defaults).

    ``unlimited_contacts=True`` removes the bandwidth constraint entirely
    (contacts always complete), which is how the long-duration baseline of
    Fig. 6 and the BestPossible scheme are configured.

    ``fault_plan`` attaches the deterministic fault-injection layer (see
    :mod:`repro.dtn.faults`); ``None`` or an all-zero plan leaves the
    simulation byte-identical to the fault-free code path.
    """

    storage_bytes: Optional[int] = int(0.6 * GIGABYTE)
    bandwidth_bytes_per_s: float = 2.0 * MEGABYTE
    unlimited_contacts: bool = False
    contact_duration_cap_s: Optional[float] = None
    effective_angle: float = DEFAULT_EFFECTIVE_ANGLE
    validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD
    prophet: ProphetParameters = ProphetParameters()
    sample_interval_s: float = 10.0 * 3600.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.storage_bytes is not None and self.storage_bytes <= 0:
            raise ValueError(f"storage must be positive or None, got {self.storage_bytes}")
        if self.bandwidth_bytes_per_s <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_bytes_per_s}")
        if self.sample_interval_s <= 0.0:
            raise ValueError(f"sample interval must be positive, got {self.sample_interval_s}")


@dataclass(frozen=True)
class SampleRecord:
    """Command-center coverage observed at one sample instant."""

    time: float
    point_coverage: float  # normalized: fraction of total PoI weight
    aspect_coverage_deg: float  # mean covered degrees per PoI
    delivered_photos: int


@dataclass
class SimulationResult:
    """Everything one run produces."""

    scheme: str
    samples: List[SampleRecord] = field(default_factory=list)
    final_coverage: CoverageValue = CoverageValue.ZERO
    delivered_photos: int = 0
    created_photos: int = 0
    contacts_processed: int = 0
    center_contacts: int = 0
    delivery_latencies_s: List[float] = field(default_factory=list)
    fault_counters: FaultCounters = field(default_factory=FaultCounters)

    @property
    def final_point_coverage(self) -> float:
        return self.samples[-1].point_coverage if self.samples else 0.0

    @property
    def final_aspect_coverage_deg(self) -> float:
        return self.samples[-1].aspect_coverage_deg if self.samples else 0.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *values* by the nearest-rank rule.

    The rank is ``round(q * (n - 1))`` into the sorted values; ``nan``
    when *values* is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


class Simulation:
    """One simulation run: a trace, a workload, a scheme, a config."""

    def __init__(
        self,
        trace: ContactTrace,
        pois: PoIList,
        photo_arrivals: Sequence[PhotoArrival],
        scheme: RoutingScheme,
        config: SimulationConfig = SimulationConfig(),
        gateway_ids: Iterable[int] = (),
        end_time_s: Optional[float] = None,
        telemetry: Optional[SimTelemetry] = None,
    ) -> None:
        self.config = config
        #: Optional instrumentation sink (see :mod:`repro.obs`).  ``None``
        #: keeps the run on the uninstrumented fast path -- results are
        #: byte-identical either way, telemetry only observes.
        self.telemetry = telemetry
        self.pois = pois
        self.index = CoverageIndex(pois, effective_angle=config.effective_angle)
        self.command_center = CommandCenter()
        self.scheme = scheme
        self.scratch: Dict[str, Any] = {}
        gateways = set(gateway_ids)

        participant_ids = set(trace.node_ids()) | {a.owner_id for a in photo_arrivals}
        participant_ids.discard(COMMAND_CENTER_ID)
        self.nodes: Dict[int, DTNNode] = {
            node_id: DTNNode(
                node_id=node_id,
                storage_bytes=config.storage_bytes,
                is_gateway=node_id in gateways,
                prophet_params=config.prophet,
                validity_threshold=config.validity_threshold,
            )
            for node_id in sorted(participant_ids)
        }

        self._cc_coverage = PoICoverageState(self.index)
        # Arrivals ride the queue's time-sorted lane, not the heap.
        self._queue = EventQueue(photo_arrivals)
        self._end_time = end_time_s if end_time_s is not None else max(
            trace.end_time, max((a.time for a in photo_arrivals), default=0.0)
        )

        self.result = SimulationResult(scheme=scheme.name)
        self.faults: Optional[FaultInjector] = None
        self._bandwidth_scale = 1.0
        if config.fault_plan is not None and not config.fault_plan.is_zero:
            self.faults = FaultInjector(config.fault_plan, self.result.fault_counters)
            for node in self.nodes.values():
                node.faults = self.faults

        for contact in trace:
            start = contact.start
            duration = contact.duration
            if config.contact_duration_cap_s is not None:
                duration = min(duration, config.contact_duration_cap_s)
            if self.faults is None:
                payload = (contact.node_a, contact.node_b, duration)
            else:
                perturbed = self.faults.perturb_contact(start, duration)
                if perturbed is None:
                    continue
                start, duration, multiplier = perturbed
                payload = (contact.node_a, contact.node_b, duration, multiplier)
            self._queue.push(Event(start, EventKind.CONTACT, payload))
        if self.faults is not None:
            for crash in self.faults.crash_schedule(sorted(self.nodes), self._end_time):
                self._queue.push(
                    Event(crash.time, EventKind.NODE_CRASH, (crash.node_id, crash.restart_time))
                )
        sample_time = config.sample_interval_s
        while sample_time < self._end_time:
            self._queue.push(Event(sample_time, EventKind.SAMPLE))
            sample_time += config.sample_interval_s
        self._queue.push(Event(self._end_time, EventKind.END))

        self._now = 0.0
        scheme.bind(self)

    # ------------------------------------------------------------------
    # Services for routing schemes
    # ------------------------------------------------------------------

    def byte_budget(self, duration_s: float) -> Optional[int]:
        """How many bytes fit in a contact of *duration_s* seconds.

        During a fault-injected contact the configured bandwidth is scaled
        by that contact's jitter multiplier (1.0 without faults).
        """
        if self.config.unlimited_contacts:
            return None
        return int(duration_s * self.config.bandwidth_bytes_per_s * self._bandwidth_scale)

    def transfer_survives(self, photo: Optional[Photo] = None) -> bool:
        """Whether one photo transmission arrives intact.

        Routing schemes consult this per transmitted photo; a ``False``
        means the bytes were spent but the photo arrived corrupted and must
        be discarded.  Always ``True`` (with no randomness drawn) when no
        fault plan is active.
        """
        if self.faults is None:
            return True
        return self.faults.transfer_survives()

    @property
    def transfers_can_fail(self) -> bool:
        """Whether :meth:`transfer_survives` draws a random number per call.

        When False it returns True without touching any state, so a
        routing loop may skip calling it without changing the run.
        """
        return self.faults is not None and self.faults.plan.transfer_drop_probability > 0.0

    def deliver(self, photo: Photo) -> bool:
        """Hand *photo* to the command center; returns False on duplicate."""
        if self.command_center.receive(photo):
            self._cc_coverage.add_photo(photo)
            self.result.delivery_latencies_s.append(max(0.0, self._now - photo.taken_at))
            return True
        return False

    def uplink(self, photos: Iterable[Photo], duration_s: float) -> List[Photo]:
        """Send *photos* to the command center, in order, over an uplink of
        *duration_s* seconds; returns the photos that arrived intact.

        Sending stops at the first photo that no longer fits the contact's
        :meth:`byte_budget`.  A corrupted photo still spends its bytes; each
        intact one is handed to :meth:`deliver`.
        """
        budget = self.byte_budget(duration_s)
        used = 0
        arrived: List[Photo] = []
        for photo in photos:
            if budget is not None and used + photo.size_bytes > budget:
                break
            used += photo.size_bytes
            if not self.transfer_survives(photo):
                continue  # corrupted in flight: bytes spent, nothing delivered
            self.deliver(photo)
            arrived.append(photo)
        return arrived

    def center_coverage(self) -> CoverageValue:
        """The command center's current (un-normalized) photo coverage."""
        return self._cc_coverage.total()

    def incidences(self, photo: Photo):
        return self.index.incidences(photo)

    # ------------------------------------------------------------------
    # Event handlers (the contact-handling seam)
    #
    # The event loop below and the always-on service mode
    # (:mod:`repro.service`) drive the exact same handlers, which is what
    # makes a selection served live byte-identical to the one the
    # simulator produces for the same pool and seed.
    # ------------------------------------------------------------------

    def ensure_node(self, node_id: int) -> DTNNode:
        """Get-or-create the participant *node_id*.

        The simulator pre-creates every node from the trace; service mode
        has no trace, so nodes materialize on their first request.  Node
        construction is independent of creation order, keeping live and
        simulated runs equivalent.
        """
        node = self.nodes.get(node_id)
        if node is None:
            node = DTNNode(
                node_id=node_id,
                storage_bytes=self.config.storage_bytes,
                prophet_params=self.config.prophet,
                validity_threshold=self.config.validity_threshold,
            )
            if self.faults is not None:
                node.faults = self.faults
            self.nodes[node_id] = node
        return node

    def crash_node(self, node_id: int) -> bool:
        """Crash participant *node_id* under the fault plan; returns False
        (and does nothing) for an unknown or already-crashed node.

        The plan's storage-loss draw picks the photos that survive, and
        ``cache_loss_on_crash`` decides whether protocol state is wiped.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return False
        assert self.faults is not None
        node.crash(
            surviving_photos=self.faults.surviving_photos(node.storage.photos()),
            wipe_protocol_state=self.config.fault_plan.cache_loss_on_crash,
        )
        self.result.fault_counters.crashes += 1
        return True

    def restart_node(self, node_id: int) -> None:
        """Bring crashed participant *node_id* back up (no-op otherwise)."""
        node = self.nodes.get(node_id)
        if node is None or node.alive:
            return
        node.restart()
        self.result.fault_counters.restarts += 1

    def handle_photo_created(self, owner_id: int, photo: Photo, now: float) -> bool:
        """A participant takes *photo* at *now*; returns True if dispatched.

        Unknown owners are ignored (malformed traces tolerated), photos
        taken while the owner is crashed are counted as missed.
        """
        self._now = now
        node = self.nodes.get(owner_id)
        if node is None:
            return False
        if not node.alive:
            self.result.fault_counters.photos_missed_while_down += 1
            return False
        self.result.created_photos += 1
        if self.telemetry is not None:
            self.telemetry.on_photo_created()
        self.scheme.on_photo_created(node, photo, now)
        return True

    def handle_contact(
        self,
        node_a_id: int,
        node_b_id: int,
        now: float,
        duration: float,
        bandwidth_scale: float = 1.0,
    ) -> bool:
        """Dispatch one contact (node-node or gateway uplink) to the scheme.

        Returns True if the scheme saw the contact, False if it was
        skipped (self-contact, unknown or crashed participant).
        """
        self._now = now
        tel = self.telemetry
        counters = self.result.fault_counters
        self._bandwidth_scale = bandwidth_scale
        try:
            if node_a_id == node_b_id:
                # A node never meets itself; tolerate malformed input.
                return False
            if COMMAND_CENTER_ID in (node_a_id, node_b_id):
                participant_id = node_b_id if node_a_id == COMMAND_CENTER_ID else node_a_id
                node = self.nodes.get(participant_id)
                if node is None:
                    return False
                if not node.alive:
                    counters.contacts_skipped_node_down += 1
                    return False
                self.result.center_contacts += 1
                if tel is not None:
                    tel.on_contact("uplink")
                self.scheme.on_command_center_contact(
                    node, self.command_center, now, duration
                )
                if tel is not None:
                    point, aspect = self.index.normalized(self.center_coverage())
                    tel.on_uplink_coverage(
                        now, point, aspect, self.command_center.received_count
                    )
            else:
                node_a = self.nodes.get(node_a_id)
                node_b = self.nodes.get(node_b_id)
                if node_a is None or node_b is None:
                    return False
                if not node_a.alive or not node_b.alive:
                    counters.contacts_skipped_node_down += 1
                    return False
                self.result.contacts_processed += 1
                if tel is not None:
                    tel.on_contact("contact")
                self.scheme.on_contact(node_a, node_b, now, duration)
            return True
        finally:
            self._bandwidth_scale = 1.0

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Drain the event queue and return the run's result.

        With a telemetry sink attached it is *activated* for the duration
        of the loop so the pure core algorithms (selection, transfer,
        metadata cache) can reach it through
        :func:`repro.obs.runtime.active_telemetry`.
        """
        with activated(self.telemetry):
            self._run_loop()
        self.result.final_coverage = self.center_coverage()
        self.result.delivered_photos = self.command_center.received_count
        if self.telemetry is not None:
            self.telemetry.finalize(self.result)
        return self.result

    def _run_loop(self) -> None:
        # Arrivals go from the queue's lane straight to their handler, with
        # no Event built; the queue decides when one is due.  Once none is
        # due, the lane is empty or waits behind the heap top, so the
        # queue is non-empty exactly while its heap is, and pop() returns
        # the heap top.
        queue = self._queue
        handle_photo_created = self.handle_photo_created
        while True:
            for arrival in queue.arrivals_due():
                handle_photo_created(arrival.owner_id, arrival.photo, arrival.time)
            if not queue:
                break
            event = queue.pop()
            self._now = event.time
            if event.kind == EventKind.CONTACT:
                node_a_id, node_b_id, duration = event.payload[:3]
                scale = event.payload[3] if len(event.payload) > 3 else 1.0
                self.handle_contact(node_a_id, node_b_id, event.time, duration, scale)
            elif event.kind == EventKind.NODE_CRASH:
                node_id, restart_time = event.payload
                # No restart for an unknown node or one already down: the
                # crash merges into the outage.
                if self.crash_node(node_id):
                    queue.push(Event(restart_time, EventKind.NODE_RESTART, node_id))
            elif event.kind == EventKind.NODE_RESTART:
                self.restart_node(event.payload)
            elif event.kind == EventKind.SAMPLE:
                self._record_sample(event.time)
            elif event.kind == EventKind.END:
                self._record_sample(event.time)
                break

    def _record_sample(self, time: float) -> None:
        point_norm, aspect_deg = self.index.normalized(self.center_coverage())
        self.result.samples.append(
            SampleRecord(
                time=time,
                point_coverage=point_norm,
                aspect_coverage_deg=aspect_deg,
                delivered_photos=self.command_center.received_count,
            )
        )
        if self.telemetry is not None:
            self.telemetry.on_buffer_sample(time, self.nodes.values())

"""One live scheme variant: a simulator world driven by requests.

:class:`ServiceSession` wraps a regular :class:`~repro.dtn.simulator.
Simulation` built with an *empty* contact trace and drives it through the
simulator's contact-handling seam (``ensure_node`` /
``handle_photo_created`` / ``handle_contact``) instead of the event loop.
The scheme, the storage substrate, the coverage index, the selection
algorithm -- everything below the seam is the exact code the simulator
runs, so feeding the session a scenario's events in event-queue order
produces byte-identical state to ``Simulation.run()`` on that scenario.

Time is the caller's: every request carries a ``now`` and the session
only checks that it never goes backwards (requests are a serialized
event stream, exactly like the simulator's queue).  Under concurrent
load generation that guarantee cannot hold across connections -- N
workers stamp requests before their sockets race each other to the
server -- so the session also supports a ``clamp`` time policy that
monotonizes late timestamps instead of rejecting them (see
docs/LOADGEN.md).

When the session's :class:`SimulationConfig` carries a
:class:`~repro.dtn.faults.FaultPlan` with a non-zero crash rate, the
session runs *live node churn*: each participant gets a Poisson crash
process (seeded, per-node streams) sampled lazily as time advances, with
the same storage-loss and cold-restart semantics the simulator applies
to ``NODE_CRASH``/``NODE_RESTART`` events.  This is the server-side half
of the chaos-soak story.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.poi import PoIList
from ..dtn.simulator import Simulation, SimulationConfig
from ..routing.registry import create_scheme
from ..traces.model import COMMAND_CENTER_ID, ContactTrace

__all__ = [
    "TIME_POLICIES",
    "StaleRequestError",
    "IngestOutcome",
    "ContactOutcome",
    "SelectionOutcome",
    "CoverageReport",
    "ServiceSession",
]

#: ``strict`` raises :class:`StaleRequestError` on a backwards timestamp
#: (the replay/byte-identity contract); ``clamp`` monotonizes it to the
#: session clock (the concurrent load-generation contract).
TIME_POLICIES = ("strict", "clamp")


class StaleRequestError(ValueError):
    """A request's timestamp precedes one the session already processed."""


@dataclass(frozen=True)
class IngestOutcome:
    """What happened to one ingested photo."""

    dispatched: bool  # the owner was alive and the scheme saw the photo
    stored: bool  # the photo is in the owner's buffer afterwards
    buffered: int  # photos in the owner's buffer afterwards


@dataclass(frozen=True)
class ContactOutcome:
    """Result of one node-node contact."""

    processed: bool


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one gateway uplink: the selection the scheme served."""

    processed: bool
    delivered_photo_ids: List[int] = field(default_factory=list)
    kept_photo_ids: List[int] = field(default_factory=list)
    delivered_total: int = 0
    point_coverage: float = 0.0
    aspect_coverage_deg: float = 0.0


@dataclass(frozen=True)
class CoverageReport:
    """The command center's current view of one variant's world."""

    point_coverage: float
    aspect_coverage_deg: float
    delivered_photos: int
    created_photos: int
    contacts_processed: int
    center_contacts: int
    nodes: int


class ServiceSession:
    """A live, always-on world for one scheme variant.

    Parameters mirror the simulator's: the PoI list and the
    :class:`SimulationConfig` fix the coverage model and the resource
    constraints; *scheme_spec* goes through
    :func:`~repro.routing.registry.create_scheme`, so parameterized specs
    (``"spray-and-wait:initial_copies=8"``) work unchanged.
    """

    def __init__(
        self,
        scheme_spec: str,
        pois: PoIList,
        config: Optional[SimulationConfig] = None,
        variant: str = "champion",
        time_policy: str = "strict",
    ) -> None:
        if time_policy not in TIME_POLICIES:
            raise ValueError(
                f"time_policy must be one of {TIME_POLICIES}, got {time_policy!r}"
            )
        self.scheme_spec = scheme_spec
        self.variant = variant
        self.time_policy = time_policy
        self.scheme = create_scheme(scheme_spec)
        self.simulation = Simulation(
            trace=ContactTrace([], name="service"),
            pois=pois,
            photo_arrivals=(),
            scheme=self.scheme,
            config=config if config is not None else SimulationConfig(),
            gateway_ids=(),
            end_time_s=0.0,
        )
        self.clock = 0.0
        self.requests = 0
        self.clamped_requests = 0
        # Live churn state (active only with a crash-bearing fault plan):
        # per-node seeded crash streams and a heap of pending transitions.
        plan = self.simulation.config.fault_plan
        self._churn_active = (
            self.simulation.faults is not None
            and plan is not None
            and plan.crash_rate_per_node_hour > 0.0
        )
        self._churn_seed = plan.seed if plan is not None else 0
        self._churn_tracked: Dict[int, random.Random] = {}
        self._churn_heap: List[Tuple[float, int, int, float]] = []

    # ------------------------------------------------------------------

    def _advance(self, now: float) -> float:
        """Move the session clock to *now*; returns the effective time.

        Under the ``clamp`` policy a timestamp behind the clock is lifted
        to the clock instead of rejected -- concurrent load workers stamp
        requests before their sockets race each other, so small
        reorderings are expected there, not protocol errors.
        """
        if now < self.clock:
            if self.time_policy == "strict":
                raise StaleRequestError(
                    f"request time {now} precedes session clock {self.clock}"
                )
            self.clamped_requests += 1
            now = self.clock
        self.clock = now
        self.requests += 1
        if self._churn_active:
            self._run_churn(now)
        return now

    # ------------------------------------------------------------------
    # Live node churn (server-side chaos)
    # ------------------------------------------------------------------

    _CRASH, _RESTART = 0, 1

    def _track_churn(self, node_id: int, now: float) -> None:
        """Start *node_id*'s crash process at its first-seen instant."""
        if not self._churn_active or node_id in self._churn_tracked:
            return
        if node_id == COMMAND_CENTER_ID:
            return
        # Independent per-node streams keep crash draws from perturbing
        # the injector's shared transfer/metadata fault stream.
        rng = random.Random(f"{self._churn_seed}:churn:{node_id}")
        self._churn_tracked[node_id] = rng
        self._schedule_crash(node_id, now, rng)

    def _schedule_crash(self, node_id: int, after: float, rng: random.Random) -> None:
        plan = self.simulation.config.fault_plan
        assert plan is not None
        rate_per_s = plan.crash_rate_per_node_hour / 3600.0
        crash_time = after + rng.expovariate(rate_per_s)
        downtime = rng.expovariate(1.0 / plan.mean_downtime_s)
        heapq.heappush(
            self._churn_heap, (crash_time, self._CRASH, node_id, crash_time + downtime)
        )

    def _run_churn(self, now: float) -> None:
        """Apply every crash/restart transition due at or before *now*."""
        sim = self.simulation
        while self._churn_heap and self._churn_heap[0][0] <= now:
            when, kind, node_id, restart_time = heapq.heappop(self._churn_heap)
            if kind == self._CRASH:
                sim.crash_node(node_id)
                heapq.heappush(
                    self._churn_heap, (restart_time, self._RESTART, node_id, restart_time)
                )
            else:
                sim.restart_node(node_id)
                self._schedule_crash(node_id, when, self._churn_tracked[node_id])

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ingest(self, owner_id: int, photo, now: float) -> IngestOutcome:
        """Participant *owner_id* reports taking *photo* at *now*.

        Raises :class:`ValueError`, changing nothing, when the owner already
        holds a photo with *photo*'s id: storage keeps one photo per id.
        """
        if owner_id == COMMAND_CENTER_ID:
            raise ValueError("the command center does not take photos")
        sim = self.simulation
        held = sim.nodes.get(owner_id)
        if held is not None and photo.photo_id in held.storage:
            raise ValueError(f"user {owner_id} already holds photo id {photo.photo_id}")
        now = self._advance(now)
        node = sim.ensure_node(owner_id)
        self._track_churn(owner_id, now)
        dispatched = sim.handle_photo_created(owner_id, photo, now)
        return IngestOutcome(
            dispatched=dispatched,
            stored=photo.photo_id in node.storage,
            buffered=len(node.storage),
        )

    def contact(
        self, node_a_id: int, node_b_id: int, now: float, duration: float
    ):
        """One contact; uplinks (a side is the command center) return a
        :class:`SelectionOutcome`, peer contacts a :class:`ContactOutcome`."""
        if COMMAND_CENTER_ID in (node_a_id, node_b_id):
            participant = node_b_id if node_a_id == COMMAND_CENTER_ID else node_a_id
            return self.select_on_contact(participant, now, duration)
        now = self._advance(now)
        sim = self.simulation
        sim.ensure_node(node_a_id)
        sim.ensure_node(node_b_id)
        self._track_churn(node_a_id, now)
        self._track_churn(node_b_id, now)
        return ContactOutcome(
            processed=sim.handle_contact(node_a_id, node_b_id, now, duration)
        )

    def select_on_contact(
        self, node_id: int, now: float, duration: float
    ) -> SelectionOutcome:
        """Gateway uplink: run the scheme's selection against the center."""
        now = self._advance(now)
        sim = self.simulation
        node = sim.ensure_node(node_id)
        self._track_churn(node_id, now)
        center = sim.command_center
        before = center.received_count
        processed = sim.handle_contact(node_id, COMMAND_CENTER_ID, now, duration)
        # The center never drops a photo, so this uplink's deliveries are
        # the newest entries of its storage.
        delivered = center.storage.newest_ids(center.received_count - before)
        point, aspect = sim.index.normalized(sim.center_coverage())
        return SelectionOutcome(
            processed=processed,
            delivered_photo_ids=delivered,
            kept_photo_ids=node.storage.photo_ids(),
            delivered_total=center.received_count,
            point_coverage=point,
            aspect_coverage_deg=aspect,
        )

    def coverage(self) -> CoverageReport:
        """The center's current coverage and the session's counters."""
        sim = self.simulation
        point, aspect = sim.index.normalized(sim.center_coverage())
        result = sim.result
        return CoverageReport(
            point_coverage=point,
            aspect_coverage_deg=aspect,
            delivered_photos=sim.command_center.received_count,
            created_photos=result.created_photos,
            contacts_processed=result.contacts_processed,
            center_contacts=result.center_contacts,
            nodes=len(sim.nodes),
        )

    def describe(self) -> Dict[str, object]:
        """A JSON-ready summary (used by ``stats`` and the manifest)."""
        report = self.coverage()
        summary: Dict[str, object] = {
            "variant": self.variant,
            "scheme": self.scheme_spec,
            "requests": self.requests,
            "time_policy": self.time_policy,
            "clamped_requests": self.clamped_requests,
            "clock_s": self.clock,
            "coverage": {
                "point": report.point_coverage,
                "aspect_deg": report.aspect_coverage_deg,
            },
            "delivered_photos": report.delivered_photos,
            "created_photos": report.created_photos,
            "contacts_processed": report.contacts_processed,
            "center_contacts": report.center_contacts,
            "nodes": report.nodes,
        }
        if self.simulation.faults is not None:
            summary["faults"] = self.simulation.result.fault_counters.as_dict()
        return summary

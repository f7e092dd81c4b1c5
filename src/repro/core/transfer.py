"""Bandwidth-aware transfer scheduling (Section III-D, last paragraphs).

The reallocation solution says where each photo *should* end up; this
module turns it into an ordered transmission plan and executes it under a
contact byte budget (``bandwidth * contact_duration``).  Photos are
considered in greedy-selection order, the higher-delivery-probability
node's selection first, so when a contact is cut short the most valuable
photos have already moved.  An unfinished transmission is discarded.

Eviction is lazy: a node drops photos that are *not* part of its target
selection only when it needs room for an incoming photo (lowest selection
priority dropped first).  If the whole plan completes, each node's
collection is trimmed to exactly its target selection, matching the
paper's "photo collections gradually become the same as the solution".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..obs.runtime import active_telemetry
from .metadata import Photo
from .selection import ReallocationResult

__all__ = ["Transfer", "TransferPlan", "build_transfer_plan", "execute_transfer_plan", "TransferOutcome"]


@dataclass(frozen=True)
class Transfer:
    """One scheduled photo transmission."""

    photo: Photo
    sender_id: int
    receiver_id: int


@dataclass
class TransferPlan:
    """The ordered list of transmissions realizing a reallocation solution."""

    transfers: List[Transfer] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(t.photo.size_bytes for t in self.transfers)

    def __len__(self) -> int:
        return len(self.transfers)

    def __iter__(self):
        return iter(self.transfers)


def build_transfer_plan(
    result: ReallocationResult,
    holdings: Dict[int, Sequence[Photo]],
) -> TransferPlan:
    """Derive the transmissions needed to realize *result*.

    *holdings* maps each participating node id to its pre-contact photo
    collection.  For every photo in a node's target selection that the node
    does not already hold, a transfer from the peer is scheduled; the first
    (higher-probability) node's needs come first, each in selection order.
    """
    plan = TransferPlan()
    node_ids = [result.first.node_id, result.second.node_id]
    held = {node_id: {p.photo_id for p in holdings.get(node_id, ())} for node_id in node_ids}

    for selection in (result.first, result.second):
        receiver = selection.node_id
        sender = node_ids[1] if receiver == node_ids[0] else node_ids[0]
        for photo in selection.photos:
            if photo.photo_id not in held[receiver]:
                plan.transfers.append(Transfer(photo=photo, sender_id=sender, receiver_id=receiver))
    return plan


@dataclass
class TransferOutcome:
    """What actually happened during a (possibly truncated) contact."""

    final_collections: Dict[int, List[Photo]]
    completed_transfers: List[Transfer]
    truncated: bool
    bytes_used: int
    #: Transfers that consumed contact bytes but arrived corrupted and were
    #: discarded by the receiver (fault injection; empty without faults).
    dropped_transfers: List[Transfer] = field(default_factory=list)

    def delivered_to(self, node_id: int) -> List[Photo]:
        return [t.photo for t in self.completed_transfers if t.receiver_id == node_id]


def execute_transfer_plan(
    plan: TransferPlan,
    result: ReallocationResult,
    holdings: Dict[int, Sequence[Photo]],
    capacities: Dict[int, Optional[int]],
    byte_budget: Optional[int] = None,
    transfer_survives: Optional[Callable[[Photo], bool]] = None,
) -> TransferOutcome:
    """Run *plan* under a contact byte budget and return the outcome.

    Parameters
    ----------
    plan, result, holdings:
        Output of :func:`build_transfer_plan` and its inputs.
    capacities:
        Per-node storage capacity in bytes (``None`` = unlimited, e.g. the
        command center).
    byte_budget:
        ``bandwidth * duration`` for the contact; ``None`` means the
        contact is long enough for everything.
    transfer_survives:
        Fault-injection hook (:meth:`repro.dtn.simulator.Simulation.
        transfer_survives`): called once per attempted transmission; a
        ``False`` return means the photo was corrupted in flight -- its
        bytes still count against the budget but the receiver discards it.
        ``None`` means every transmission arrives intact.
    """
    telemetry = active_telemetry()
    started = perf_counter() if telemetry is not None else 0.0
    skipped_no_room = 0

    collections: Dict[int, List[Photo]] = {
        node_id: list(photos) for node_id, photos in holdings.items()
    }
    # Running per-node byte tally, kept in step with *collections*.
    used_bytes: Dict[int, int] = {
        node_id: sum(p.size_bytes for p in photos) for node_id, photos in collections.items()
    }
    target_ids = {
        result.first.node_id: result.first.photo_ids(),
        result.second.node_id: result.second.photo_ids(),
    }
    # Eviction priority: photos not in the target selection go first, in
    # reverse of their (peer's) selection value -- we simply drop photos
    # that are not targets, oldest-id-last for determinism.
    completed: List[Transfer] = []
    dropped: List[Transfer] = []
    bytes_used = 0
    truncated = False

    for transfer in plan:
        size = transfer.photo.size_bytes
        if byte_budget is not None and bytes_used + size > byte_budget:
            truncated = True
            break
        receiver = transfer.receiver_id
        capacity = capacities.get(receiver)
        if capacity is not None:
            used = _make_room(
                collections[receiver], target_ids[receiver], capacity, size, used_bytes[receiver]
            )
            used_bytes[receiver] = used
            if used + size > capacity:
                # Could not make room without evicting a target photo; skip.
                skipped_no_room += 1
                continue
        if transfer_survives is not None and not transfer_survives(transfer.photo):
            # Corrupted in flight: bandwidth spent, nothing stored.
            dropped.append(transfer)
            bytes_used += size
            continue
        collections[receiver].append(transfer.photo)
        used_bytes[receiver] += size
        completed.append(transfer)
        bytes_used += size

    if not truncated:
        # Plan fully executed: trim every participant to its target selection.
        for node_id, ids in target_ids.items():
            capacity = capacities.get(node_id)
            if capacity is None:
                # Unlimited nodes (the command center) never drop photos.
                continue
            collections[node_id] = [p for p in collections[node_id] if p.photo_id in ids]

    if telemetry is not None:
        bytes_corrupted = sum(t.photo.size_bytes for t in dropped)
        telemetry.on_transfer_outcome(
            offered=len(plan),
            accepted=len(completed),
            corrupted=len(dropped),
            skipped_no_room=skipped_no_room,
            bytes_delivered=bytes_used - bytes_corrupted,
            bytes_corrupted=bytes_corrupted,
            bytes_truncated=max(0, plan.total_bytes - bytes_used) if truncated else 0,
            truncated=truncated,
            elapsed_s=perf_counter() - started,
        )
    return TransferOutcome(
        final_collections=collections,
        completed_transfers=completed,
        truncated=truncated,
        bytes_used=bytes_used,
        dropped_transfers=dropped,
    )


def _make_room(
    collection: List[Photo],
    target_ids: Set[int],
    capacity: int,
    incoming_size: int,
    used: int,
) -> int:
    """Evict non-target photos until *incoming_size* fits.

    *used* is the bytes *collection* holds; returns the bytes it holds
    afterwards (still too many when only target photos were left).
    """
    if used + incoming_size <= capacity:
        return used
    # Victims go highest photo id first; a heap pops them in that order
    # without sorting photos that are never evicted.
    evictable = [(-p.photo_id, p.size_bytes) for p in collection if p.photo_id not in target_ids]
    heapq.heapify(evictable)
    victim_ids: Set[int] = set()
    while evictable and used + incoming_size > capacity:
        neg_id, size = heapq.heappop(evictable)
        victim_ids.add(-neg_id)
        used -= size
    if victim_ids:
        # One order-preserving pass, in place: the caller keeps this list.
        collection[:] = [p for p in collection if p.photo_id not in victim_ids]
    return used

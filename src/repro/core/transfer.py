"""Bandwidth-aware transfer scheduling (Section III-D, last paragraphs).

The reallocation solution says where each photo *should* end up; this
module turns it into an ordered transmission plan and executes it on the
two participants' own storage, under a contact byte budget
(``bandwidth * contact_duration``).  Photos are considered in
greedy-selection order, the higher-delivery-probability node's selection
first, so when a contact is cut short the most valuable photos have
already moved.  An unfinished transmission is discarded.

Eviction is lazy: a node drops photos that are *not* part of its target
selection only when it needs room for an incoming photo, highest photo id
first.  If the whole plan completes, each capacity-bounded node's
collection is trimmed to exactly its target selection, matching the
paper's "photo collections gradually become the same as the solution".

The plan is fixed before it runs, so a node's evictions can remove a
photo that the plan later sends from it; that transfer still happens.

A storage is anything with the parts of
:class:`repro.dtn.storage.NodeStorage` used here (``capacity_bytes``,
``fits``, ``add``, ``remove``, ``photo_ids`` and ``in``), so this module
needs nothing from :mod:`repro.dtn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional

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
    storages: Mapping[int, Any],
) -> TransferPlan:
    """Derive the transmissions needed to realize *result*.

    *storages* maps each participating node id to its storage.  For every
    photo in a node's target selection that its storage does not already
    hold, a transfer from the peer is scheduled; the first
    (higher-probability) node's needs come first, each in selection order.
    """
    plan = TransferPlan()
    first, second = result.first.node_id, result.second.node_id
    for selection, sender in ((result.first, second), (result.second, first)):
        receiver = selection.node_id
        held = storages[receiver]
        for photo in selection.photos:
            if photo.photo_id not in held:
                plan.transfers.append(Transfer(photo=photo, sender_id=sender, receiver_id=receiver))
    return plan


@dataclass
class TransferOutcome:
    """What actually happened during a (possibly truncated) contact."""

    completed_transfers: List[Transfer]
    truncated: bool
    bytes_used: int
    #: Transfers that consumed contact bytes but arrived corrupted and were
    #: discarded by the receiver (fault injection; empty without faults).
    dropped_transfers: List[Transfer] = field(default_factory=list)


def execute_transfer_plan(
    plan: TransferPlan,
    result: ReallocationResult,
    storages: Mapping[int, Any],
    transfer_survives: Optional[Callable[[Photo], bool]] = None,
    byte_budget: Optional[int] = None,
) -> TransferOutcome:
    """Run *plan* on *storages*, in place, under a contact byte budget.

    Parameters
    ----------
    plan, result, storages:
        Output of :func:`build_transfer_plan` and its inputs; the storages
        hold the participants' collections and capacities (``None`` =
        unlimited, e.g. the command center).
    transfer_survives:
        Fault-injection hook (:meth:`repro.dtn.simulator.Simulation.
        transfer_survives`): called once per attempted transmission; a
        ``False`` return means the photo was corrupted in flight -- its
        bytes still count against the budget but the receiver discards it.
        ``None`` means every transmission arrives intact.
    byte_budget:
        ``bandwidth * duration`` for the contact; ``None`` means the
        contact is long enough for everything.
    """
    telemetry = active_telemetry()
    started = perf_counter() if telemetry is not None else 0.0
    skipped_no_room = 0

    target_ids = {
        result.first.node_id: result.first.photo_ids(),
        result.second.node_id: result.second.photo_ids(),
    }
    # Per receiver, its non-target photo ids, listed when it first needs
    # room; victims pop off the end, highest id first.  Received photos
    # are targets, so the list stays exact for the whole contact.
    victims: Dict[int, List[int]] = {}
    completed: List[Transfer] = []
    dropped: List[Transfer] = []
    bytes_used = 0
    truncated = False

    for transfer in plan:
        photo = transfer.photo
        size = photo.size_bytes
        if byte_budget is not None and bytes_used + size > byte_budget:
            truncated = True
            break
        receiver = transfer.receiver_id
        storage = storages[receiver]
        if not storage.fits(photo):
            if receiver not in victims:
                targets = target_ids[receiver]
                victims[receiver] = sorted(i for i in storage.photo_ids() if i not in targets)
            evictable = victims[receiver]
            while evictable and not storage.fits(photo):
                storage.remove(evictable.pop())
            if not storage.fits(photo):
                # Could not make room without evicting a target photo; skip.
                skipped_no_room += 1
                continue
        if transfer_survives is not None and not transfer_survives(photo):
            # Corrupted in flight: bandwidth spent, nothing stored.
            dropped.append(transfer)
            bytes_used += size
            continue
        storage.add(photo)
        completed.append(transfer)
        bytes_used += size

    if not truncated:
        # Plan fully executed: trim every participant to its target
        # selection, except unlimited nodes (the command center), which
        # never drop photos.
        for node_id, ids in target_ids.items():
            storage = storages[node_id]
            if storage.capacity_bytes is not None:
                for photo_id in storage.photo_ids():
                    if photo_id not in ids:
                        storage.remove(photo_id)

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
        completed_transfers=completed,
        truncated=truncated,
        bytes_used=bytes_used,
        dropped_transfers=dropped,
    )

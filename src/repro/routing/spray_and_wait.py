"""Binary Spray-and-Wait (Spyropoulos et al.), the content-blind baseline.

Each photo starts with ``L`` logical copies at its source (the paper uses
``L = 4``).  A node holding more than one copy of a photo hands half of
them to any peer that lacks the photo (*spray* phase); a node down to its
last copy forwards only to the destination -- the command center (*wait*
phase).  The protocol never looks at photo content, which is exactly why
it underperforms on crowdsourcing workloads (Section V-B).

Storage policy: an arriving photo is dropped when the receiver is full
(tail drop), matching a utility-blind protocol.  Transfers within a
contact proceed in storage (FIFO) order under one shared byte budget,
first from one peer to the other in full, then back.  A direction stops
at the first refusal that is final: when the run draws no transfer
faults and the receiver's free bytes are below every size the sender
holds, no later photo can get in, so the rest of the scan is skipped
(``_spray`` states the exactness argument).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.node import CommandCenter, DTNNode

__all__ = ["SprayAndWaitScheme"]

_COPIES_KEY = "spray_copies"


@register_scheme("spray-and-wait", initial_copies=4)
class SprayAndWaitScheme(RoutingScheme):
    """Binary spray and wait with *initial_copies* replicas per photo."""

    name = "spray-and-wait"

    def __init__(self, initial_copies: int = 4) -> None:
        super().__init__()
        if initial_copies < 1:
            raise ValueError(f"initial_copies must be at least 1, got {initial_copies}")
        self.initial_copies = initial_copies

    @staticmethod
    def _copies(node: DTNNode) -> Dict[int, int]:
        return node.scratch.setdefault(_COPIES_KEY, {})

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        if node.storage.fits(photo):
            node.storage.add(photo)
            self._copies(node)[photo.photo_id] = self.initial_copies
        # else: tail drop -- a content-blind node has no basis for eviction.

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        budget = self.sim.byte_budget(duration)
        # One direction at a time on one shared budget: a sprays to b in
        # full, then b sprays to a on whatever bytes are left.
        used = self._spray(node_a, node_b, budget, 0)
        self._spray(node_b, node_a, budget, used)

    def _spray(self, sender: DTNNode, receiver: DTNNode, budget, used: int) -> int:
        sender_copies = self._copies(sender)
        receiver_copies = self._copies(receiver)
        # A refusal ends the call when it is final: no later photo of this
        # call could change ``used``, any storage or the fault stream.  That
        # holds when (1) ``transfer_survives`` draws nothing this run, so no
        # draw is skipped, and (2) the receiver's free bytes, read after the
        # refusal, are below ``smallest``, a lower bound on every size the
        # sender holds.  Within one direction the sender's storage does not
        # change, so every later photo has at least ``smallest`` bytes, and
        # tail-drop ``accept`` only shrinks the receiver's free bytes, so
        # none of them fits.  ModifiedSpray sends in descending individual
        # coverage: its refusal means the receiver's least valuable photo is
        # worth at least the refused one, hence at least every later one,
        # so no later photo fits without eviction and each is refused
        # without evicting anything.  Skips, budget breaks and refusals
        # change neither ``used`` nor any storage.
        final_refusals = not self.sim.transfers_can_fail
        smallest = sender.storage.min_size_bytes
        for photo in self.transmit_order(sender):
            copies = sender_copies.get(photo.photo_id, 1)
            if copies <= 1:
                continue  # wait phase: destination only
            if photo.photo_id in receiver.storage:
                continue
            if budget is not None and used + photo.size_bytes > budget:
                break
            if not self.sim.transfer_survives(photo):
                used += photo.size_bytes
                continue  # corrupted in flight: bytes spent, copies stay put
            if not self.accept(receiver, photo):
                if final_refusals and receiver.storage.free_bytes < smallest:
                    break
                continue
            used += photo.size_bytes
            handed = copies // 2
            sender_copies[photo.photo_id] = copies - handed
            receiver_copies[photo.photo_id] = handed
        return used

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        copies = self._copies(node)
        # Delivery completes the bundle: the node releases its copies.  A
        # photo that failed the uplink stays with its copies.
        for photo in self.sim.uplink(self.transmit_order(node), duration):
            node.storage.remove(photo.photo_id)
            copies.pop(photo.photo_id, None)

    # Hooks the ModifiedSpray subclass overrides -------------------------

    def transmit_order(self, node: DTNNode) -> List[Photo]:
        """Photos in the order they are offered to a peer (FIFO here)."""
        return node.storage.photos()

    def accept(self, receiver: DTNNode, photo: Photo) -> bool:
        """Make room at *receiver* if the policy allows; True if stored ok.

        An override must keep ``_spray``'s early exit exact: once it refuses
        a photo and leaves the receiver less free room than any photo the
        sender holds, it refuses every later photo of :meth:`transmit_order`
        without changing any storage.
        """
        if receiver.storage.fits(photo):
            receiver.storage.add(photo)
            return True
        return False

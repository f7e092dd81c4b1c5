"""Binary Spray-and-Wait (Spyropoulos et al.), the content-blind baseline.

Each photo starts with ``L`` logical copies at its source (the paper uses
``L = 4``).  A node holding more than one copy of a photo hands half of
them to any peer that lacks the photo (*spray* phase); a node down to its
last copy forwards only to the destination -- the command center (*wait*
phase).  The protocol never looks at photo content, which is exactly why
it underperforms on crowdsourcing workloads (Section V-B).

Storage policy: an arriving photo is dropped when the receiver is full
(tail drop), matching a utility-blind protocol.  Transfers within a
contact proceed in storage (FIFO) order under the byte budget.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

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
        used = 0
        # Alternate directions photo-by-photo so neither side starves the
        # shared contact bandwidth.
        used = self._spray(node_a, node_b, budget, used)
        self._spray(node_b, node_a, budget, used)

    def _spray(self, sender: DTNNode, receiver: DTNNode, budget, used: int) -> int:
        sender_copies = self._copies(sender)
        receiver_copies = self._copies(receiver)
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
        """Make room at *receiver* if the policy allows; True if stored ok."""
        if receiver.storage.fits(photo):
            receiver.storage.add(photo)
            return True
        return False

"""ModifiedSpray: Spray-and-Wait with individual-coverage utility ordering.

The paper's stand-in for prior utility-based DTN routing (Section V-B):
identical to binary Spray-and-Wait except that (a) photos are transmitted
highest *individual* photo coverage first, and (b) when a receiving node
is full, the stored photo with the least individual coverage is evicted
(if the incoming photo beats it).  Crucially the utility of a photo is
computed in isolation -- overlap between photos is ignored -- which is the
precise limitation the paper's expected-coverage selection removes.  The
victim comes from the storage's eviction index
(:meth:`~repro.dtn.storage.NodeStorage.least_valuable`), the one our
scheme uses too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..core.coverage import CoverageValue
from ..core.metadata import Photo
from .base import individual_coverage
from .registry import register_scheme
from .spray_and_wait import SprayAndWaitScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.node import DTNNode

__all__ = ["ModifiedSprayScheme"]


@register_scheme("modified-spray", initial_copies=4)
class ModifiedSprayScheme(SprayAndWaitScheme):
    """Spray-and-Wait ordered and evicted by stand-alone photo coverage."""

    name = "modified-spray"

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        if node.storage.fits(photo):
            node.storage.add(photo)
            self._copies(node)[photo.photo_id] = self.initial_copies
            return
        if self._evict_for(node, photo):
            node.storage.add(photo)
            self._copies(node)[photo.photo_id] = self.initial_copies

    def transmit_order(self, node: DTNNode) -> List[Photo]:
        """Highest individual coverage first (ties: oldest photo first)."""
        return sorted(node.storage.photos(), key=self._order_key, reverse=True)

    def _order_key(self, photo: Photo) -> Tuple[float, float, int]:
        # The coverage's float fields, not the CoverageValue itself: the
        # same lexicographic order without a dataclass ``__eq__`` per
        # tuple comparison.
        value = individual_coverage(self.sim, photo)
        return (value.point, value.aspect, -photo.photo_id)

    def accept(self, receiver: DTNNode, photo: Photo) -> bool:
        if receiver.storage.fits(photo):
            receiver.storage.add(photo)
            return True
        if self._evict_for(receiver, photo):
            receiver.storage.add(photo)
            return True
        return False

    def _evict_for(self, node: DTNNode, incoming: Photo) -> bool:
        """Drop the least-coverage stored photo if *incoming* beats it.

        Repeats until the incoming photo fits or no stored photo has lower
        coverage (with uniform 4 MB photos a single eviction suffices).
        """
        incoming_value = self._coverage(incoming)
        while not node.storage.fits(incoming):
            victim = node.storage.least_valuable(self._coverage)
            if victim is None or self._coverage(victim) >= incoming_value:
                return False
            node.storage.remove(victim.photo_id)
            self._copies(node).pop(victim.photo_id, None)
        return True

    def _coverage(self, photo: Photo) -> CoverageValue:
        return individual_coverage(self.sim, photo)

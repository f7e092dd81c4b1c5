"""BestPossible: the contact-opportunity-only upper bound (Section V-B).

No storage or bandwidth constraint exists for this scheme; nodes replicate
every *useful* photo (one that covers at least one PoI -- a photo covering
nothing can never contribute coverage, so replicating it would only waste
simulation memory without changing the bound) to everyone they meet, and
the command center receives everything a gateway carries.  The coverage it
achieves is limited purely by which photos can causally reach the command
center before the deadline, which is the paper's definition of the best
possible outcome.
"""

from __future__ import annotations

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

__all__ = ["BestPossibleScheme"]


@register_scheme("best-possible")
class BestPossibleScheme(RoutingScheme):
    """Unconstrained epidemic replication of useful photos."""

    name = "best-possible"

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        if self.sim.incidences(photo):
            self._collection(node).add(photo.photo_id)
            self.sim.scratch.setdefault("best_possible_photos", {})[photo.photo_id] = photo

    @staticmethod
    def _collection(node: DTNNode) -> set:
        # Unlimited replication is tracked as id sets outside NodeStorage,
        # since capacity bookkeeping is meaningless for this bound.
        return node.scratch.setdefault("best_possible_ids", set())

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        merged = self._collection(node_a) | self._collection(node_b)
        node_a.scratch["best_possible_ids"] = set(merged)
        node_b.scratch["best_possible_ids"] = set(merged)

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        photos = self.sim.scratch.get("best_possible_photos", {})
        for photo_id in sorted(self._collection(node)):
            photo = photos.get(photo_id)
            if photo is not None:
                self.sim.deliver(photo)

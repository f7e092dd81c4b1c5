"""Epidemic routing under real storage and bandwidth constraints.

Unlike :class:`~repro.routing.best_possible.BestPossibleScheme` -- which
removes the resource constraints entirely to serve as the upper bound --
this is the classic Vahdat/Becker epidemic protocol as a *practical*
baseline: replicate every photo to every peer, FIFO order, tail-drop when
storage fills.  It completes the baseline spectrum between Spray-and-Wait
(bounded copies) and BestPossible (no constraints), and is useful for
ablations on how much damage unbounded replication does under contention.
"""

from __future__ import annotations

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

__all__ = ["EpidemicScheme"]


@register_scheme("epidemic")
class EpidemicScheme(RoutingScheme):
    """Flood every photo to every peer within the resource limits."""

    name = "epidemic"

    def on_photo_created(self, node, photo: Photo, now: float) -> None:
        if node.storage.fits(photo):
            node.storage.add(photo)
        # else: tail drop, like any utility-blind protocol.

    def on_contact(self, node_a, node_b, now: float, duration: float) -> None:
        budget = self.sim.byte_budget(duration)
        used = self._flood(node_a, node_b, budget, 0)
        self._flood(node_b, node_a, budget, used)

    def _flood(self, sender, receiver, budget, used: int) -> int:
        for photo in sender.storage.photos():
            if photo.photo_id in receiver.storage:
                continue
            if budget is not None and used + photo.size_bytes > budget:
                break
            if not receiver.storage.fits(photo):
                continue
            used += photo.size_bytes
            if not self.sim.transfer_survives(photo):
                continue  # corrupted in flight: bytes spent, copy lost
            receiver.storage.add(photo)
        return used

    def on_command_center_contact(self, node, center, now: float, duration: float) -> None:
        # Epidemic keeps its copies: other replicas exist anyway and the
        # protocol has no acknowledgment channel.
        self.sim.uplink(node.storage.photos(), duration)

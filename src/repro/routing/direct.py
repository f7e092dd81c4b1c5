"""Direct delivery: the zero-cooperation baseline.

Photos stay on the device that took them and are handed over only when
that device itself reaches the command center.  This is the lower bound
of the DTN design space -- it isolates how much of every scheme's
coverage comes from opportunistic peer relaying at all.
"""

from __future__ import annotations

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

__all__ = ["DirectDeliveryScheme"]


@register_scheme("direct")
class DirectDeliveryScheme(RoutingScheme):
    """Only source-to-command-center transfers; no peer exchange."""

    name = "direct"

    def on_photo_created(self, node, photo: Photo, now: float) -> None:
        if node.storage.fits(photo):
            node.storage.add(photo)

    def on_contact(self, node_a, node_b, now: float, duration: float) -> None:
        """Peers exchange nothing; photos move only on uplinks."""

    def on_command_center_contact(self, node, center, now: float, duration: float) -> None:
        # A photo that failed the uplink stays for a retry at the next visit.
        for photo in self.sim.uplink(node.storage.photos(), duration):
            node.storage.remove(photo.photo_id)

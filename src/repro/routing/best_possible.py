"""BestPossible: the contact-opportunity-only upper bound (Section V-B).

No storage or bandwidth constraint exists for this scheme; nodes replicate
every *useful* photo (one that covers at least one PoI -- a photo covering
nothing can never contribute coverage, so replicating it would only waste
simulation memory without changing the bound) to everyone they meet, and
the command center receives everything a gateway carries.  The coverage it
achieves is limited purely by which photos can causally reach the command
center before the deadline, which is the paper's definition of the best
possible outcome.

A node's useful photos are a bitset, a Python int kept in its ``scratch``
(so a crash that wipes protocol state wipes it too): bit *i* stands for
the run's *i*-th useful photo.  A contact is one ``|`` whose immutable
result both nodes share, and an uplink hands the command center only the
bits not delivered yet, in ``photo_id`` order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.node import CommandCenter, DTNNode
    from ..dtn.simulator import Simulation

__all__ = ["BestPossibleScheme"]

_BITS = "best_possible_bits"


def _set_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of *bits*, lowest first."""
    digits = bin(bits)[:1:-1]  # least significant digit first, no "0b"
    position = digits.find("1")
    while position >= 0:
        yield position
        position = digits.find("1", position + 1)


@register_scheme("best-possible")
class BestPossibleScheme(RoutingScheme):
    """Unconstrained epidemic replication of useful photos."""

    name = "best-possible"

    def bind(self, sim: "Simulation") -> None:
        super().bind(sim)
        #: Bit *i* of a node's bitset stands for ``self._photos[i]``.
        self._photos: List[Photo] = []
        self._bit_of: Dict[int, int] = {}
        self._delivered = 0

    def __setstate__(self, state: dict) -> None:
        if state.get("sim") is not None and "_photos" not in state:
            # A bound scheme pickled before the bitset state existed: the
            # snapshot then reads as missing and recovery uses the journal.
            raise ValueError("best-possible snapshot predates its bitset state")
        self.__dict__.update(state)

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        if not self.sim.incidences(photo):
            return
        bit = self._bit_of.get(photo.photo_id)
        if bit is None:
            bit = self._bit_of[photo.photo_id] = len(self._photos)
            self._photos.append(photo)
        else:
            self._photos[bit] = photo  # a re-reported id: the latest copy is sent
        node.scratch[_BITS] = node.scratch.get(_BITS, 0) | (1 << bit)

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        merged = node_a.scratch.get(_BITS, 0) | node_b.scratch.get(_BITS, 0)
        node_a.scratch[_BITS] = node_b.scratch[_BITS] = merged

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        fresh = node.scratch.get(_BITS, 0) & ~self._delivered
        if not fresh:
            return
        self._delivered |= fresh
        photos = [self._photos[bit] for bit in _set_bits(fresh)]
        photos.sort(key=lambda photo: photo.photo_id)
        for photo in photos:
            self.sim.deliver(photo)

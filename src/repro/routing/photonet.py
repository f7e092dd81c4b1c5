"""A PhotoNet-style diversity-maximizing picture delivery baseline.

PhotoNet (Uddin et al.) prioritizes photo transmission and storage by
*diversity*: photos far apart in location, capture time and color
histogram are preferred; near-duplicates are dropped.  The original system
hashes pixel color histograms; payloads are not simulated here, so each
photo gets a deterministic pseudo color-feature derived from its id --
preserving the property that color distance is independent of geometry,
which is exactly the weakness Fig. 3 exposes (spread-out photos, few
covering the target).

Mechanics: within a contact each side offers photos in farthest-point
order with respect to the receiver's current collection; a full receiver
evicts the photo of its closest pair (keeping the incoming photo only if
that strictly improves collection diversity).
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..core.metadata import Photo
from .base import RoutingScheme
from .registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.node import CommandCenter, DTNNode

__all__ = ["PhotoNetScheme", "photo_features"]


def photo_features(photo: Photo, region_scale: float, time_scale: float) -> Tuple[float, ...]:
    """PhotoNet feature vector: normalized location, time, pseudo-color.

    The three color coordinates are a deterministic hash of the photo id,
    standing in for the color-histogram signature of the real system.
    """
    if photo.features is not None:
        color = tuple(photo.features)[:3]
    else:
        digest = hashlib.sha256(str(photo.photo_id).encode("ascii")).digest()
        color = tuple(byte / 255.0 for byte in digest[:3])
    return (
        photo.location.x / region_scale,
        photo.location.y / region_scale,
        photo.taken_at / time_scale,
    ) + color


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@register_scheme("photonet")
class PhotoNetScheme(RoutingScheme):
    """Diversity-driven photo delivery (the Fig. 3 comparison baseline)."""

    name = "photonet"

    def __init__(self, region_scale: float = 6300.0, time_scale: float = 3600.0 * 24.0) -> None:
        super().__init__()
        if region_scale <= 0.0 or time_scale <= 0.0:
            raise ValueError("feature scales must be positive")
        self.region_scale = region_scale
        self.time_scale = time_scale

    def _features(self, photo: Photo) -> Tuple[float, ...]:
        cache = self.sim.scratch.setdefault("photonet_features", {})
        cached = cache.get(photo.photo_id)
        if cached is None:
            cached = photo_features(photo, self.region_scale, self.time_scale)
            cache[photo.photo_id] = cached
        return cached

    def _min_distance_to(self, photo: Photo, collection: Sequence[Photo]) -> float:
        if not collection:
            return math.inf
        feats = self._features(photo)
        return min(_distance(feats, self._features(other)) for other in collection)

    # ------------------------------------------------------------------

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        if node.storage.fits(photo):
            node.storage.add(photo)
            return
        self._accept_with_eviction(node, photo)

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        budget = self.sim.byte_budget(duration)
        used = self._send_diverse(node_a, node_b, budget, 0)
        self._send_diverse(node_b, node_a, budget, used)

    def _farthest_first(self, candidates: List[Photo], target_storage) -> Iterator[Photo]:
        """Yield *candidates* farthest from *target_storage*'s photos first.

        Each ``next()`` re-picks against the target's current photos, so a
        photo the target accepted since the last pick counts; ties go to
        the older (lower-id) photo.
        """
        while candidates:
            target_photos = target_storage.photos()
            best = max(
                candidates,
                key=lambda p: (self._min_distance_to(p, target_photos), -p.photo_id),
            )
            candidates.remove(best)
            yield best

    def _send_diverse(self, sender: DTNNode, receiver: DTNNode, budget, used: int) -> int:
        candidates = [
            photo for photo in sender.storage.photos() if photo.photo_id not in receiver.storage
        ]
        for best in self._farthest_first(candidates, receiver.storage):
            if budget is not None and used + best.size_bytes > budget:
                break
            if not self.sim.transfer_survives(best):
                used += best.size_bytes
                continue  # corrupted in flight: bytes spent, photo lost
            if self._accept(receiver, best):
                used += best.size_bytes
        return used

    def _accept(self, receiver: DTNNode, photo: Photo) -> bool:
        if receiver.storage.fits(photo):
            receiver.storage.add(photo)
            return True
        return self._accept_with_eviction(receiver, photo)

    def _accept_with_eviction(self, node: DTNNode, incoming: Photo) -> bool:
        """Evict a closest-pair member if the incoming photo adds diversity."""
        while not node.storage.fits(incoming):
            photos = node.storage.photos()
            if not photos:
                return False
            victim = self._closest_pair_victim(photos + [incoming])
            if victim.photo_id == incoming.photo_id:
                return False  # the newcomer is itself the redundancy
            node.storage.remove(victim.photo_id)
        node.storage.add(incoming)
        return True

    def _closest_pair_victim(self, photos: List[Photo]) -> Photo:
        """One member of the closest pair -- the later-taken (higher-id) one."""
        best_pair: Optional[Tuple[Photo, Photo]] = None
        best_distance = math.inf
        for i, a in enumerate(photos):
            feats_a = self._features(a)
            for b in photos[i + 1 :]:
                d = _distance(feats_a, self._features(b))
                if d < best_distance:
                    best_distance = d
                    best_pair = (a, b)
        assert best_pair is not None
        return max(best_pair, key=lambda p: p.photo_id)

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        candidates = [
            photo for photo in node.storage.photos() if photo.photo_id not in center.storage
        ]
        self.sim.uplink(self._farthest_first(candidates, center.storage), duration)

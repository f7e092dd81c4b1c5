"""Node photo storage with a byte capacity (the paper's ``S_a`` constraint)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.metadata import Photo

__all__ = ["NodeStorage", "StorageFullError"]


class StorageFullError(Exception):
    """Raised when a photo cannot be stored and the caller forbids eviction."""


class NodeStorage:
    """A bounded photo store.

    Photos are keyed by ``photo_id``; insertion order is preserved (useful
    for FIFO drop policies).  ``capacity_bytes=None`` means unlimited (the
    command center and the BestPossible scheme use this).

    ``generation`` counts :meth:`replace_all` calls, so an index a caller
    derives from the collection (the coverage scheme's eviction heap) can
    tell when the collection was swapped out from under it.
    """

    #: Class-level default: storages pickled before the counter existed
    #: restore at generation 0.
    generation = 0

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._photos: Dict[int, Photo] = {}
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> Optional[int]:
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self._used

    def fits(self, photo: Photo) -> bool:
        if self.capacity_bytes is None:
            return True
        return self._used + photo.size_bytes <= self.capacity_bytes

    def add(self, photo: Photo) -> None:
        """Store *photo*; raises :class:`StorageFullError` if it cannot fit."""
        if photo.photo_id in self._photos:
            return
        if not self.fits(photo):
            raise StorageFullError(
                f"photo {photo.photo_id} ({photo.size_bytes} B) exceeds free space"
            )
        self._photos[photo.photo_id] = photo
        self._used += photo.size_bytes

    def remove(self, photo_id: int) -> Optional[Photo]:
        photo = self._photos.pop(photo_id, None)
        if photo is not None:
            self._used -= photo.size_bytes
        return photo

    def replace_all(self, photos: Iterable[Photo]) -> None:
        """Set the collection wholesale (used after a completed reallocation).

        Raises ``ValueError`` if the photos exceed capacity -- callers are
        expected to hand in a feasible collection.
        """
        photo_list = list(photos)
        total = sum(p.size_bytes for p in photo_list)
        if self.capacity_bytes is not None and total > self.capacity_bytes:
            raise ValueError(f"collection of {total} B exceeds capacity {self.capacity_bytes} B")
        self._photos = {p.photo_id: p for p in photo_list}
        self._used = sum(p.size_bytes for p in self._photos.values())
        self.generation += 1

    def photos(self) -> List[Photo]:
        """The stored photos, insertion-ordered (a copy)."""
        return list(self._photos.values())

    def photo_ids(self) -> List[int]:
        return list(self._photos.keys())

    def __contains__(self, photo_id: int) -> bool:
        return photo_id in self._photos

    def __len__(self) -> int:
        return len(self._photos)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return f"NodeStorage(n={len(self)}, used={self._used}/{cap})"

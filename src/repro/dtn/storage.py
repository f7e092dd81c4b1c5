"""Node photo storage with a byte capacity (the paper's ``S_a`` constraint)."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.metadata import Photo

__all__ = ["NodeStorage", "StorageFullError"]


class StorageFullError(Exception):
    """Raised when a photo cannot be stored and the caller forbids eviction."""


class NodeStorage:
    """A bounded photo store.

    Photos are keyed by ``photo_id``; insertion order is preserved (useful
    for FIFO drop policies).  ``capacity_bytes=None`` means unlimited (the
    command center and the BestPossible scheme use this).
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._photos: Dict[int, Photo] = {}
        self._used = 0
        #: The smallest size ever stored (removals leave it), so a lower
        #: bound on every stored photo's size; ``inf`` before the first.
        self._min_size: float = math.inf
        #: ``(value function, min-heap of (value, -photo_id))``, built by
        #: :meth:`least_valuable`; the heap may hold removed photos.
        self._index: Optional[Tuple[Callable[[Photo], Any], List[tuple]]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_index"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = None
        if "_min_size" not in state:  # pickled before the field existed
            self._reset_min_size()

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> float:
        """Bytes left before capacity (``inf`` when unlimited)."""
        if self.capacity_bytes is None:
            return math.inf
        return self.capacity_bytes - self._used

    @property
    def min_size_bytes(self) -> float:
        """A lower bound on the size of every stored photo.

        The smallest size this storage has held since it was created or
        last :meth:`replace_all`-ed (``inf`` if none): O(1) to read, and
        :meth:`remove` never raises it.
        """
        return self._min_size

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
        if photo.size_bytes < self._min_size:
            self._min_size = photo.size_bytes
        if self._index is not None:
            value, heap = self._index
            heapq.heappush(heap, (value(photo), -photo.photo_id))

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
        self._reset_min_size()
        self._index = None

    def _reset_min_size(self) -> None:
        self._min_size = min((p.size_bytes for p in self._photos.values()), default=math.inf)

    def least_valuable(self, value: Callable[[Photo], Any]) -> Optional[Photo]:
        """The stored photo with the smallest ``(value(photo), -photo_id)``.

        That is the lowest-valued photo, the newest one on ties, or ``None``
        when storage is empty.  *value* must be static per photo: the
        answer comes from a heap built on the first call, which :meth:`add`
        keeps up to date, :meth:`remove` leaves to be pruned here, and
        :meth:`replace_all` (or a call with a *value* that compares
        unequal, such as a fresh lambda) discards.
        """
        if self._index is None or self._index[0] != value:
            heap = [(value(p), -photo_id) for photo_id, p in self._photos.items()]
            heapq.heapify(heap)
            self._index = (value, heap)
        heap = self._index[1]
        while heap and -heap[0][1] not in self._photos:
            heapq.heappop(heap)  # lazily drop photos that left storage
        return self._photos[-heap[0][1]] if heap else None

    def photos(self) -> List[Photo]:
        """The stored photos, insertion-ordered (a copy)."""
        return list(self._photos.values())

    def photo_ids(self) -> List[int]:
        return list(self._photos.keys())

    def newest_ids(self, count: int) -> List[int]:
        """The ids of the last *count* photos stored, insertion-ordered."""
        newest = list(itertools.islice(reversed(self._photos), count))
        newest.reverse()
        return newest

    def __contains__(self, photo_id: int) -> bool:
        return photo_id in self._photos

    def __len__(self) -> int:
        return len(self._photos)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return f"NodeStorage(n={len(self)}, used={self._used}/{cap})"

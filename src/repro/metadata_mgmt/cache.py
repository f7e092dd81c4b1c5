"""The per-node metadata cache (Section III-B).

Every node maintains its knowledge about every other node's photo metadata.
When two nodes meet they exchange (a) their own current photo metadata and
aggregate contact rate ``lambda``, and (b) -- in this implementation, as an
explicit design choice -- their cached entries about third parties, keeping
whichever copy is fresher.  The command center's metadata acts as the
acknowledgment channel: an entry for it tells a node which photos have
already been delivered.

Entries are validated lazily with Eq. 1 at read time; :meth:`MetadataCache.
valid_entries` returns only entries whose staleness probability is within
``P_thld``.  The command center never drops photos, so its entry is always
valid (the paper states this explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.metadata import Photo
from ..obs.runtime import active_telemetry
from ..traces.model import COMMAND_CENTER_ID
from .intercontact import DEFAULT_VALIDITY_THRESHOLD, metadata_is_valid

__all__ = ["CacheEntry", "MetadataCache"]


@dataclass(frozen=True)
class CacheEntry:
    """A snapshot of one node's photo metadata.

    Attributes
    ----------
    node_id:
        Whose metadata this is.
    photos:
        The owner's photo collection at snapshot time.  Only the metadata
        matters; :class:`Photo` objects double as metadata carriers since
        payloads are never simulated.
    aggregate_rate:
        The owner's ``lambda_a`` at snapshot time, used for Eq. 1.
    snapshot_time:
        When the snapshot was taken (simulation seconds).
    delivery_probability:
        The owner's PROPHET delivery probability to the command center at
        snapshot time -- needed to weight the entry in expected coverage.
    """

    node_id: int
    photos: Tuple[Photo, ...]
    aggregate_rate: float
    snapshot_time: float
    delivery_probability: float

    def is_valid_at(self, now: float, threshold: float = DEFAULT_VALIDITY_THRESHOLD) -> bool:
        """Eq. 1 validity check at time *now*."""
        elapsed = max(0.0, now - self.snapshot_time)
        return metadata_is_valid(self.aggregate_rate, elapsed, threshold)

    def degraded(self, photos: Tuple[Photo, ...], age_s: float = 0.0) -> "CacheEntry":
        """A corrupted copy of this entry: fewer photos, an older timestamp.

        Fault injection uses this to model in-flight metadata damage; the
        aged ``snapshot_time`` routes the entry into the Eq. 1 expiry path
        (:meth:`is_valid_at` / :meth:`MetadataCache.purge_stale`) at the
        receiver, so corrupted knowledge is re-validated and dropped
        instead of silently trusted.
        """
        if age_s < 0.0:
            raise ValueError(f"age_s must be non-negative, got {age_s}")
        return CacheEntry(
            node_id=self.node_id,
            photos=photos,
            aggregate_rate=self.aggregate_rate,
            snapshot_time=self.snapshot_time - age_s,
            delivery_probability=self.delivery_probability,
        )


class MetadataCache:
    """Cache of other nodes' metadata held by one node.

    Parameters
    ----------
    owner_id:
        The caching node (entries about itself are rejected).
    threshold:
        ``P_thld`` for Eq. 1 validation.
    """

    def __init__(
        self,
        owner_id: int,
        threshold: float = DEFAULT_VALIDITY_THRESHOLD,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.owner_id = owner_id
        self.threshold = threshold
        self._entries: Dict[int, CacheEntry] = {}

    def store(self, entry: CacheEntry) -> None:
        """Insert or refresh an entry, keeping the fresher snapshot."""
        if entry.node_id == self.owner_id:
            raise ValueError("a node does not cache its own metadata")
        existing = self._entries.get(entry.node_id)
        if existing is None or entry.snapshot_time >= existing.snapshot_time:
            self._entries[entry.node_id] = entry
            telemetry = active_telemetry()
            if telemetry is not None:
                telemetry.on_cache_event("store")

    def merge_from(self, other: "MetadataCache") -> int:
        """Adopt the fresher of each entry from a peer's cache.

        Returns the number of entries updated.  The peer's entry about
        *this* node is ignored (we know our own photos), and our entry
        about the peer is not part of their cache by construction.
        """
        updated = 0
        for node_id, entry in other._entries.items():
            if node_id == self.owner_id:
                continue
            existing = self._entries.get(node_id)
            if existing is None or entry.snapshot_time > existing.snapshot_time:
                self._entries[node_id] = entry
                updated += 1
        telemetry = active_telemetry()
        if telemetry is not None:
            telemetry.on_cache_event("merge_update", updated)
        return updated

    def get(self, node_id: int) -> Optional[CacheEntry]:
        return self._entries.get(node_id)

    def drop(self, node_id: int) -> None:
        self._entries.pop(node_id, None)

    def purge_stale(self, now: float) -> int:
        """Remove entries whose Eq. 1 staleness exceeds the threshold.

        The command center's entry is never purged.  Returns the number of
        entries removed.
        """
        stale = [
            node_id
            for node_id, entry in self._entries.items()
            if node_id != COMMAND_CENTER_ID
            and not entry.is_valid_at(now, self.threshold)
        ]
        for node_id in stale:
            del self._entries[node_id]
        telemetry = active_telemetry()
        if telemetry is not None:
            telemetry.on_cache_event("purged", len(stale))
        return len(stale)

    def valid_entries(self, now: float, exclude: Iterable[int] = ()) -> List[CacheEntry]:
        """Entries usable for coverage computation at time *now*.

        The command center's entry is always included when present;
        other entries pass the Eq. 1 check.  *exclude* removes nodes that
        participate in the contact directly (their live collections are
        used instead of cached snapshots).
        """
        excluded = set(exclude)
        valid: List[CacheEntry] = []
        expired = 0
        for node_id, entry in sorted(self._entries.items()):
            if node_id in excluded:
                continue
            if node_id == COMMAND_CENTER_ID or entry.is_valid_at(now, self.threshold):
                valid.append(entry)
            else:
                expired += 1
        telemetry = active_telemetry()
        if telemetry is not None:
            # Eq. 1 at read time: usable entries are hits, entries whose
            # staleness probability crossed P_thld are expiry misses.
            telemetry.on_cache_event("hit", len(valid))
            telemetry.on_cache_event("miss_expired", expired)
        return valid

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

"""DTN participant nodes and the command center.

A :class:`DTNNode` bundles everything one crowdsourcing participant
carries: bounded photo storage, the metadata cache, the inter-contact
estimator feeding Eq. 1, and a PROPHET table whose entry toward the
command center is the ``p_i`` of Definition 2.  Only the paper's scheme
reads (and so updates) the estimator and the PROPHET table.  ``scratch``
is a free-form dict where routing schemes keep per-node protocol state
(e.g. spray copy counters) without the node module knowing about every
scheme.

The :class:`CommandCenter` is the special node ``n_0``: unlimited storage,
delivery probability 1 (it trivially "delivers" to itself), and it never
drops photos -- so its metadata snapshot doubles as the acknowledgment
channel described in Section III-B.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.metadata import Photo
from ..metadata_mgmt.cache import CacheEntry, MetadataCache
from ..metadata_mgmt.intercontact import DEFAULT_VALIDITY_THRESHOLD, InterContactEstimator
from ..routing.prophet import ProphetParameters, ProphetTable
from ..traces.model import COMMAND_CENTER_ID
from .storage import NodeStorage

__all__ = ["DTNNode", "CommandCenter", "COMMAND_CENTER_ID"]


class DTNNode:
    """One crowdsourcing participant."""

    def __init__(
        self,
        node_id: int,
        storage_bytes: Optional[int],
        is_gateway: bool = False,
        prophet_params: ProphetParameters = ProphetParameters(),
        validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD,
    ) -> None:
        if node_id == COMMAND_CENTER_ID:
            raise ValueError(
                f"node id {node_id} is reserved for the command center; use CommandCenter"
            )
        self.node_id = node_id
        self.is_gateway = is_gateway
        self.storage = NodeStorage(storage_bytes)
        self.cache = MetadataCache(owner_id=node_id, threshold=validity_threshold)
        self.estimator = InterContactEstimator()
        self.prophet = ProphetTable(node_id, prophet_params)
        self.scratch: Dict[str, Any] = {}
        self._prophet_params = prophet_params
        self._validity_threshold = validity_threshold
        #: Liveness flag maintained by the simulator's fault layer; a down
        #: node takes no photos and joins no contacts until it restarts.
        self.alive = True
        self.crash_count = 0
        #: Optional :class:`~repro.dtn.faults.FaultInjector` the simulator
        #: attaches; when set, outgoing metadata snapshots may be corrupted.
        self.faults = None

    def crash(
        self,
        surviving_photos: Optional[List[Photo]] = None,
        wipe_protocol_state: bool = True,
    ) -> None:
        """Take the node down, keeping only *surviving_photos* in storage.

        ``surviving_photos=None`` preserves the whole collection (a pure
        outage).  *wipe_protocol_state* models a cold restart: the metadata
        cache, inter-contact statistics, PROPHET table, and per-scheme
        scratch state are all lost with the device.
        """
        self.alive = False
        self.crash_count += 1
        if surviving_photos is not None:
            self.storage.replace_all(surviving_photos)
        if wipe_protocol_state:
            self.cache = MetadataCache(
                owner_id=self.node_id, threshold=self._validity_threshold
            )
            self.estimator = InterContactEstimator()
            self.prophet = ProphetTable(self.node_id, self._prophet_params)
            self.scratch = {}

    def restart(self) -> None:
        """Bring the node back up (storage/state as the crash left them)."""
        self.alive = True

    def delivery_probability(self, now: float) -> float:
        """``p_i``: PROPHET predictability toward the command center."""
        return self.prophet.predictability(COMMAND_CENTER_ID, now)

    def snapshot_metadata(self, now: float) -> CacheEntry:
        """This node's own metadata snapshot, for handing to a contact peer.

        With a fault injector attached the snapshot may be corrupted in
        flight (photos dropped, timestamp aged) -- the receiver's Eq. 1
        validity check then re-validates the damaged entry.
        """
        entry = CacheEntry(
            node_id=self.node_id,
            photos=tuple(self.storage.photos()),
            aggregate_rate=self.estimator.aggregate_rate(),
            snapshot_time=now,
            delivery_probability=self.delivery_probability(now),
        )
        if self.faults is not None:
            entry = self.faults.maybe_corrupt_snapshot(entry)
        return entry

    def __repr__(self) -> str:
        gateway = ", gateway" if self.is_gateway else ""
        return f"DTNNode(id={self.node_id}, photos={len(self.storage)}{gateway})"


class CommandCenter:
    """The command center ``n_0``: unlimited storage, never drops photos."""

    node_id = COMMAND_CENTER_ID

    def __init__(self) -> None:
        self.storage = NodeStorage(capacity_bytes=None)
        self.received_count = 0

    def receive(self, photo: Photo) -> bool:
        """Store *photo*; returns False if it was already delivered."""
        if photo.photo_id in self.storage:
            return False
        self.storage.add(photo)
        self.received_count += 1
        return True

    def snapshot_metadata(self, now: float) -> CacheEntry:
        """Acknowledgment snapshot: what has been delivered so far.

        The command center never drops photos, so its entries never expire
        (``aggregate_rate=0`` keeps Eq. 1 at probability 0 forever, and the
        cache additionally special-cases the command center).
        """
        return CacheEntry(
            node_id=self.node_id,
            photos=tuple(self.storage.photos()),
            aggregate_rate=0.0,
            snapshot_time=now,
            delivery_probability=1.0,
        )

    def photos(self) -> List[Photo]:
        return self.storage.photos()

    def __repr__(self) -> str:
        return f"CommandCenter(id={self.node_id}, photos={len(self.storage)})"

"""The paper's scheme: coverage-aware photo selection routing (Section III).

On every contact the two nodes (a) update PROPHET predictabilities and
contact statistics, (b) exchange and validate metadata (Section III-B),
(c) solve the greedy photo-reallocation problem maximizing expected
coverage over the node set M (Sections III-C/III-D), and (d) execute the
resulting transfer plan under the contact's byte budget, most valuable
photos first.

On a gateway uplink, the command center acts as the free node with
delivery probability 1 and unlimited storage: it greedily pulls exactly
the photos that still add coverage (which is why the scheme delivers
dramatically fewer -- but more valuable -- photos than spray baselines,
Figs. 7(c)/8(c)).  The node then re-selects its own collection against the
command center's new holdings, which realizes the acknowledgment
semantics: delivered or newly redundant photos are dropped, freeing
storage.

``use_metadata_cache=False`` turns the scheme into the paper's
**NoMetadata** ablation: no third-party metadata is cached or used, so
the node set M degenerates to the two contact participants (plus the
command center itself during uplinks).

The scheme is the only reader of a node's PROPHET table (the ``p_i`` of
expected coverage, Section III-C) and of its inter-contact estimator (the
aggregate rate a metadata snapshot carries for Eq. 1), so it is also the
only scheme that updates them.  NoMetadata hands out no snapshots and so
keeps no contact history.

The scheme keeps one kind of derived state: a per-node memo of background
profiles, rebuilt on demand and left out of pickles (service snapshots).
It changes no decision; it only avoids rebuilding a profile the previous
event already built.  The eviction index is the storage's own
(:meth:`~repro.dtn.storage.NodeStorage.least_valuable`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..core.expected_coverage import NodeProfile, build_node_profile
from ..core.metadata import Photo
from ..core.selection import StorageSpec, greedy_reallocate, greedy_select
from ..core.transfer import build_transfer_plan, execute_transfer_plan
from ..metadata_mgmt.cache import CacheEntry
from .base import RoutingScheme
from .registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.node import CommandCenter, DTNNode

__all__ = ["CoverageSelectionScheme"]


@register_scheme("our-scheme", use_metadata_cache=True)
@register_scheme("no-metadata", use_metadata_cache=False)
class CoverageSelectionScheme(RoutingScheme):
    """Our scheme (or NoMetadata when *use_metadata_cache* is off)."""

    #: Background profiles memoized per node (see :meth:`_profile`).
    PROFILE_SLOTS = 4

    def __init__(
        self,
        use_metadata_cache: bool = True,
        min_delivery_probability: float = 0.02,
    ) -> None:
        super().__init__()
        if not 0.0 <= min_delivery_probability <= 1.0:
            raise ValueError(
                f"min_delivery_probability must be in [0, 1], got {min_delivery_probability}"
            )
        self.use_metadata_cache = use_metadata_cache
        #: Cold-start floor on PROPHET probabilities during selection.  A
        #: node that has never (transitively) met the command center has
        #: p = 0, which would zero every expected gain and make contacts
        #: drop all photos; the floor keeps selection meaningful -- useful
        #: photos are still hoarded and replicated optimistically -- while
        #: real probability differences keep dominating the ordering.
        self.min_delivery_probability = min_delivery_probability
        self.name = "our-scheme" if use_metadata_cache else "no-metadata"
        self._reset_derived_state()

    def _reset_derived_state(self) -> None:
        #: node id -> [(photos, probability, profile built from them)],
        #: least recently used first.
        self._profile_memo: Dict[int, List[Tuple[Tuple[Photo, ...], float, NodeProfile]]] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_profile_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_derived_state()

    def _selection_probability(self, node: DTNNode, now: float) -> float:
        return max(node.delivery_probability(now), self.min_delivery_probability)

    # ------------------------------------------------------------------
    # Photo creation
    # ------------------------------------------------------------------

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        """Store the new photo, evicting the least useful photo if full.

        Photos that cover no PoI are still stored when space is free (the
        metadata inspection that proves them worthless happens at the next
        contact anyway), but they are first in line for eviction.
        """
        if node.storage.fits(photo):
            node.storage.add(photo)
            return
        victim = node.storage.least_valuable(self._incidence_count)
        if victim is not None and self._incidence_count(photo) > self._incidence_count(victim):
            node.storage.remove(victim.photo_id)
            if node.storage.fits(photo):
                node.storage.add(photo)

    def _incidence_count(self, photo: Photo) -> int:
        """A photo's eviction value: the number of PoIs it covers."""
        return len(self.sim.incidences(photo))

    # ------------------------------------------------------------------
    # Node-node contacts
    # ------------------------------------------------------------------

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        # PROPHET: the direct encounter first, then transitivity through
        # the peer's aged table.
        prophet_a, prophet_b = node_a.prophet, node_b.prophet
        prophet_a.on_encounter(node_b.node_id, now)
        prophet_b.on_encounter(node_a.node_id, now)
        snapshot_a = prophet_a.snapshot(now)
        snapshot_b = prophet_b.snapshot(now)
        prophet_a.apply_transitivity(node_b.node_id, snapshot_b, now)
        prophet_b.apply_transitivity(node_a.node_id, snapshot_a, now)

        if self.use_metadata_cache:
            node_a.estimator.record_contact(node_b.node_id, now)
            node_b.estimator.record_contact(node_a.node_id, now)
            # Exchange caches first (fresher entry wins), then each other's
            # live snapshots, then drop entries Eq. 1 declares stale.
            node_a.cache.merge_from(node_b.cache)
            node_b.cache.merge_from(node_a.cache)
            node_a.cache.store(node_b.snapshot_metadata(now))
            node_b.cache.store(node_a.snapshot_metadata(now))
            node_a.cache.purge_stale(now)
            node_b.cache.purge_stale(now)

        background = self._background_profiles(node_a, node_b, now)

        spec_a = StorageSpec(
            node_id=node_a.node_id,
            capacity_bytes=node_a.storage.capacity_bytes,
            delivery_probability=self._selection_probability(node_a, now),
        )
        spec_b = StorageSpec(
            node_id=node_b.node_id,
            capacity_bytes=node_b.storage.capacity_bytes,
            delivery_probability=self._selection_probability(node_b, now),
        )
        result = greedy_reallocate(
            self.sim.index,
            node_a.storage.photos(),
            node_b.storage.photos(),
            spec_a,
            spec_b,
            background,
        )
        storages = {node_a.node_id: node_a.storage, node_b.node_id: node_b.storage}
        plan = build_transfer_plan(result, storages)
        execute_transfer_plan(
            plan,
            result,
            storages,
            self.sim.transfer_survives if self.sim.faults else None,
            byte_budget=self.sim.byte_budget(duration),
        )

        if self.use_metadata_cache:
            # Post-transfer snapshots so each peer leaves with fresh state.
            node_a.cache.store(node_b.snapshot_metadata(now))
            node_b.cache.store(node_a.snapshot_metadata(now))

    def _background_profiles(
        self, node_a: DTNNode, node_b: DTNNode, now: float
    ) -> List[NodeProfile]:
        """Profiles of every node in M other than the two participants."""
        if not self.use_metadata_cache:
            return []
        exclude = {node_a.node_id, node_b.node_id}
        entries: Dict[int, CacheEntry] = {}
        for cache in (node_a.cache, node_b.cache):
            for entry in cache.valid_entries(now, exclude=exclude):
                existing = entries.get(entry.node_id)
                if existing is None or entry.snapshot_time > existing.snapshot_time:
                    entries[entry.node_id] = entry
        profiles = []
        for entry in sorted(entries.values(), key=lambda e: e.node_id):
            probability = 1.0 if entry.node_id == self.sim.config.command_center_id else (
                entry.delivery_probability
            )
            profiles.append(self._profile(entry.node_id, entry.photos, probability))
        return profiles

    def _profile(self, node_id: int, photos: Tuple[Photo, ...], probability: float) -> NodeProfile:
        """:func:`build_node_profile`, memoized per node.

        A profile depends only on the node, its photos and the probability,
        so it is reused for as long as a node's photos stay the same --
        across contacts, across caches, and across the fresh snapshot a
        node hands out at every contact.  Snapshots share photos by
        reference, so comparing them is mostly identity checks.  A snapshot
        time is no key: a corrupted copy of a snapshot keeps the original's
        time but loses photos.  Each node keeps its :attr:`PROFILE_SLOTS`
        most recently used profiles: different caches hold different
        generations of one node's snapshot, and contacts alternate between
        them.
        """
        slots = self._profile_memo.setdefault(node_id, [])
        for i, (known, known_probability, profile) in enumerate(slots):
            if known_probability == probability and known == photos:
                if i != len(slots) - 1:
                    slots.append(slots.pop(i))
                return profile
        profile = build_node_profile(self.sim.index, node_id, photos, probability)
        slots.append((photos, probability, profile))
        if len(slots) > self.PROFILE_SLOTS:
            del slots[0]
        return profile

    # ------------------------------------------------------------------
    # Gateway uplinks
    # ------------------------------------------------------------------

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        node.prophet.on_encounter(center.node_id, now)

        center_profile = self._profile(center.node_id, tuple(center.storage.photos()), 1.0)
        background: List[NodeProfile] = [center_profile]
        if self.use_metadata_cache:
            node.estimator.record_contact(center.node_id, now)
            node.cache.purge_stale(now)
            for entry in node.cache.valid_entries(
                now, exclude={node.node_id, center.node_id}
            ):
                background.append(
                    self._profile(entry.node_id, entry.photos, entry.delivery_probability)
                )

        # The command center selects, with probability 1, the photos that
        # still add coverage; its own archive is background so already
        # delivered or redundant photos get zero gain.
        selection = greedy_select(
            self.sim.index,
            node.storage.photos(),
            StorageSpec(center.node_id, None, 1.0),
            background,
        )
        self.sim.uplink(selection.photos, duration)

        # Acknowledgment: the node re-selects its collection against the
        # command center's updated archive, dropping redundant photos.
        ack_profile = self._profile(center.node_id, tuple(center.storage.photos()), 1.0)
        node_background = [ack_profile] + background[1:]
        keep = greedy_select(
            self.sim.index,
            node.storage.photos(),
            StorageSpec(
                node.node_id,
                node.storage.capacity_bytes,
                self._selection_probability(node, now),
            ),
            node_background,
        )
        node.storage.replace_all(keep.photos)

        if self.use_metadata_cache:
            node.cache.store(center.snapshot_metadata(now))

"""Tests for the DTN substrate: events, storage, nodes, command center."""

from __future__ import annotations

import pytest

from repro.core.metadata import Photo
from repro.dtn.events import Event, EventKind, EventQueue
from repro.dtn.node import COMMAND_CENTER_ID, CommandCenter, DTNNode
from repro.dtn.storage import NodeStorage, StorageFullError

from helpers import MB, make_photo


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.CONTACT))
        queue.push(Event(1.0, EventKind.CONTACT))
        queue.push(Event(3.0, EventKind.CONTACT))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_kind_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(Event(1.0, EventKind.SAMPLE))
        queue.push(Event(1.0, EventKind.PHOTO_CREATED))
        queue.push(Event(1.0, EventKind.CONTACT))
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == [EventKind.PHOTO_CREATED, EventKind.CONTACT, EventKind.SAMPLE]

    def test_insertion_order_breaks_full_ties(self):
        queue = EventQueue()
        first = Event(1.0, EventKind.CONTACT, "a")
        second = Event(1.0, EventKind.CONTACT, "b")
        queue.push(first)
        queue.push(second)
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "b"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(Event(2.0, EventKind.END))
        assert queue.peek_time() == 2.0

    def test_drain_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.push(Event(t, EventKind.CONTACT))
        drained = list(queue.drain_until(2.0))
        assert [e.time for e in drained] == [1.0, 2.0]
        assert len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.CONTACT)

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(Event(0.0, EventKind.END))
        assert queue and len(queue) == 1


class TestNodeStorage:
    def test_add_and_remove(self):
        storage = NodeStorage(10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        storage.add(photo)
        assert photo.photo_id in storage
        assert storage.used_bytes == 4 * MB
        removed = storage.remove(photo.photo_id)
        assert removed == photo
        assert storage.used_bytes == 0

    def test_duplicate_add_is_noop(self):
        storage = NodeStorage(10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        storage.add(photo)
        storage.add(photo)
        assert storage.used_bytes == 4 * MB

    def test_overfull_add_raises(self):
        storage = NodeStorage(4 * MB)
        storage.add(make_photo(0, 0, 0, size_bytes=4 * MB))
        with pytest.raises(StorageFullError):
            storage.add(make_photo(0, 0, 0, size_bytes=1))

    def test_fits(self):
        storage = NodeStorage(4 * MB)
        assert storage.fits(make_photo(0, 0, 0, size_bytes=4 * MB))
        assert not storage.fits(make_photo(0, 0, 0, size_bytes=5 * MB))

    def test_unlimited_storage(self):
        storage = NodeStorage(None)
        assert storage.free_bytes is None
        for _ in range(100):
            storage.add(make_photo(0, 0, 0, size_bytes=10 * MB))
        assert len(storage) == 100

    def test_replace_all(self):
        storage = NodeStorage(20 * MB)
        storage.add(make_photo(0, 0, 0, size_bytes=4 * MB))
        replacement = [make_photo(0, 0, 0, size_bytes=4 * MB) for _ in range(2)]
        storage.replace_all(replacement)
        assert storage.photo_ids() == [p.photo_id for p in replacement]

    def test_replace_all_rejects_overflow(self):
        storage = NodeStorage(4 * MB)
        with pytest.raises(ValueError):
            storage.replace_all([make_photo(0, 0, 0, size_bytes=4 * MB) for _ in range(2)])

    def test_insertion_order_preserved(self):
        storage = NodeStorage(None)
        photos = [make_photo(0, 0, 0) for _ in range(3)]
        for photo in photos:
            storage.add(photo)
        assert storage.photos() == photos

    def test_remove_missing_returns_none(self):
        assert NodeStorage(None).remove(12345) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodeStorage(-1)


class TestDTNNode:
    def test_reserved_id_rejected(self):
        with pytest.raises(ValueError):
            DTNNode(node_id=COMMAND_CENTER_ID, storage_bytes=MB)

    def test_delivery_probability_starts_zero(self):
        node = DTNNode(node_id=1, storage_bytes=MB)
        assert node.delivery_probability(now=0.0) == 0.0

    def test_delivery_probability_after_cc_encounter(self):
        node = DTNNode(node_id=1, storage_bytes=MB)
        node.prophet.on_encounter(COMMAND_CENTER_ID, now=0.0)
        assert node.delivery_probability(now=0.0) == pytest.approx(0.75)

    def test_snapshot_metadata(self):
        node = DTNNode(node_id=1, storage_bytes=10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        node.storage.add(photo)
        node.estimator.record_contact(2, 0.0)
        node.estimator.record_contact(2, 100.0)
        snapshot = node.snapshot_metadata(now=100.0)
        assert snapshot.node_id == 1
        assert snapshot.photos == (photo,)
        assert snapshot.aggregate_rate == pytest.approx(0.01)
        assert snapshot.snapshot_time == 100.0

    def test_gateway_flag(self):
        assert DTNNode(2, MB, is_gateway=True).is_gateway
        assert not DTNNode(3, MB).is_gateway

    def test_scratch_is_per_node(self):
        a, b = DTNNode(1, MB), DTNNode(2, MB)
        a.scratch["x"] = 1
        assert "x" not in b.scratch


class TestCommandCenter:
    def test_receive_deduplicates(self):
        center = CommandCenter()
        photo = make_photo(0, 0, 0)
        assert center.receive(photo)
        assert not center.receive(photo)
        assert center.received_count == 1

    def test_unlimited_storage(self):
        center = CommandCenter()
        for _ in range(50):
            center.receive(make_photo(0, 0, 0, size_bytes=100 * MB))
        assert center.received_count == 50

    def test_snapshot_never_expires(self):
        center = CommandCenter()
        snapshot = center.snapshot_metadata(now=1000.0)
        assert snapshot.aggregate_rate == 0.0
        assert snapshot.delivery_probability == 1.0
        assert snapshot.is_valid_at(now=1e12)

    def test_photos_listing(self):
        center = CommandCenter()
        photo = make_photo(0, 0, 0)
        center.receive(photo)
        assert center.photos() == [photo]

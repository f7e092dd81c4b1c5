"""Tests for the DTN substrate: events, storage, nodes, command center."""

from __future__ import annotations

import heapq
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metadata import Photo
from repro.dtn.events import Event, EventKind, EventQueue
from repro.dtn.node import COMMAND_CENTER_ID, CommandCenter, DTNNode
from repro.dtn.storage import NodeStorage, StorageFullError
from repro.workload.photos import PhotoArrival

from helpers import MB, make_photo

ALL_KINDS = (
    EventKind.PHOTO_CREATED,
    EventKind.NODE_RESTART,
    EventKind.NODE_CRASH,
    EventKind.CONTACT,
    EventKind.SAMPLE,
    EventKind.END,
)

#: ``pickle.dumps(queue, protocol=4)`` of a queue from before the arrival
#: lane existed (a heap and a sequence counter only), holding a contact at
#: 5 s and the end at 9 s -- what a service snapshot of that code holds.
PRE_LANE_QUEUE_PICKLE = (
    b"\x80\x04\x95\xe1\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.dtn.events\x94\x8c\nEventQueue"
    b"\x94\x93\x94)\x81\x94}\x94(\x8c\x05_heap\x94]\x94((G@\x14\x00\x00\x00\x00\x00\x00K\x03K"
    b"\x00h\x00\x8c\x05Event\x94\x93\x94)\x81\x94}\x94(\x8c\x04time\x94G@\x14\x00\x00\x00\x00"
    b"\x00\x00\x8c\x04kind\x94K\x03\x8c\x07payload\x94K\x01K\x02G@N\x00\x00\x00\x00\x00\x00\x87"
    b"\x94ubt\x94(G@\"\x00\x00\x00\x00\x00\x00K\x05K\x01h\x08)\x81\x94}\x94(h\x0bG@\"\x00\x00"
    b"\x00\x00\x00\x00h\x0cK\x05h\rNubt\x94e\x8c\t_sequence\x94\x8c\titertools\x94\x8c\x05count"
    b"\x94\x93\x94K\x02\x85\x94R\x94ub."
)


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.CONTACT)

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue([PhotoArrival(3.0, 1, "a"), PhotoArrival(-1.0, 1, "b")])

    def test_arrival_lane_pops_as_photo_created_events(self):
        queue = EventQueue([PhotoArrival(2.0, 7, "late"), PhotoArrival(1.0, 8, "early")])
        queue.push(Event(1.0, EventKind.CONTACT, "contact"))
        assert len(queue) == 3
        events = [queue.pop() for _ in range(3)]
        assert [(e.time, e.kind, e.payload) for e in events] == [
            (1.0, EventKind.PHOTO_CREATED, (8, "early")),
            (1.0, EventKind.CONTACT, "contact"),
            (2.0, EventKind.PHOTO_CREATED, (7, "late")),
        ]
        assert not queue

    def test_lane_does_not_consume_the_callers_list(self):
        arrivals = [PhotoArrival(1.0, 1, "a")]
        queue = EventQueue(arrivals)
        queue.pop()
        assert arrivals == [PhotoArrival(1.0, 1, "a")]

    def test_queue_pickled_before_the_lane_loads(self):
        queue = pickle.loads(PRE_LANE_QUEUE_PICKLE)
        assert len(queue) == 2
        queue.push(Event(5.0, EventKind.SAMPLE, "sample"))
        events = [queue.pop() for _ in range(3)]
        assert [(e.time, e.kind) for e in events] == [
            (5.0, EventKind.CONTACT), (5.0, EventKind.SAMPLE), (9.0, EventKind.END),
        ]
        assert events[0].payload == (1, 2, 60.0)
        assert not queue

    def test_queue_with_a_lane_round_trips_through_pickle(self):
        queue = EventQueue([PhotoArrival(1.0, 1, "a"), PhotoArrival(4.0, 2, "b")])
        queue.push(Event(2.0, EventKind.CONTACT, "c"))
        queue.pop()
        restored = pickle.loads(pickle.dumps(queue))
        assert [restored.pop().payload for _ in range(2)] == ["c", (2, "b")]

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(Event(0.0, EventKind.END))
        assert queue and len(queue) == 1


# Few distinct times, so equal-time ties between arrivals and every other
# kind are common.
_times = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_steps = st.lists(
    st.one_of(st.just(None), st.tuples(_times, st.sampled_from(ALL_KINDS))), max_size=40
)


@given(arrival_times=st.lists(_times, max_size=25), steps=_steps)
def test_arrival_lane_pops_in_single_heap_order(arrival_times, steps):
    """``EventQueue(arrivals)`` plus interleaved pushes and pops gives the
    order of one ``(time, kind, sequence)`` heap into which the arrivals
    were pushed first, in the given (unsorted) order.  A step is a push of
    ``(time, kind)`` or, as ``None``, a pop."""
    arrivals = [PhotoArrival(t, i, f"arrival-{i}") for i, t in enumerate(arrival_times)]
    queue = EventQueue(arrivals)
    reference = []
    for a in arrivals:
        payload = (a.owner_id, a.photo)
        heapq.heappush(reference, (a.time, EventKind.PHOTO_CREATED, len(reference), payload))
    sequence = len(reference)

    def pop_both():
        if not reference:
            with pytest.raises(IndexError):
                queue.pop()
            return
        time, kind, _, payload = heapq.heappop(reference)
        event = queue.pop()
        assert (event.time, event.kind, event.payload) == (time, kind, payload)

    for step in steps:
        if step is None:
            pop_both()
        else:
            time, kind = step
            payload = f"push-{sequence}"
            queue.push(Event(time, kind, payload))
            heapq.heappush(reference, (time, kind, sequence, payload))
            sequence += 1
        assert len(queue) == len(reference)
    while reference:
        pop_both()
    assert not queue


class TestNodeStorage:
    def test_newest_ids_are_the_last_stored_in_order(self):
        storage = NodeStorage(None)
        photos = [make_photo(i, 0, 0) for i in range(5)]
        for photo in photos:
            storage.add(photo)
        storage.remove(photos[3].photo_id)
        ids = [p.photo_id for p in photos]
        assert storage.newest_ids(0) == []
        assert storage.newest_ids(2) == [ids[2], ids[4]]
        assert storage.newest_ids(9) == [ids[0], ids[1], ids[2], ids[4]]

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

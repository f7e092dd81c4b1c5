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
from repro.dtn.simulator import SimulationConfig
from repro.dtn.storage import NodeStorage, StorageFullError
from repro.metadata_mgmt.cache import CacheEntry
from repro.metadata_mgmt.intercontact import InterContactEstimator
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


#: ``pickle.dumps(obj, protocol=4)`` of objects from when the command
#: center's id and the estimator's ``min_observations`` and ``prior_rate``
#: were settings, each at the value every caller used; service snapshots
#: hold all three.  ``SimulationConfig()``; ``DTNNode(3, 1000)`` after
#: contacts with node 2 at 0 and 100 s and a PROPHET encounter with the
#: command center at 0 s; an ``InterContactEstimator`` after contacts with
#: node 2 at 0, 50 and 150 s and with node 5 at 20 s.
SETTINGS_ERA_CONFIG_PICKLE = bytes.fromhex(
    "8004959c010000000000008c13726570726f2e64746e2e73696d756c61746f72"
    "948c1053696d756c6174696f6e436f6e6669679493942981947d94288c0d7374"
    "6f726167655f6279746573944a666666268c1562616e6477696474685f627974"
    "65735f7065725f73944741400000000000008c12756e6c696d697465645f636f"
    "6e746163747394898c16636f6e746163745f6475726174696f6e5f6361705f73"
    "944e8c0f6566666563746976655f616e676c6594473fe0c152382d73658c1276"
    "616c69646974795f7468726573686f6c6494473fe999999999999a8c0770726f"
    "70686574948c15726570726f2e726f7574696e672e70726f70686574948c1150"
    "726f70686574506172616d65746572739493942981947d94288c06705f696e69"
    "7494473fe80000000000008c046265746194473fd00000000000008c0567616d"
    "6d6194473fef5c28f5c28f5c8c0974696d655f756e6974944740ac2000000000"
    "0075628c1173616d706c655f696e74657276616c5f73944740e1940000000000"
    "8c11636f6d6d616e645f63656e7465725f6964944b008c0a6661756c745f706c"
    "616e944e75622e"
)
SETTINGS_ERA_NODE_PICKLE = bytes.fromhex(
    "8004953d030000000000008c0e726570726f2e64746e2e6e6f6465948c074454"
    "4e4e6f64659493942981947d94288c076e6f64655f6964944b038c0a69735f67"
    "61746577617994898c0773746f72616765948c11726570726f2e64746e2e7374"
    "6f72616765948c0b4e6f646553746f726167659493942981947d94288c0e6361"
    "7061636974795f6279746573944de8038c075f70686f746f73947d948c055f75"
    "736564944b0075628c056361636865948c19726570726f2e6d65746164617461"
    "5f6d676d742e6361636865948c0d4d6574616461746143616368659493942981"
    "947d94288c086f776e65725f6964944b038c11636f6d6d616e645f63656e7465"
    "725f6964944b008c097468726573686f6c6494473fe999999999999a8c085f65"
    "6e7472696573947d9475628c09657374696d61746f72948c20726570726f2e6d"
    "657461646174615f6d676d742e696e746572636f6e74616374948c15496e7465"
    "72436f6e74616374457374696d61746f729493942981947d94288c106d696e5f"
    "6f62736572766174696f6e73944b018c0a7072696f725f726174659447000000"
    "00000000008c0d5f6c6173745f636f6e74616374947d944b0247405900000000"
    "0000738c0a5f6761705f636f756e74947d944b024b01738c0a5f6761705f746f"
    "74616c947d944b024740590000000000007375628c0770726f70686574948c15"
    "726570726f2e726f7574696e672e70726f70686574948c0c50726f7068657454"
    "61626c659493942981947d942868174b038c06706172616d7394682b8c115072"
    "6f70686574506172616d65746572739493942981947d94288c06705f696e6974"
    "94473fe80000000000008c046265746194473fd00000000000008c0567616d6d"
    "6194473fef5c28f5c28f5c8c0974696d655f756e6974944740ac200000000000"
    "75628c0f5f707265646963746162696c697479947d944b00473fe80000000000"
    "00738c0a5f6c6173745f61676564947d944b0047000000000000000073756268"
    "184b008c0773637261746368947d948c0f5f70726f706865745f706172616d73"
    "9468338c135f76616c69646974795f7468726573686f6c6494473fe999999999"
    "999a8c05616c69766594888c0b63726173685f636f756e74944b008c06666175"
    "6c7473944e75622e"
)
SETTINGS_ERA_ESTIMATOR_PICKLE = bytes.fromhex(
    "800495ca000000000000008c20726570726f2e6d657461646174615f6d676d74"
    "2e696e746572636f6e74616374948c15496e746572436f6e7461637445737469"
    "6d61746f729493942981947d94288c106d696e5f6f62736572766174696f6e73"
    "944b018c0a7072696f725f72617465944700000000000000008c0d5f6c617374"
    "5f636f6e74616374947d94284b02474062c000000000004b0547403400000000"
    "0000758c0a5f6761705f636f756e74947d944b024b02738c0a5f6761705f746f"
    "74616c947d944b02474062c000000000007375622e"
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


class TestUnpicklesSettingsEraObjects:
    def test_loaded_objects_behave_like_fresh_ones(self):
        assert pickle.loads(SETTINGS_ERA_CONFIG_PICKLE) == SimulationConfig()

        estimator = pickle.loads(SETTINGS_ERA_ESTIMATOR_PICKLE)
        fresh_estimator = InterContactEstimator()
        for peer, time in ((2, 0.0), (2, 50.0), (2, 150.0), (5, 20.0)):
            fresh_estimator.record_contact(peer, time)
        assert estimator == fresh_estimator
        assert estimator.pair_rate(2) == fresh_estimator.pair_rate(2) == 2 / 150.0
        assert estimator.pair_rate(5) == 0.0
        assert estimator.aggregate_rate() == fresh_estimator.aggregate_rate()

        node = pickle.loads(SETTINGS_ERA_NODE_PICKLE)
        fresh = DTNNode(3, 1000)
        fresh.estimator.record_contact(2, 0.0)
        fresh.estimator.record_contact(2, 100.0)
        fresh.prophet.on_encounter(COMMAND_CENTER_ID, now=0.0)
        # An entry Eq. 1 would expire at once, but the command center's
        # entries never expire.
        center = CacheEntry(COMMAND_CENTER_ID, (), 100.0, 0.0, 1.0)
        for candidate in (node, fresh):
            candidate.cache.store(center)
            assert candidate.cache.purge_stale(now=1e6) == 0
        for now in (0.0, 500.0):
            assert node.delivery_probability(now) == fresh.delivery_probability(now)
            assert node.snapshot_metadata(now) == fresh.snapshot_metadata(now)
        node.crash()
        fresh.crash()
        node.cache.store(center)
        assert node.cache.purge_stale(now=1e6) == 0
        assert node.delivery_probability(10.0) == fresh.delivery_probability(10.0)

"""``Simulation.run()`` dispatches in the order of one event heap.

The simulator's loop takes photo arrivals straight off the event queue's
lane and pops only contacts, crashes, restarts, samples and the end from
its heap.  :func:`run_in_one_heap` is the test-side oracle: it pushes
every event, arrivals first in the order given, into one ``(time, kind,
sequence)`` heap and dispatches them one by one, as the loop did before
the lane existed.  A run and its oracle twin, built from the same inputs,
must call the simulator's handlers in the same order with the same
arguments, and end with the same result.

The generated runs tie arrivals in time with contacts, fault-plan crashes
and restarts, samples and the end, and schedule arrivals and contacts
after the end.  The module runs with numpy absent.
"""

from __future__ import annotations

import heapq
import itertools
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.dtn.events import EventKind
from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.routing.base import RoutingScheme
from repro.service.client import iter_scenario_events
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

from helpers import MB, make_photo, result_digest

NODES = (1, 2, 3, 4)  # participants; the command center is node 0
TIMES = tuple(100.0 * i for i in range(11))
SAMPLE_INTERVAL_S = 200.0
POIS = PoIList.from_points([Point(0.0, 0.0), Point(60.0, 0.0), Point(0.0, 60.0)])
#: Crashes only: no contact-level fault draws from the injector's stream,
#: so contacts added at crash times leave the crash schedule unchanged.
CHURN = dict(crash_rate_per_node_hour=4.0, mean_downtime_s=150.0, storage_loss_fraction=0.5)
HANDLERS = (
    "handle_photo_created", "handle_contact", "crash_node", "restart_node", "_record_sample",
)


class RecordingScheme(RoutingScheme):
    """Logs each callback; keeps what fits and uplinks what it holds."""

    name = "recording"

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_photo_created(self, node, photo, now):
        self.log.append(("photo", node.node_id, photo.photo_id, now))
        if node.storage.fits(photo):
            node.storage.add(photo)

    def on_contact(self, node_a, node_b, now, duration):
        self.log.append(("contact", node_a.node_id, node_b.node_id, now, duration))

    def on_command_center_contact(self, node, center, now, duration):
        arrived = self.sim.uplink(node.storage.photos(), duration)
        self.log.append(("uplink", node.node_id, now, duration, [p.photo_id for p in arrived]))


def record_handlers(sim, log):
    """Log every call of the simulator's event handlers, then make it."""
    for name in HANDLERS:
        handler = getattr(sim, name)

        def recorded(*args, _name=name, _handler=handler):
            log.append((_name,) + tuple(
                arg.photo_id if hasattr(arg, "photo_id") else arg for arg in args
            ))
            return _handler(*args)

        setattr(sim, name, recorded)


def run_in_one_heap(sim, arrivals):
    """Drain *sim* as one ``(time, kind, sequence)`` heap would.

    The arrivals get the first sequence numbers, in the order given; the
    events ``Simulation.__init__`` pushed follow with theirs.  Dispatch is
    the event loop's, one popped event at a time.
    """
    heap = [
        (a.time, EventKind.PHOTO_CREATED, seq, (a.owner_id, a.photo))
        for seq, a in enumerate(arrivals)
    ]
    heap += [
        (time, kind, len(arrivals) + seq, event.payload)
        for time, kind, seq, event in sim._queue._heap
    ]
    heapq.heapify(heap)
    sequence = itertools.count(len(heap))
    while heap:
        time, kind, _, payload = heapq.heappop(heap)
        sim._now = time
        if kind == EventKind.PHOTO_CREATED:
            sim.handle_photo_created(payload[0], payload[1], time)
        elif kind == EventKind.CONTACT:
            scale = payload[3] if len(payload) > 3 else 1.0
            sim.handle_contact(payload[0], payload[1], time, payload[2], scale)
        elif kind == EventKind.NODE_CRASH:
            node_id, restart_time = payload
            if sim.crash_node(node_id):
                restart = (restart_time, EventKind.NODE_RESTART, next(sequence), node_id)
                heapq.heappush(heap, restart)
        elif kind == EventKind.NODE_RESTART:
            sim.restart_node(payload)
        elif kind == EventKind.SAMPLE:
            sim._record_sample(time)
        elif kind == EventKind.END:
            sim._record_sample(time)
            break
    sim.result.final_coverage = sim.center_coverage()
    sim.result.delivered_photos = sim.command_center.received_count
    return sim.result


def simulation(contacts, arrivals, plan, end_time, log):
    config = SimulationConfig(
        storage_bytes=3 * 4 * MB,
        sample_interval_s=SAMPLE_INTERVAL_S,
        fault_plan=plan,
    )
    return Simulation(
        trace=ContactTrace(contacts),
        pois=POIS,
        photo_arrivals=arrivals,
        scheme=RecordingScheme(log),
        config=config,
        gateway_ids=(1,),
        end_time_s=end_time,
    )


node = st.sampled_from(NODES)
peer = st.sampled_from((0,) + NODES)
duration = st.sampled_from([0.0, 1.0, 5.0, 30.0])
#: Photos around the PoIs, some covering them.
photo = st.builds(
    lambda x, y, heading: make_photo(x, y, heading, coverage_range=80.0),
    st.sampled_from([-30.0, 0.0, 30.0]),
    st.sampled_from([-30.0, 0.0, 30.0]),
    st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0]),
)


@st.composite
def runs(draw):
    """Contacts and arrivals on a coarse time grid, plus ties with the
    crash schedule: ``(contacts, arrivals, plan, end_time)``."""
    # Every participant appears in the trace, so the participant set (and
    # with it the crash schedule) does not depend on what is drawn below.
    contacts = [ContactRecord(TIMES[-1] + 1.0, a, a + 1, 1.0) for a in (0,) + NODES[:-1]]
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(node), draw(peer)
        if a != b:
            contacts.append(ContactRecord(draw(st.sampled_from(TIMES)), a, b, draw(duration)))
    arrivals = [
        PhotoArrival(draw(st.sampled_from(TIMES)), draw(node), draw(photo))
        for _ in range(draw(st.integers(0, 20)))
    ]
    end_time = draw(st.sampled_from(TIMES[4:]))
    plan = draw(st.one_of(
        st.none(),
        st.integers(0, 1000).map(lambda seed: FaultPlan(seed=seed, **CHURN)),
    ))
    if plan is not None:
        probe = simulation(contacts, [], plan, end_time, [])
        crashes = [
            (time, event.payload)
            for time, kind, _, event in probe._queue._heap
            if kind == EventKind.NODE_CRASH
        ]
        for crash_time, (node_id, restart_time) in crashes:
            for instant in (crash_time, restart_time):
                if draw(st.booleans()):
                    owner = draw(st.sampled_from([node_id, draw(node)]))
                    arrivals.append(PhotoArrival(instant, owner, draw(photo)))
                if draw(st.booleans()):
                    other = draw(peer.filter(lambda p: p != node_id))
                    contacts.append(ContactRecord(instant, node_id, other, draw(duration)))
    order = draw(st.permutations(range(len(arrivals))))
    return contacts, [arrivals[i] for i in order], plan, end_time


@given(case=runs())
@settings(max_examples=150, deadline=None)
def test_run_dispatches_in_single_heap_order(case):
    contacts, arrivals, plan, end_time = case
    scheme_log, handler_log = [], []
    sim = simulation(contacts, arrivals, plan, end_time, scheme_log)
    record_handlers(sim, handler_log)
    result = sim.run()

    oracle_scheme_log, oracle_handler_log = [], []
    twin = simulation(contacts, arrivals, plan, end_time, oracle_scheme_log)
    record_handlers(twin, oracle_handler_log)
    oracle = run_in_one_heap(twin, arrivals)

    assert handler_log == oracle_handler_log
    assert scheme_log == oracle_scheme_log
    assert result_digest(result) == result_digest(oracle)
    assert result.fault_counters == oracle.fault_counters
    assert handler_log[-1] == ("_record_sample", end_time)


def test_ties_and_late_arrivals_are_exercised():
    """A fixed run with every tie the property draws: an arrival at a
    contact, a sample and the end, and arrivals after the end."""
    at = {t: make_photo(0.0, -30.0, 90.0, coverage_range=80.0, taken_at=t) for t in TIMES}
    arrivals = [PhotoArrival(t, 1, at[t]) for t in (200.0, 400.0, 600.0, 700.0, 900.0)]
    contacts = [ContactRecord(200.0, 0, 1, 30.0), ContactRecord(800.0, 0, 1, 30.0)]
    log = []
    sim = simulation(contacts, arrivals, None, 600.0, [])
    record_handlers(sim, log)
    sim.run()
    assert log == [
        ("handle_photo_created", 1, at[200.0].photo_id, 200.0),
        ("handle_contact", 0, 1, 200.0, 30.0, 1.0),
        ("_record_sample", 200.0),
        ("handle_photo_created", 1, at[400.0].photo_id, 400.0),
        ("_record_sample", 400.0),
        ("handle_photo_created", 1, at[600.0].photo_id, 600.0),
        ("_record_sample", 600.0),
    ]
    assert sim.result.created_photos == 3
    assert sim.result.delivered_photos == 1


@given(
    arrival_times=st.lists(st.sampled_from(TIMES[:4]), max_size=12),
    contact_times=st.lists(
        st.tuples(st.sampled_from(TIMES[:4]), node, peer, duration), max_size=12
    ),
    cap=st.sampled_from([None, 2.0]),
)
@settings(max_examples=100, deadline=None)
def test_iter_scenario_events_gives_single_heap_order(arrival_times, contact_times, cap):
    """The replay client's stream: arrivals pushed first in the order
    given, then the trace's contacts, durations capped."""
    arrivals = [PhotoArrival(t, 1, f"photo-{i}") for i, t in enumerate(arrival_times)]
    trace = ContactTrace(ContactRecord(t, a, b, d) for t, a, b, d in contact_times if a != b)
    scenario = SimpleNamespace(
        photo_arrivals=arrivals,
        trace=trace,
        config=SimulationConfig(contact_duration_cap_s=cap),
    )
    heap = [
        (a.time, EventKind.PHOTO_CREATED, i, (a.owner_id, a.photo))
        for i, a in enumerate(arrivals)
    ]
    for contact in trace:
        capped = contact.duration if cap is None else min(contact.duration, cap)
        payload = (contact.node_a, contact.node_b, capped)
        heap.append((contact.start, EventKind.CONTACT, len(heap), payload))
    heapq.heapify(heap)
    expected = [heapq.heappop(heap) for _ in range(len(heap))]
    events = list(iter_scenario_events(scenario))
    assert [(e.time, e.kind, e.payload) for e in events] == [
        (time, kind, payload) for time, kind, _, payload in expected
    ]

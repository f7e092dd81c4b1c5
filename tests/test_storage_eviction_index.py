"""The storage's eviction index answers what a full scan would.

:meth:`~repro.dtn.storage.NodeStorage.least_valuable` is the one eviction
index of the schemes that drop their least valuable photo when full: our
scheme values a photo by the number of PoIs it covers, ModifiedSpray by
its individual coverage.  These tests pin the index to the ``min()`` scan
it replaces, for both value functions, through every way a storage
changes: adds, removals (evictions and others), ``replace_all``, crashes
with storage loss, and pickle round-trips (service snapshots).

The suite imports nothing from :mod:`repro.experiments`, so it runs on an
interpreter without numpy.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.dtn.storage import NodeStorage
from repro.routing.base import individual_coverage
from repro.routing.spray_and_wait import SprayAndWaitScheme
from repro.traces.model import ContactTrace

from helpers import MB, make_photo

#: Unequal weights, so the two value functions order photos differently.
POIS = [(Point(0.0, 0.0), 1.0), (Point(60.0, 0.0), 3.0), (Point(0.0, 60.0), 0.5)]


def _one_node_sim():
    sim = Simulation(
        trace=ContactTrace([]),
        pois=PoIList([PoI(location=point, weight=weight) for point, weight in POIS]),
        photo_arrivals=[],
        scheme=SprayAndWaitScheme(),
        config=SimulationConfig(storage_bytes=12 * MB, effective_angle=math.radians(30.0)),
    )
    return sim, sim.ensure_node(1)


def _value_functions(sim):
    """Our scheme's and ModifiedSpray's eviction values, in that order."""

    def incidence_count(photo):
        return len(sim.incidences(photo))

    def coverage(photo):
        return individual_coverage(sim, photo)

    return incidence_count, coverage


def _scan(storage, value):
    """The eviction rule as a full scan (what the index replaces)."""
    photos = storage.photos()
    if not photos:
        return None
    return min(photos, key=lambda p: (value(p), -p.photo_id))


coordinate = st.floats(min_value=-80.0, max_value=140.0)
new_photo = st.tuples(
    coordinate, coordinate, st.floats(min_value=0.0, max_value=359.0), st.integers(1, 4)
)
operation = st.one_of(
    st.tuples(st.just("add"), new_photo),
    st.tuples(st.just("evict")),
    st.tuples(st.just("remove"), st.integers(0, 11)),
    st.tuples(st.just("readd"), st.integers(0, 11)),
    st.tuples(st.just("replace"), st.lists(st.booleans(), max_size=12), st.lists(new_photo, max_size=3)),
    st.tuples(st.just("crash"), st.lists(st.booleans(), max_size=12)),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("switch")),
)


@given(operations=st.lists(operation, max_size=40), start=st.integers(0, 1))
@example(  # PoI 1 alone: fewer PoIs but more coverage than PoIs 0 and 2
    operations=[("add", (-30.0, -40.0, 0.0, 1)), ("add", (-80.0, 0.0, 330.0, 1)), ("switch",)],
    start=0,
)
@settings(max_examples=100, deadline=None)
def test_least_valuable_equals_full_scan(operations, start):
    sim, node = _one_node_sim()
    values = _value_functions(sim)
    current = start
    removed = []

    def photo(spec):
        x, y, orientation, size_mb = spec
        return make_photo(x, y, orientation, size_bytes=size_mb * MB)

    def fitting(photos):
        kept, used = [], 0
        for p in photos:
            if used + p.size_bytes <= node.storage.capacity_bytes:
                kept.append(p)
                used += p.size_bytes
        return kept

    for op in operations:
        storage = node.storage
        if op[0] == "add":
            new = photo(op[1])
            if storage.fits(new):
                storage.add(new)
        elif op[0] == "evict":
            victim = storage.least_valuable(values[current])
            if victim is not None:
                removed.append(storage.remove(victim.photo_id))
        elif op[0] == "remove":
            stored = storage.photos()
            if stored:
                removed.append(storage.remove(stored[op[1] % len(stored)].photo_id))
        elif op[0] == "readd":
            if removed:
                back = removed[op[1] % len(removed)]
                if storage.fits(back):
                    storage.add(back)
        elif op[0] == "replace":
            kept = [p for p, keep in zip(storage.photos(), op[1]) if keep]
            storage.replace_all(fitting(kept + [photo(spec) for spec in op[2]]))
        elif op[0] == "crash":
            node.crash(surviving_photos=[p for p, keep in zip(storage.photos(), op[1]) if keep])
            node.restart()
        elif op[0] == "pickle":
            node.storage = pickle.loads(pickle.dumps(storage))
        else:
            current = 1 - current
        assert node.storage.least_valuable(values[current]) is _scan(node.storage, values[current])


def _full_storage_with_index():
    sim, node = _one_node_sim()
    value = _value_functions(sim)[0]
    for i in range(6):
        photo = make_photo(5.0 * i, 0.0, 180.0, size_bytes=2 * MB)
        node.storage.add(photo)
    node.storage.least_valuable(value)
    return node.storage, value


def test_the_index_is_not_pickled():
    storage, value = _full_storage_with_index()
    assert storage._index is not None
    restored = pickle.loads(pickle.dumps(storage))
    assert restored._index is None
    assert restored.photo_ids() == storage.photo_ids()
    assert restored.least_valuable(value) is _scan(restored, value)


def test_a_pickle_carrying_the_retired_generation_counter_restores():
    storage, value = _full_storage_with_index()
    state = storage.__getstate__()
    state["generation"] = 3
    revived = NodeStorage.__new__(NodeStorage)
    revived.__setstate__(state)
    assert revived.used_bytes == storage.used_bytes
    assert revived.least_valuable(value) is _scan(revived, value)
    victim = revived.least_valuable(value)
    revived.remove(victim.photo_id)
    assert revived.least_valuable(value) is _scan(revived, value)


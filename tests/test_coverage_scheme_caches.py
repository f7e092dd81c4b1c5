"""The coverage scheme's derived state never changes a decision.

:class:`~repro.routing.coverage_scheme.CoverageSelectionScheme` keeps two
caches: a per-node eviction heap and a per-node memo of background
profiles.  These tests pin both to the computation they replace:

* the heap's victim is always the photo a full ``min()`` scan over the
  storage picks, through photo creations, evictions, ``replace_all`` and
  crashes, in any order;
* a run whose caches are wiped before every event gives the same
  :class:`~repro.dtn.simulator.SimulationResult` as an ordinary run, under
  a fault plan that truncates contacts, crashes nodes and corrupts
  metadata snapshots;
* neither cache is pickled, so a service snapshot restores with (and a
  snapshot written before the caches existed restores into) empty caches.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.experiments.runner import run_scenario
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.traces.model import ContactTrace

from helpers import DISRUPTION_PLAN, MB, build_scenario, make_photo, result_digest

POIS = [Point(0.0, 0.0), Point(60.0, 0.0), Point(0.0, 60.0)]


def _one_node_sim():
    scheme = CoverageSelectionScheme()
    sim = Simulation(
        trace=ContactTrace([]),
        pois=PoIList([PoI(location=point) for point in POIS]),
        photo_arrivals=[],
        scheme=scheme,
        config=SimulationConfig(storage_bytes=12 * MB, effective_angle=math.radians(30.0)),
    )
    return sim, scheme, sim.ensure_node(1)


def _scan_victim(sim, node):
    """The eviction rule as a full scan (what the heap replaces)."""
    return min(node.storage.photos(), key=lambda p: (len(sim.incidences(p)), -p.photo_id))


def _heap_victim(scheme, node):
    heap = scheme._eviction_heap(node)
    return heap[0][2] if heap else None


coordinate = st.floats(min_value=-80.0, max_value=140.0)
new_photo = st.tuples(
    coordinate, coordinate, st.floats(min_value=0.0, max_value=359.0), st.integers(1, 4)
)
operation = st.one_of(
    st.tuples(st.just("create"), new_photo),
    st.tuples(st.just("replace"), st.lists(st.booleans(), max_size=12), st.lists(new_photo, max_size=3)),
    st.tuples(st.just("crash"), st.lists(st.booleans(), max_size=12)),
)


@given(operations=st.lists(operation, max_size=40))
@settings(max_examples=80, deadline=None)
def test_heap_victim_equals_full_scan(operations):
    sim, scheme, node = _one_node_sim()

    def photo(spec):
        x, y, orientation, size_mb = spec
        return make_photo(x, y, orientation, size_bytes=size_mb * MB)

    for op in operations:
        if op[0] == "create":
            scheme.on_photo_created(node, photo(op[1]), 0.0)
        else:
            stored = node.storage.photos()
            kept = [p for p, keep in zip(stored, op[1]) if keep]
            if op[0] == "crash":
                node.crash(surviving_photos=kept)
                node.restart()
            else:
                candidates = kept + [photo(spec) for spec in op[2]]
                fitting, used = [], 0
                for p in candidates:
                    if used + p.size_bytes <= node.storage.capacity_bytes:
                        fitting.append(p)
                        used += p.size_bytes
                node.storage.replace_all(fitting)
        if len(node.storage):
            assert _heap_victim(scheme, node) is _scan_victim(sim, node)
        else:
            assert _heap_victim(scheme, node) is None


def test_wiping_the_caches_before_every_event_changes_nothing(monkeypatch):
    scenario = build_scenario(monkeypatch, 0.2, DISRUPTION_PLAN)
    ordinary = run_scenario(scenario, "our-scheme")
    assert ordinary.fault_counters.crashes > 0
    assert ordinary.fault_counters.contacts_truncated > 0
    assert ordinary.fault_counters.metadata_snapshots_corrupted > 0

    wipes = [0]

    def wiping(handler):
        def handle(self, *args, **kwargs):
            wipes[0] += 1
            self._reset_derived_state()
            return handler(self, *args, **kwargs)

        return handle

    for name in ("on_photo_created", "on_contact", "on_command_center_contact"):
        monkeypatch.setattr(
            CoverageSelectionScheme, name, wiping(getattr(CoverageSelectionScheme, name))
        )
    wiped = run_scenario(scenario, "our-scheme")
    assert wipes[0] > 0
    assert result_digest(wiped) == result_digest(ordinary)


def test_caches_are_not_pickled():
    sim, scheme, node = _one_node_sim()
    for i in range(6):
        scheme.on_photo_created(node, make_photo(5.0 * i, 0.0, 180.0, size_bytes=3 * MB), 0.0)
    assert scheme._eviction_heaps
    restored = pickle.loads(pickle.dumps(scheme))
    assert restored._eviction_heaps == {} and restored._profile_memo == {}
    assert restored.use_metadata_cache == scheme.use_metadata_cache

    # A scheme pickled before the caches existed has no such attributes.
    legacy = scheme.__getstate__()
    assert "_eviction_heaps" not in legacy and "_profile_memo" not in legacy
    revived = CoverageSelectionScheme.__new__(CoverageSelectionScheme)
    revived.__setstate__(legacy)
    assert _heap_victim(revived, node) is _scan_victim(sim, node)

"""Derived state never changes a decision.

:class:`~repro.routing.coverage_scheme.CoverageSelectionScheme` keeps a
per-node memo of background profiles, and every node's storage keeps an
eviction index (:meth:`~repro.dtn.storage.NodeStorage.least_valuable`,
pinned to a full scan in ``test_storage_eviction_index.py``) that our
scheme and ModifiedSpray read.  These tests pin both to the computation
they replace:

* a run whose profile memo and storage indexes are wiped before every
  event gives the same :class:`~repro.dtn.simulator.SimulationResult` as
  an ordinary run, for our scheme and for ModifiedSpray, under a fault
  plan that truncates contacts, crashes nodes and corrupts metadata
  snapshots (at scale 0.4, where both schemes evict: below it our scheme
  never fills a node's storage under this plan);
* the memo is not pickled, so a service snapshot restores with (and a
  snapshot written before the memo existed restores into) an empty memo.
"""

from __future__ import annotations

import pickle

from repro.dtn.storage import NodeStorage
from repro.experiments.runner import run_scenario
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.routing.modified_spray import ModifiedSprayScheme

from helpers import DISRUPTION_PLAN, build_scenario, make_photo, result_digest


def _wiped_run_equals_ordinary(monkeypatch, scenario, scheme_name, scheme_class):
    ordinary = run_scenario(scenario, scheme_name)
    assert ordinary.fault_counters.crashes > 0
    assert ordinary.fault_counters.contacts_truncated > 0
    if scheme_name == "our-scheme":  # ModifiedSpray exchanges no metadata
        assert ordinary.fault_counters.metadata_snapshots_corrupted > 0

    wipes, queries = [0], [0]
    least_valuable = NodeStorage.least_valuable

    def counted(storage, value):
        queries[0] += 1
        return least_valuable(storage, value)

    def wiping(handler):
        def handle(self, *args, **kwargs):
            wipes[0] += 1
            if hasattr(self, "_reset_derived_state"):
                self._reset_derived_state()
            for node in self.sim.nodes.values():
                node.storage._index = None
            return handler(self, *args, **kwargs)

        return handle

    with monkeypatch.context() as patch:
        patch.setattr(NodeStorage, "least_valuable", counted)
        for name in ("on_photo_created", "on_contact", "on_command_center_contact"):
            patch.setattr(scheme_class, name, wiping(getattr(scheme_class, name)))
        wiped = run_scenario(scenario, scheme_name)
    assert wipes[0] > 0 and queries[0] > 0
    assert result_digest(wiped) == result_digest(ordinary)


def test_wiping_the_caches_before_every_event_changes_nothing(monkeypatch):
    scenario = build_scenario(0.4, DISRUPTION_PLAN)
    _wiped_run_equals_ordinary(monkeypatch, scenario, "our-scheme", CoverageSelectionScheme)
    _wiped_run_equals_ordinary(monkeypatch, scenario, "modified-spray", ModifiedSprayScheme)


def test_caches_are_not_pickled():
    scheme = CoverageSelectionScheme()
    photos = tuple(make_photo(5.0 * i, 0.0, 180.0) for i in range(3))
    scheme._profile_memo[7] = [(photos, 1.0, None)]
    restored = pickle.loads(pickle.dumps(scheme))
    assert restored._profile_memo == {}
    assert restored.use_metadata_cache == scheme.use_metadata_cache

    # A scheme pickled before the memo existed has no such attribute.
    legacy = scheme.__getstate__()
    assert "_profile_memo" not in legacy
    revived = CoverageSelectionScheme.__new__(CoverageSelectionScheme)
    revived.__setstate__(legacy)
    assert revived._profile_memo == {}

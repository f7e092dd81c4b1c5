"""BestPossible's bitset replication against the set-based scheme it replaced.

:class:`SetBestPossibleScheme` keeps the earlier representation as the
oracle: an id set per node, unioned and copied at every contact, and an
uplink that offers every id the gateway holds in ``photo_id`` order.  The
bitset scheme must give the same :class:`SimulationResult` under every
fault plan, deliver in ``photo_id`` order even when ids arrive out of
creation order, and resume identically from a pickled service session.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.dtn.events import EventKind
from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import Simulation
from repro.experiments.runner import _best_possible_config
from repro.routing.base import RoutingScheme
from repro.routing.best_possible import BestPossibleScheme
from repro.service import session as session_module
from repro.service.client import iter_scenario_events
from repro.service.session import SelectionOutcome, ServiceSession

from helpers import DISRUPTION_PLAN, LOSSY_PLAN, build_scenario, result_digest


class SetBestPossibleScheme(RoutingScheme):
    """The set-based BestPossible: per-node id sets in ``node.scratch``."""

    name = "best-possible"

    def on_photo_created(self, node, photo, now):
        if self.sim.incidences(photo):
            self._collection(node).add(photo.photo_id)
            self.sim.scratch.setdefault("best_possible_photos", {})[photo.photo_id] = photo

    @staticmethod
    def _collection(node):
        return node.scratch.setdefault("best_possible_ids", set())

    def on_contact(self, node_a, node_b, now, duration):
        merged = self._collection(node_a) | self._collection(node_b)
        node_a.scratch["best_possible_ids"] = set(merged)
        node_b.scratch["best_possible_ids"] = set(merged)

    def on_command_center_contact(self, node, center, now, duration):
        photos = self.sim.scratch.get("best_possible_photos", {})
        for photo_id in sorted(self._collection(node)):
            photo = photos.get(photo_id)
            if photo is not None:
                self.sim.deliver(photo)


PLANS = {
    "zero": FaultPlan(),
    "disrupted": DISRUPTION_PLAN,
    "lossy": LOSSY_PLAN,
}


def _run(scenario, scheme):
    simulation = Simulation(
        trace=scenario.trace,
        pois=scenario.pois,
        photo_arrivals=scenario.photo_arrivals,
        scheme=scheme,
        config=_best_possible_config(scenario.config),
        gateway_ids=scenario.gateway_ids,
        end_time_s=scenario.end_time_s,
    )
    return simulation, simulation.run()


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_simulation_matches_the_set_oracle(plan_name):
    scenario = build_scenario(0.2, PLANS[plan_name])
    oracle_sim, oracle = _run(scenario, SetBestPossibleScheme())
    bitset_sim, bitset = _run(scenario, BestPossibleScheme())
    assert bitset.delivered_photos > 0
    assert result_digest(bitset) == result_digest(oracle)
    assert (
        bitset_sim.command_center.storage.photo_ids()
        == oracle_sim.command_center.storage.photo_ids()
    )
    if plan_name == "disrupted":
        # Crashes wipe node scratch, and the bitset lives there too.
        assert bitset.fault_counters.crashes > 0


def _shuffled_id_events(scenario, seed):
    """The scenario's events with photo ids permuted, so ids no longer
    follow creation order."""
    events = list(iter_scenario_events(scenario))
    photos = [e.payload[1] for e in events if e.kind == EventKind.PHOTO_CREATED]
    new_ids = [photo.photo_id for photo in photos]
    random.Random(seed).shuffle(new_ids)
    renamed = {
        photo.photo_id: dataclasses.replace(photo, photo_id=new_id)
        for photo, new_id in zip(photos, new_ids)
    }
    out = []
    for event in events:
        if event.kind == EventKind.PHOTO_CREATED:
            owner_id, photo = event.payload
            out.append((event.kind, event.time, (owner_id, renamed[photo.photo_id])))
        else:
            out.append((event.kind, event.time, event.payload[:3]))
    return out


def _apply(session, event):
    kind, time, payload = event
    if kind == EventKind.PHOTO_CREATED:
        owner_id, photo = payload
        return session.ingest(owner_id, photo, time)
    node_a, node_b, duration = payload
    return session.contact(node_a, node_b, time, duration)


def _session(monkeypatch, scenario, scheme_class):
    with monkeypatch.context() as patch:
        patch.setattr(session_module, "create_scheme", lambda spec: scheme_class())
        return ServiceSession("best-possible", scenario.pois, scenario.config)


class TestServiceSession:
    def test_out_of_order_ids_deliver_in_photo_id_order(self, monkeypatch):
        scenario = build_scenario(0.1)
        events = _shuffled_id_events(scenario, seed=3)
        oracle = _session(monkeypatch, scenario, SetBestPossibleScheme)
        bitset = _session(monkeypatch, scenario, BestPossibleScheme)
        uplinks = 0
        for event in events:
            expected = _apply(oracle, event)
            outcome = _apply(bitset, event)
            assert outcome == expected
            if isinstance(outcome, SelectionOutcome) and outcome.delivered_photo_ids:
                uplinks += 1
                assert outcome.delivered_photo_ids == sorted(outcome.delivered_photo_ids)
        assert uplinks > 1
        assert oracle.coverage() == bitset.coverage()
        assert (
            bitset.simulation.result.delivery_latencies_s
            == oracle.simulation.result.delivery_latencies_s
        )

    def test_a_reported_id_reported_again_matches_the_oracle(self, monkeypatch):
        """The set oracle sends the latest copy of a re-reported id, so the
        bitset keeps the id's bit and swaps in the new copy."""
        scenario = build_scenario(0.1)
        events = _shuffled_id_events(scenario, seed=5)
        owners = sorted({e[2][0] for e in events if e[0] == EventKind.PHOTO_CREATED})
        doubled = []
        for position, event in enumerate(events):
            doubled.append(event)
            kind, time, payload = event
            if kind == EventKind.PHOTO_CREATED and position % 7 == 0:
                owner_id, photo = payload
                other = owners[(owners.index(owner_id) + 1) % len(owners)]
                again = dataclasses.replace(photo, taken_at=photo.taken_at - 600.0)
                doubled.append((kind, time, (other, again)))
        oracle = _session(monkeypatch, scenario, SetBestPossibleScheme)
        bitset = _session(monkeypatch, scenario, BestPossibleScheme)
        for event in doubled:
            assert _apply(bitset, event) == _apply(oracle, event)
        assert bitset.coverage() == oracle.coverage()
        assert (
            bitset.simulation.result.delivery_latencies_s
            == oracle.simulation.result.delivery_latencies_s
        )

    def test_a_session_pickled_mid_run_continues_identically(self, monkeypatch):
        scenario = build_scenario(0.1)
        events = _shuffled_id_events(scenario, seed=4)
        half = len(events) // 2
        twin = _session(monkeypatch, scenario, BestPossibleScheme)
        oracle = _session(monkeypatch, scenario, SetBestPossibleScheme)
        for event in events[:half]:
            _apply(twin, event)
            _apply(oracle, event)
        restored = pickle.loads(pickle.dumps(twin, protocol=pickle.HIGHEST_PROTOCOL))
        assert isinstance(restored.scheme, BestPossibleScheme)
        assert restored.scheme.sim is restored.simulation
        for event in events[half:]:
            expected = _apply(oracle, event)
            assert _apply(twin, event) == expected
            assert _apply(restored, event) == expected
        assert restored.coverage() == oracle.coverage()
        assert restored.coverage().delivered_photos > 0
        assert (
            restored.simulation.result.delivery_latencies_s
            == oracle.simulation.result.delivery_latencies_s
        )


def test_a_bound_scheme_pickled_without_bitset_state_does_not_load():
    """A session snapshot from before the bitset reads as unusable (the
    snapshot store then reports it missing) instead of failing later."""
    with pytest.raises(ValueError, match="bitset"):
        BestPossibleScheme.__new__(BestPossibleScheme).__setstate__({"sim": object()})
    unbound = pickle.loads(pickle.dumps(BestPossibleScheme()))
    assert unbound.sim is None

"""Tests for the live-session world and the byte-identical guarantee."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.dtn import COMMAND_CENTER_ID
from repro.dtn.events import EventKind
from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.experiments.config import ScenarioSpec
from repro.routing import create_scheme
from repro.service.client import iter_scenario_events
from repro.service.protocol import photo_from_wire, photo_to_wire
from repro.service.session import (
    ContactOutcome,
    SelectionOutcome,
    ServiceSession,
    StaleRequestError,
)
from repro.core.poi import PoIList

from helpers import next_photo_id


def make_photo(x=10.0, y=10.0, taken_at=0.0, owner_id=1):
    """A photo aimed up-and-right (orientation is clockwise from east, so
    -0.5 rad points toward +y); from (10, 10) it covers the PoI at
    (54, 34), from (356, 376) the one at (400, 400)."""
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=80.0,
            field_of_view=1.0,
            orientation=-0.5,
        ),
        photo_id=next_photo_id(),
        taken_at=taken_at,
        owner_id=owner_id,
    )


@pytest.fixture()
def pois():
    return PoIList.from_points([Point(54.0, 34.0), Point(400.0, 400.0)])


class TestPhotoWireCodec:
    def test_round_trip_preserves_everything(self):
        photo = Photo(
            metadata=PhotoMetadata(
                location=Point(123.456789, -0.000031),
                coverage_range=77.123456789,
                field_of_view=0.7853981633974483,
                orientation=2.25,
            ),
            size_bytes=4 * 1024 * 1024,
            photo_id=9001,
            taken_at=3600.5,
            owner_id=42,
            features=(0.1, 0.2, 0.3),
        )
        clone = photo_from_wire(photo_to_wire(photo))
        assert clone.photo_id == photo.photo_id
        assert clone.metadata == photo.metadata  # exact float equality
        assert clone.size_bytes == photo.size_bytes
        assert clone.taken_at == photo.taken_at
        assert clone.owner_id == photo.owner_id
        assert clone.features == photo.features

    def test_round_trip_through_json_text(self):
        import json

        photo = make_photo(x=1.0 / 3.0, y=2.0 / 7.0)
        wire = json.loads(json.dumps(photo_to_wire(photo)))
        assert photo_from_wire(wire).metadata == photo.metadata

    def test_invalid_payloads_raise_protocol_error(self):
        from repro.service.protocol import ProtocolError

        with pytest.raises(ProtocolError):
            photo_from_wire({"photo_id": 1})
        with pytest.raises(ProtocolError):
            photo_from_wire("not a dict")


class TestServiceSessionBasics:
    def test_ingest_stores_photo(self, pois):
        session = ServiceSession("our-scheme", pois)
        outcome = session.ingest(1, make_photo(owner_id=1), now=10.0)
        assert outcome.dispatched and outcome.stored
        assert outcome.buffered == 1

    def test_node_materializes_on_first_request(self, pois):
        session = ServiceSession("our-scheme", pois)
        assert session.simulation.nodes == {}
        session.ingest(5, make_photo(owner_id=5), now=1.0)
        assert 5 in session.simulation.nodes

    def test_time_must_not_go_backwards(self, pois):
        session = ServiceSession("our-scheme", pois)
        session.ingest(1, make_photo(), now=100.0)
        with pytest.raises(StaleRequestError):
            session.ingest(1, make_photo(), now=99.0)
        # Equal timestamps are fine (simultaneous events).
        session.ingest(1, make_photo(), now=100.0)

    def test_command_center_does_not_take_photos(self, pois):
        session = ServiceSession("our-scheme", pois)
        with pytest.raises(ValueError, match="command center"):
            session.ingest(COMMAND_CENTER_ID, make_photo(), now=0.0)

    def test_reused_photo_id_is_refused_and_changes_nothing(self, pois):
        session = ServiceSession("our-scheme", pois)
        first = dataclasses.replace(make_photo(10.0, 10.0, owner_id=1), photo_id=5)
        assert session.ingest(1, first, now=0.0).stored
        other = dataclasses.replace(make_photo(900.0, 900.0, owner_id=1), photo_id=5)
        world = pickle.dumps(session)
        with pytest.raises(ValueError, match="already holds photo id 5"):
            session.ingest(1, other, now=10.0)
        assert pickle.dumps(session) == world
        assert session.simulation.nodes[1].storage.photos() == [first]
        # The check is per owner: another user's photo with that id passes.
        assert session.ingest(2, other, now=10.0).stored

    def test_contact_dispatches_node_pair(self, pois):
        session = ServiceSession("epidemic", pois)
        session.ingest(1, make_photo(owner_id=1), now=0.0)
        outcome = session.contact(1, 2, now=5.0, duration=60.0)
        assert isinstance(outcome, ContactOutcome)
        assert outcome.processed
        # Epidemic floods: node 2 now carries the photo too.
        assert len(session.simulation.nodes[2].storage) == 1

    def test_uplink_returns_selection(self, pois):
        session = ServiceSession("our-scheme", pois)
        photo = make_photo(owner_id=1)
        session.ingest(1, photo, now=0.0)
        outcome = session.contact(1, COMMAND_CENTER_ID, now=10.0, duration=600.0)
        assert isinstance(outcome, SelectionOutcome)
        assert outcome.processed
        assert outcome.delivered_photo_ids == [photo.photo_id]
        assert outcome.delivered_total == 1
        assert outcome.point_coverage >= 0.0

    def test_second_uplink_reports_only_new_deliveries(self, pois):
        session = ServiceSession("our-scheme", pois)
        first = make_photo(owner_id=1, x=10.0)
        session.ingest(1, first, now=0.0)
        session.select_on_contact(1, now=10.0, duration=600.0)
        second = make_photo(owner_id=1, x=356.0, y=376.0)
        session.ingest(1, second, now=20.0)
        outcome = session.select_on_contact(1, now=30.0, duration=600.0)
        assert outcome.delivered_photo_ids == [second.photo_id]
        assert outcome.delivered_total == 2

    def test_coverage_report_counts(self, pois):
        session = ServiceSession("our-scheme", pois)
        session.ingest(1, make_photo(owner_id=1), now=0.0)
        session.contact(1, 2, now=1.0, duration=30.0)
        session.select_on_contact(1, now=2.0, duration=600.0)
        report = session.coverage()
        assert report.created_photos == 1
        assert report.contacts_processed == 1
        assert report.center_contacts == 1
        assert report.delivered_photos == 1
        assert report.nodes == 2

    def test_parameterized_scheme_specs_work(self, pois):
        session = ServiceSession("spray-and-wait:initial_copies=8", pois)
        assert session.scheme.initial_copies == 8

    def test_describe_is_json_ready(self, pois):
        import json

        session = ServiceSession("our-scheme", pois)
        session.ingest(1, make_photo(), now=1.0)
        text = json.dumps(session.describe())
        assert '"our-scheme"' in text


class TestUplinkReply:
    """An uplink reports the photos it delivered: the set difference of the
    center's storage before and after it, in delivery order."""

    @staticmethod
    def oracle_select(session, node_id, now, duration):
        center = session.simulation.command_center
        before = set(center.storage.photo_ids())
        outcome = session.select_on_contact(node_id, now, duration)
        delivered = [pid for pid in center.storage.photo_ids() if pid not in before]
        assert outcome.delivered_photo_ids == delivered
        assert outcome.delivered_total == len(center.storage)
        return outcome

    def test_best_possible_after_thousands_of_deliveries(self, pois):
        config = SimulationConfig(storage_bytes=None, unlimited_contacts=True)
        session = ServiceSession("best-possible", pois, config)
        for i in range(3000):
            session.ingest(1 + i % 3, make_photo(owner_id=1 + i % 3), now=float(i))
        session.contact(1, 2, now=3000.0, duration=60.0)
        first = self.oracle_select(session, 1, now=3001.0, duration=60.0)
        assert len(first.delivered_photo_ids) == 2000
        now = 3002.0
        for round_ in range(5):
            for owner in (1, 3):
                session.ingest(owner, make_photo(owner_id=owner, x=356.0, y=376.0), now=now)
            session.contact(2, 3, now=now + 1.0, duration=60.0)
            self.oracle_select(session, 1 + round_ % 3, now=now + 2.0, duration=60.0)
            now += 3.0
        self.oracle_select(session, 1, now=now, duration=60.0)
        assert self.oracle_select(session, 1, now=now, duration=60.0).delivered_photo_ids == []


class TestClampTimePolicy:
    def test_strict_is_the_default(self, pois):
        session = ServiceSession("our-scheme", pois)
        assert session.time_policy == "strict"

    def test_unknown_policy_rejected(self, pois):
        with pytest.raises(ValueError, match="time_policy"):
            ServiceSession("our-scheme", pois, time_policy="loose")

    def test_clamp_lifts_late_timestamps_and_counts_them(self, pois):
        session = ServiceSession("our-scheme", pois, time_policy="clamp")
        session.ingest(1, make_photo(taken_at=100.0), 100.0)
        # A concurrent worker's op arrives with an earlier wall time.
        outcome = session.contact(1, 2, 40.0, duration=10.0)
        assert isinstance(outcome, ContactOutcome)
        assert session.clamped_requests == 1
        assert session.clock >= 100.0  # never went backwards
        # In-order requests do not count as clamped.
        session.contact(1, 2, 200.0, duration=10.0)
        assert session.clamped_requests == 1

    def test_describe_reports_policy_and_clamp_count(self, pois):
        session = ServiceSession("our-scheme", pois, time_policy="clamp")
        session.ingest(1, make_photo(taken_at=50.0), 50.0)
        session.contact(1, 2, 10.0, duration=5.0)
        summary = session.describe()
        assert summary["time_policy"] == "clamp"
        assert summary["clamped_requests"] == 1


class TestLiveNodeChurn:
    def _churny_session(self, pois, crash_rate=120.0):
        fault_plan = FaultPlan(
            seed=7,
            crash_rate_per_node_hour=crash_rate,
            mean_downtime_s=300.0,
            storage_loss_fraction=0.5,
        )
        config = SimulationConfig(fault_plan=fault_plan)
        return ServiceSession("our-scheme", pois, config=config, time_policy="clamp")

    def test_churn_inactive_without_crash_rate(self, pois):
        session = ServiceSession("our-scheme", pois)
        session.ingest(1, make_photo(), 0.0)
        session.contact(1, 2, 3600.0, duration=10.0)
        summary = session.describe()
        assert "faults" not in summary

    def test_high_crash_rate_produces_crashes_and_restarts(self, pois):
        session = self._churny_session(pois)
        # A dozen nodes, hours of virtual traffic: at 120 crashes per
        # node-hour transitions are statistically certain.
        for hour in range(6):
            now = hour * 3600.0
            for node in range(1, 13):
                session.ingest(node, make_photo(taken_at=now, owner_id=node), now)
                session.contact(node, node % 12 + 1, now + 60.0, duration=30.0)
        counters = session.simulation.result.fault_counters
        assert counters.crashes > 0
        assert counters.restarts > 0
        summary = session.describe()
        assert summary["faults"]["crashes"] == counters.crashes

    def test_churn_streams_are_deterministic(self, pois):
        def run():
            session = self._churny_session(pois)
            for hour in range(4):
                now = hour * 3600.0
                for node in range(1, 9):
                    session.contact(node, node % 8 + 1, now, duration=30.0)
            counters = session.simulation.result.fault_counters
            return (counters.crashes, counters.restarts)

        assert run() == run()


class TestIterScenarioEvents:
    def test_matches_simulator_event_order(self):
        scenario = ScenarioSpec(scale=0.05, seed=1).build()
        events = list(iter_scenario_events(scenario))
        times = [event.time for event in events]
        assert times == sorted(times)
        # Ties: photo creations precede contacts at the same instant,
        # matching EventKind priorities.
        for first, second in zip(events, events[1:]):
            if first.time == second.time:
                assert first.kind <= second.kind
        kinds = {event.kind for event in events}
        assert kinds <= {EventKind.PHOTO_CREATED, EventKind.CONTACT}

    def test_applies_contact_duration_cap(self):
        scenario = ScenarioSpec(scale=0.05, seed=1, contact_duration_cap_s=30.0).build()
        for event in iter_scenario_events(scenario):
            if event.kind == EventKind.CONTACT:
                assert event.payload[2] <= 30.0


class TestByteIdenticalReplay:
    """The tentpole guarantee: service selections == simulator selections."""

    @pytest.mark.parametrize("scheme", ["our-scheme", "spray-and-wait", "epidemic"])
    def test_replay_equals_simulation(self, scheme):
        spec = ScenarioSpec(scale=0.05, seed=3)
        scenario = spec.build()

        sim = Simulation(
            trace=scenario.trace,
            pois=scenario.pois,
            photo_arrivals=scenario.photo_arrivals,
            scheme=create_scheme(scheme),
            config=scenario.config,
            gateway_ids=scenario.gateway_ids,
            end_time_s=scenario.end_time_s,
        )
        sim.run()

        session = ServiceSession(scheme, scenario.pois, scenario.config)
        for event in iter_scenario_events(scenario):
            if event.kind == EventKind.PHOTO_CREATED:
                owner_id, photo = event.payload
                session.ingest(owner_id, photo, event.time)
            else:
                node_a, node_b, duration = event.payload[:3]
                session.contact(node_a, node_b, event.time, duration)
        live = session.simulation

        # Identical delivery order (insertion order of the center's
        # storage), counts, coverage floats, and latency lists.
        assert (
            sim.command_center.storage.photo_ids()
            == live.command_center.storage.photo_ids()
        )
        assert sim.command_center.received_count == live.command_center.received_count
        assert sim.center_coverage() == live.center_coverage()
        assert sim.result.created_photos == live.result.created_photos
        assert sim.result.contacts_processed == live.result.contacts_processed
        assert sim.result.center_contacts == live.result.center_contacts
        assert sim.result.delivery_latencies_s == live.result.delivery_latencies_s

    def test_wire_round_trip_stays_byte_identical(self):
        """Photos that crossed the JSON codec still select identically."""
        spec = ScenarioSpec(scale=0.05, seed=5)
        scenario = spec.build()

        sim = Simulation(
            trace=scenario.trace,
            pois=scenario.pois,
            photo_arrivals=scenario.photo_arrivals,
            scheme=create_scheme("our-scheme"),
            config=scenario.config,
            gateway_ids=scenario.gateway_ids,
            end_time_s=scenario.end_time_s,
        )
        sim.run()

        session = ServiceSession("our-scheme", scenario.pois, scenario.config)
        for event in iter_scenario_events(scenario):
            if event.kind == EventKind.PHOTO_CREATED:
                owner_id, photo = event.payload
                session.ingest(owner_id, photo_from_wire(photo_to_wire(photo)), event.time)
            else:
                node_a, node_b, duration = event.payload[:3]
                session.contact(node_a, node_b, event.time, duration)

        assert (
            sim.command_center.storage.photo_ids()
            == session.simulation.command_center.storage.photo_ids()
        )
        assert sim.center_coverage() == session.simulation.center_coverage()

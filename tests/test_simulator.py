"""Tests for the discrete-event simulator itself."""

from __future__ import annotations

import math

import pytest

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.simulator import GIGABYTE, MEGABYTE, SampleRecord, Simulation, SimulationConfig
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.routing.spray_and_wait import SprayAndWaitScheme
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

from helpers import MB, photo_at_aspect


def sim_with(contacts, arrivals, scheme=None, **config_overrides):
    defaults = dict(
        storage_bytes=10 * 4 * MB,
        bandwidth_bytes_per_s=2 * MB,
        unlimited_contacts=True,
        effective_angle=math.radians(30.0),
        sample_interval_s=100.0,
    )
    defaults.update(config_overrides)
    return Simulation(
        trace=ContactTrace([ContactRecord(*c) for c in contacts]),
        pois=PoIList([PoI(location=Point(0.0, 0.0))]),
        photo_arrivals=arrivals,
        scheme=scheme or CoverageSelectionScheme(),
        config=SimulationConfig(**defaults),
    )


class TestConfigValidation:
    def test_rejects_zero_storage(self):
        with pytest.raises(ValueError):
            SimulationConfig(storage_bytes=0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            SimulationConfig(bandwidth_bytes_per_s=0.0)

    def test_rejects_zero_sample_interval(self):
        with pytest.raises(ValueError):
            SimulationConfig(sample_interval_s=0.0)

    def test_constants(self):
        assert GIGABYTE == 1024**3
        assert MEGABYTE == 1024**2


class TestSimulationSetup:
    def test_nodes_built_from_trace_and_arrivals(self):
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        sim = sim_with(
            contacts=[(10.0, 1, 2, 60.0)],
            arrivals=[PhotoArrival(0.0, 5, photo)],
        )
        assert set(sim.nodes) == {1, 2, 5}

    def test_command_center_not_a_node(self):
        sim = sim_with(contacts=[(10.0, 0, 1, 60.0)], arrivals=[])
        assert 0 not in sim.nodes
        assert sim.command_center.node_id == 0

    def test_gateway_flags(self):
        sim = Simulation(
            trace=ContactTrace([ContactRecord(10.0, 1, 2, 60.0)]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=[],
            scheme=CoverageSelectionScheme(),
            config=SimulationConfig(),
            gateway_ids=[2],
        )
        assert sim.nodes[2].is_gateway
        assert not sim.nodes[1].is_gateway

    def test_byte_budget(self):
        sim = sim_with(contacts=[], arrivals=[], unlimited_contacts=False,
                       bandwidth_bytes_per_s=2 * MB)
        assert sim.byte_budget(3.0) == 6 * MB
        unlimited = sim_with(contacts=[], arrivals=[], unlimited_contacts=True)
        assert unlimited.byte_budget(3.0) is None

    def test_uplink_spends_the_bytes_of_a_corrupted_photo(self, monkeypatch):
        sim = sim_with(contacts=[], arrivals=[], unlimited_contacts=False,
                       bandwidth_bytes_per_s=2 * MB)
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=a) for a in (0.0, 90.0, 180.0)]
        survives = iter([False, True, True])
        monkeypatch.setattr(sim, "transfer_survives", lambda photo: next(survives))
        # A 4 s uplink carries two 4 MB photos: the first is corrupted in
        # flight, the second arrives, and the third no longer fits.
        assert sim.uplink(photos, 4.0) == [photos[1]]
        assert sim.command_center.received_count == 1
        assert next(survives), "the photo that did not fit drew no transfer fault"

    def test_contact_duration_cap_applied(self):
        events = []

        class Recorder(CoverageSelectionScheme):
            def on_contact(self, a, b, now, duration):
                events.append(duration)

        sim = sim_with(
            contacts=[(10.0, 1, 2, 600.0)],
            arrivals=[],
            scheme=Recorder(),
            contact_duration_cap_s=30.0,
        )
        sim.run()
        assert events == [30.0]


class TestSimulationRun:
    def test_counters(self):
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        sim = sim_with(
            contacts=[(10.0, 1, 2, 60.0), (20.0, 0, 2, 60.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
        )
        result = sim.run()
        assert result.created_photos == 1
        assert result.contacts_processed == 1
        assert result.center_contacts == 1
        assert result.delivered_photos == 1

    def test_samples_recorded_on_grid(self):
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        sim = sim_with(
            contacts=[(50.0, 0, 1, 60.0), (450.0, 1, 2, 10.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
            sample_interval_s=100.0,
        )
        result = sim.run()
        times = [s.time for s in result.samples]
        assert times[:4] == [100.0, 200.0, 300.0, 400.0]
        # Final sample is at the end event.
        assert times[-1] == pytest.approx(460.0)

    def test_coverage_series_monotone(self):
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=float(d)) for d in (0, 120, 240)]
        contacts = [(100.0 * (i + 1), 0, 1, 60.0) for i in range(3)]
        sim = sim_with(
            contacts=contacts,
            arrivals=[PhotoArrival(0.0, 1, p) for p in photos],
            sample_interval_s=50.0,
        )
        result = sim.run()
        aspect_series = [s.aspect_coverage_deg for s in result.samples]
        assert aspect_series == sorted(aspect_series)
        assert result.samples[-1].point_coverage == 1.0

    def test_deliver_deduplicates(self):
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        sim = sim_with(contacts=[], arrivals=[])
        assert sim.deliver(photo)
        assert not sim.deliver(photo)
        assert sim.command_center.received_count == 1

    def test_incremental_coverage_matches_index(self):
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=float(d)) for d in (0, 90)]
        sim = sim_with(contacts=[], arrivals=[])
        for photo in photos:
            sim.deliver(photo)
        assert sim.center_coverage().isclose(sim.index.collection_coverage(photos))

    def test_unknown_node_events_skipped(self):
        """Events for nodes absent from the node map are ignored gracefully."""
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        sim = sim_with(
            contacts=[(10.0, 1, 2, 60.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
        )
        # Manually inject an event pair referencing an unknown node.
        from repro.dtn.events import Event, EventKind

        sim._queue.push(Event(5.0, EventKind.CONTACT, (1, 99, 60.0)))
        sim._queue.push(Event(5.0, EventKind.PHOTO_CREATED, (99, photo)))
        result = sim.run()  # must not raise
        assert result.contacts_processed == 1

    def test_end_time_extends_beyond_trace(self):
        sim = sim_with(contacts=[(10.0, 1, 2, 60.0)], arrivals=[],
                       sample_interval_s=100.0)
        assert sim.run().samples[-1].time == pytest.approx(70.0)

    def test_explicit_end_time(self):
        sim = Simulation(
            trace=ContactTrace([ContactRecord(10.0, 1, 2, 60.0)]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=[],
            scheme=SprayAndWaitScheme(),
            config=SimulationConfig(sample_interval_s=100.0),
            end_time_s=500.0,
        )
        assert sim.run().samples[-1].time == 500.0

    def test_result_scheme_name(self):
        sim = sim_with(contacts=[], arrivals=[], scheme=SprayAndWaitScheme())
        assert sim.run().scheme == "spray-and-wait"

    def test_empty_simulation(self):
        sim = sim_with(contacts=[], arrivals=[])
        result = sim.run()
        assert result.delivered_photos == 0
        assert result.final_point_coverage == 0.0

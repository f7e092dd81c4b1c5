"""Tests for less-traveled code paths across modules."""

from __future__ import annotations

import math

import pytest

from repro.core.angular import ArcSet, AngularInterval
from repro.core.coverage_index import CoverageIndex, PoICoverageState
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.routing.base import individual_coverage
from repro.routing.coverage_scheme import CoverageSelectionScheme

from helpers import MB, make_photo, photo_at_aspect

THETA = math.radians(30.0)
PHOTO = 4 * MB


class TestRestrictedAspectsInIndexState:
    def restricted_index(self):
        entrance = ArcSet([AngularInterval.around(0.0, math.radians(45.0))])
        pois = PoIList([PoI(location=Point(0.0, 0.0), important_aspects=entrance)])
        return CoverageIndex(pois, effective_angle=THETA)

    def test_gain_respects_restriction_first_photo(self):
        index = self.restricted_index()
        state = PoICoverageState(index)
        east = photo_at_aspect(Point(0.0, 0.0), 0.0)      # arc [-30, 30]: inside
        back = photo_at_aspect(Point(0.0, 0.0), 180.0)    # arc [150, 210]: outside
        assert state.gain_of(east).aspect == pytest.approx(2 * THETA)
        assert state.gain_of(back).aspect == pytest.approx(0.0)
        # Point coverage is unrestricted: both cover the PoI.
        assert state.gain_of(back).point == 1.0

    def test_gain_respects_restriction_with_existing_arcs(self):
        index = self.restricted_index()
        state = PoICoverageState(index)
        state.add_photo(photo_at_aspect(Point(0.0, 0.0), 0.0))
        # A photo at aspect 30: arc [0, 60]; only [0, 45] matters, and
        # [0, 30] is already covered -> marginal = 15 degrees.
        probe = photo_at_aspect(Point(0.0, 0.0), 30.0)
        assert state.gain_of(probe).aspect == pytest.approx(math.radians(15.0), abs=1e-9)

    def test_weighted_and_restricted_combine(self):
        entrance = ArcSet([AngularInterval.around(0.0, math.radians(45.0))])
        pois = PoIList(
            [PoI(location=Point(0.0, 0.0), weight=2.0, important_aspects=entrance)]
        )
        index = CoverageIndex(pois, effective_angle=THETA)
        state = PoICoverageState(index)
        gain = state.add_photo(photo_at_aspect(Point(0.0, 0.0), 0.0))
        assert gain.point == 2.0
        assert gain.aspect == pytest.approx(2.0 * 2 * THETA)


class TestIndividualCoverage:
    class FakeSim:
        def __init__(self, index):
            self.index = index
            self.scratch = {}

        def incidences(self, photo):
            return self.index.incidences(photo)

    def test_individual_coverage_value(self):
        index = CoverageIndex(PoIList.from_points([Point(0.0, 0.0)]), effective_angle=THETA)
        sim = self.FakeSim(index)
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        value = individual_coverage(sim, photo)
        assert value.point == 1.0
        assert value.aspect == pytest.approx(2 * THETA)

    def test_memoized_in_sim_scratch(self):
        index = CoverageIndex(PoIList.from_points([Point(0.0, 0.0)]), effective_angle=THETA)
        sim = self.FakeSim(index)
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        first = individual_coverage(sim, photo)
        assert individual_coverage(sim, photo) is first

    def test_degenerate_camera_on_poi(self):
        index = CoverageIndex(PoIList.from_points([Point(0.0, 0.0)]), effective_angle=THETA)
        sim = self.FakeSim(index)
        photo = make_photo(0.0, 0.0, 0.0)
        value = individual_coverage(sim, photo)
        assert value.point == 1.0
        assert value.aspect == 0.0


class TestSimulatorEdgeInputs:
    """Degenerate simulation inputs the event loop must tolerate."""

    def sim(self, contacts, arrivals, scheme=None):
        from repro.dtn.simulator import Simulation, SimulationConfig
        from repro.traces.model import ContactRecord, ContactTrace

        return Simulation(
            trace=ContactTrace([ContactRecord(*c) for c in contacts]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=arrivals,
            scheme=scheme or CoverageSelectionScheme(),
            config=SimulationConfig(
                storage_bytes=10 * PHOTO,
                bandwidth_bytes_per_s=2 * MB,
                effective_angle=THETA,
                sample_interval_s=100.0,
            ),
        )

    def test_zero_duration_contact_moves_no_bytes(self):
        from repro.workload.photos import PhotoArrival

        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = self.sim(
            contacts=[(100.0, 1, 2, 0.0), (200.0, 0, 1, 0.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
        )
        result = sim.run()
        # Both contacts dispatch (they are real scan events) but a zero
        # byte budget forbids any transfer or delivery.
        assert result.contacts_processed == 1
        assert result.center_contacts == 1
        assert result.delivered_photos == 0
        assert photo.photo_id in sim.nodes[1].storage
        assert photo.photo_id not in sim.nodes[2].storage

    def test_self_contact_event_is_ignored(self):
        from repro.dtn.events import Event, EventKind

        sim = self.sim(contacts=[(50.0, 1, 2, 10.0)], arrivals=[])
        # ContactRecord rejects self-contacts at construction, but a faulty
        # trace loader (or a delayed/reordered fault event) could still
        # enqueue one; the event loop must skip it rather than crash.
        sim._queue.push(Event(10.0, EventKind.CONTACT, (1, 1, 60.0)))
        sim._queue.push(Event(20.0, EventKind.CONTACT, (0, 0, 60.0)))
        result = sim.run()
        assert result.contacts_processed == 1  # only the genuine contact
        assert result.center_contacts == 0

    def test_empty_photo_pool_runs_to_completion(self):
        sim = self.sim(
            contacts=[(100.0, 1, 2, 60.0), (200.0, 0, 1, 60.0)],
            arrivals=[],
        )
        result = sim.run()
        assert result.created_photos == 0
        assert result.delivered_photos == 0
        assert result.contacts_processed == 1
        assert result.center_contacts == 1
        assert result.samples
        assert all(s.point_coverage == 0.0 for s in result.samples)

    def test_empty_trace_and_no_photos(self):
        from repro.dtn.simulator import Simulation, SimulationConfig
        from repro.traces.model import ContactTrace

        sim = Simulation(
            trace=ContactTrace([]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=[],
            scheme=CoverageSelectionScheme(),
            config=SimulationConfig(sample_interval_s=100.0),
        )
        result = sim.run()
        assert result.delivered_photos == 0
        assert result.samples  # the END event still records a sample


class TestMiscConstruction:
    def test_no_metadata_factory(self):
        scheme = CoverageSelectionScheme(use_metadata_cache=False)
        assert isinstance(scheme, CoverageSelectionScheme)
        assert scheme.name == "no-metadata"
        assert not scheme.use_metadata_cache

    def test_scheme_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            CoverageSelectionScheme(min_delivery_probability=1.5)

    def test_line_chart_y_label(self):
        from repro.experiments.asciiplot import line_chart

        chart = line_chart({"a": [1.0, 2.0]}, width=10, height=3, y_label="cov")
        assert chart.splitlines()[0].strip() == "cov"

"""Tests for centralized selection, JSON persistence, and the event log."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.centralized import select_full_view, select_max_coverage
from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.dtn.simulator import SampleRecord, Simulation, SimulationConfig, SimulationResult
from repro.dtn.tracelog import SimulationLog, attach_logging
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

from helpers import MB, make_photo, photo_at_aspect

THETA = math.radians(30.0)


def index_for(points):
    return CoverageIndex(PoIList.from_points(points), effective_angle=THETA)


class TestSelectMaxCoverage:
    def test_respects_photo_budget(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in (0, 90, 180, 270)]
        selection = select_max_coverage(index, photos, max_photos=2)
        assert len(selection) == 2
        # Two photos at opposite aspects: 4*theta total.
        assert selection.coverage.aspect == pytest.approx(4 * THETA)

    def test_respects_byte_budget(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in (0, 120, 240)]
        selection = select_max_coverage(index, photos, byte_budget=2 * 4 * MB)
        assert selection.total_bytes <= 2 * 4 * MB
        assert len(selection) == 2

    def test_skips_useless_and_redundant(self):
        index = index_for([Point(0.0, 0.0)])
        useful = photo_at_aspect(Point(0.0, 0.0), 0.0)
        duplicate = photo_at_aspect(Point(0.0, 0.0), 0.0)
        junk = make_photo(9999.0, 9999.0, 0.0)
        selection = select_max_coverage(index, [junk, useful, duplicate])
        assert selection.photos == [useful]

    def test_zero_budget(self):
        index = index_for([Point(0.0, 0.0)])
        selection = select_max_coverage(
            index, [photo_at_aspect(Point(0.0, 0.0), 0.0)], max_photos=0
        )
        assert selection.photos == []
        assert selection.coverage == CoverageValue.ZERO

    def test_validation(self):
        index = index_for([Point(0.0, 0.0)])
        with pytest.raises(ValueError):
            select_max_coverage(index, [], max_photos=-1)
        with pytest.raises(ValueError):
            select_max_coverage(index, [], byte_budget=-1)

    def test_greedy_is_near_optimal_on_partition(self):
        """Disjoint arcs: greedy achieves the true optimum exactly."""
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in (0, 72, 144, 216, 288)]
        selection = select_max_coverage(index, photos, max_photos=5)
        assert selection.coverage.aspect == pytest.approx(10 * THETA)


class TestSelectFullView:
    def test_reaches_full_view_with_minimum_ring(self):
        index = index_for([Point(0.0, 0.0)])
        # 8 photos at 45-degree spacing, arcs of 60 degrees: 6 suffice... the
        # greedy must reach 360 using a subset and report full coverage.
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in range(0, 360, 45)]
        selection, full = select_full_view(index, photos)
        assert full
        assert selection.coverage.aspect == pytest.approx(2 * math.pi)
        assert len(selection) <= len(photos)

    def test_reports_unreachable_full_view(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), 0.0)]
        selection, full = select_full_view(index, photos)
        assert not full
        assert len(selection) == 1

    def test_no_coverable_pois_is_trivially_full(self):
        index = index_for([Point(0.0, 0.0)])
        _, full = select_full_view(index, [make_photo(9999.0, 9999.0, 0.0)])
        assert full


class TestPersistence:
    def make_result(self):
        result = SimulationResult(
            scheme="our-scheme",
            final_coverage=CoverageValue(2.0, 1.5),
            delivered_photos=3,
            created_photos=10,
            contacts_processed=5,
            center_contacts=2,
            delivery_latencies_s=[10.0, 20.0, 30.0],
        )
        result.samples.append(SampleRecord(3600.0, 0.5, 45.0, 3))
        return result

    def test_result_roundtrip(self):
        original = self.make_result()
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
        assert restored.scheme == original.scheme
        assert restored.final_coverage == original.final_coverage
        assert restored.delivery_latencies_s == original.delivery_latencies_s
        assert restored.samples == original.samples


class TestSimulationLog:
    def run_logged(self):
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        scheme, log = attach_logging(CoverageSelectionScheme())
        sim = Simulation(
            trace=ContactTrace(
                [ContactRecord(100.0, 1, 2, 600.0), ContactRecord(200.0, 0, 2, 600.0)]
            ),
            pois=PoIList.from_points([Point(0.0, 0.0)]),
            photo_arrivals=[PhotoArrival(0.0, 1, photo)],
            scheme=scheme,
            config=SimulationConfig(unlimited_contacts=True, sample_interval_s=3600.0),
        )
        result = sim.run()
        return photo, log, result

    def test_events_recorded_in_order(self):
        photo, log, result = self.run_logged()
        kinds = [entry.kind for entry in log.entries]
        assert kinds == ["photo-created", "contact", "uplink"]
        assert result.delivered_photos == 1

    def test_storage_deltas_tracked(self):
        photo, log, _ = self.run_logged()
        created = log.entries[0]
        assert created.gained == {1: [photo.photo_id]}
        contact = log.entries[1]
        assert photo.photo_id in contact.gained.get(2, [])

    def test_delivery_recorded(self):
        photo, log, _ = self.run_logged()
        uplink = log.entries[2]
        assert uplink.delivered == [photo.photo_id]

    def test_delivery_path(self):
        photo, log, _ = self.run_logged()
        path = log.delivery_path(photo.photo_id)
        assert path[0] == 1          # created at node 1
        assert path[-1] == 0         # ends at the command center
        assert 2 in path             # relayed through node 2

    def test_transfers_of(self):
        photo, log, _ = self.run_logged()
        assert len(log.transfers_of(photo.photo_id)) == 3

    def test_wrapped_scheme_keeps_name(self):
        scheme, _ = attach_logging(CoverageSelectionScheme())
        assert scheme.name == "our-scheme"

"""Tests for the coverage analysis metrics (full-view, k-view, redundancy)."""

from __future__ import annotations

import math

import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.metrics import analyze_collection
from repro.core.poi import PoIList

from helpers import make_photo, photo_at_aspect

THETA = math.radians(30.0)


def index_for(points):
    return CoverageIndex(PoIList.from_points(points), effective_angle=THETA)


class TestAnalyzeCollection:
    def test_empty_collection(self):
        index = index_for([Point(0.0, 0.0)])
        report = analyze_collection(index, [])
        assert report.num_photos == 0
        assert report.point_coverage == 0.0
        assert report.full_view_fraction == 0.0
        assert report.per_poi[0].covered is False

    def test_single_photo_report(self):
        index = index_for([Point(0.0, 0.0)])
        report = analyze_collection(index, [photo_at_aspect(Point(0.0, 0.0), 45.0)])
        poi = report.per_poi[0]
        assert poi.covered
        assert poi.covering_photos == 1
        assert poi.aspect_deg == pytest.approx(60.0)
        assert not poi.full_view
        assert poi.distinct_views == 1
        assert poi.overlap_deg == pytest.approx(0.0)

    def test_full_view_detected(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in range(0, 360, 45)]
        report = analyze_collection(index, photos)
        assert report.per_poi[0].full_view
        assert report.full_view_fraction == 1.0

    def test_overlap_measured(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), 0.0),
            photo_at_aspect(Point(0.0, 0.0), 30.0),  # arcs overlap by 30 deg
        ]
        report = analyze_collection(index, photos)
        assert report.per_poi[0].overlap_deg == pytest.approx(30.0, abs=1e-6)
        assert report.mean_overlap_deg == pytest.approx(30.0, abs=1e-6)

    def test_distinct_views_greedy_count(self):
        index = index_for([Point(0.0, 0.0)])
        # Views at 0, 10, 180 deg with 30-deg separation -> 2 distinct.
        photos = [photo_at_aspect(Point(0.0, 0.0), d) for d in (0.0, 10.0, 180.0)]
        report = analyze_collection(index, photos)
        assert report.per_poi[0].distinct_views == 2

    def test_aggregates(self):
        index = index_for([Point(0.0, 0.0), Point(500.0, 0.0), Point(0.0, 500.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), 0.0),
            photo_at_aspect(Point(0.0, 0.0), 180.0),
            photo_at_aspect(Point(500.0, 0.0), 90.0),
        ]
        report = analyze_collection(index, photos)
        assert report.point_coverage == pytest.approx(2.0 / 3.0)
        assert report.mean_photos_per_covered_poi == pytest.approx(1.5)
        assert report.mean_aspect_deg == pytest.approx((120.0 + 60.0 + 0.0) / 3.0)

    def test_noncovering_photos_counted_but_harmless(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [make_photo(9000.0, 9000.0, 0.0)]
        report = analyze_collection(index, photos)
        assert report.num_photos == 1
        assert report.point_coverage == 0.0

    def test_paper_redundancy_argument(self):
        """Sec. V-E: N photos per PoI with little overlap cover ~ N * 2*theta."""
        index = index_for([Point(0.0, 0.0)])
        # 3 photos at well-separated aspects: no overlap at all.
        photos = [photo_at_aspect(Point(0.0, 0.0), d) for d in (0.0, 120.0, 240.0)]
        report = analyze_collection(index, photos)
        poi = report.per_poi[0]
        ideal = poi.covering_photos * math.degrees(2 * THETA)
        assert poi.aspect_deg == pytest.approx(ideal)
        assert poi.overlap_deg == pytest.approx(0.0)

    def test_overlap_of_two_photos(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), d) for d in (0.0, 30.0)]
        report = analyze_collection(index, photos)
        assert report.per_poi[0].overlap_deg == pytest.approx(30.0, abs=1e-6)

"""Tests for the coverage index: incidences, incremental state, normalization.

The key property: the index-based computation agrees exactly with the
reference (index-free) implementation in :mod:`repro.core.coverage`, for
randomized photo sets.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageValue, collection_coverage
from repro.core.coverage_index import CoverageIndex, PoICoverageState
from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoI, PoIList

from helpers import make_photo, photo_at_aspect

THETA = math.radians(30.0)


def random_photo_strategy(span: float = 600.0):
    return st.builds(
        make_photo,
        x=st.floats(-span, span),
        y=st.floats(-span, span),
        orientation_deg=st.floats(0.0, 360.0),
        fov_deg=st.floats(30.0, 60.0),
        coverage_range=st.floats(20.0, 300.0),
    )


class TestIncidences:
    def test_covering_photo_has_incidence(self, three_poi_index):
        photo = make_photo(-50.0, 0.0, 0.0, coverage_range=100.0)
        incidences = three_poi_index.incidences(photo)
        assert [poi_id for poi_id, _ in incidences] == [0]

    def test_viewing_direction_recorded(self, three_poi_index):
        photo = make_photo(-50.0, 0.0, 0.0, coverage_range=100.0)
        ((_, direction),) = three_poi_index.incidences(photo)
        assert direction == pytest.approx(math.pi)  # camera west of PoI 0

    def test_memoized(self, three_poi_index):
        photo = make_photo(-50.0, 0.0, 0.0)
        first = three_poi_index.incidences(photo)
        assert three_poi_index.incidences(photo) is first

    def test_camera_on_poi_degenerate(self, three_poi_index):
        photo = make_photo(0.0, 0.0, 0.0)
        ((poi_id, direction),) = three_poi_index.incidences(photo)
        assert poi_id == 0
        assert math.isnan(direction)

    def test_covers_anything(self, three_poi_index):
        assert three_poi_index.covers_anything(make_photo(-50.0, 0.0, 0.0))
        assert not three_poi_index.covers_anything(make_photo(5000.0, 5000.0, 0.0))

    def test_wide_photo_covers_multiple_pois(self):
        pois = PoIList.from_points([Point(100.0, 0.0), Point(100.0, 10.0)])
        index = CoverageIndex(pois, effective_angle=THETA)
        photo = make_photo(0.0, 0.0, 0.0, fov_deg=90.0, coverage_range=200.0)
        assert len(index.incidences(photo)) == 2

    def test_incidence_arcs_match_incidences(self, three_poi_index):
        photo = make_photo(-50.0, 0.0, 0.0, coverage_range=100.0)
        point_ids, arcs = three_poi_index.incidence_arcs(photo)
        assert point_ids == (0,)
        ((poi_id, segments),) = arcs
        assert poi_id == 0
        total = sum(hi - lo for lo, hi in segments)
        assert total == pytest.approx(2 * THETA)

    def test_incidence_arcs_degenerate_has_no_arc(self, three_poi_index):
        photo = make_photo(0.0, 0.0, 0.0)
        point_ids, arcs = three_poi_index.incidence_arcs(photo)
        assert point_ids == (0,)
        assert arcs == ()


class TestCollectionCoverageViaIndex:
    def test_matches_reference_simple(self, three_pois, three_poi_index):
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(500.0, 0.0), aspect_deg=120.0),
            make_photo(5000.0, 5000.0, 0.0),
        ]
        via_index = three_poi_index.collection_coverage(photos)
        reference = collection_coverage(three_pois, photos, THETA)
        assert via_index.isclose(reference)

    @given(st.lists(random_photo_strategy(), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_randomized(self, photos):
        pois = PoIList.from_points(
            [Point(0.0, 0.0), Point(300.0, 0.0), Point(-200.0, 150.0), Point(0.0, -400.0)]
        )
        index = CoverageIndex(pois, effective_angle=THETA)
        via_index = index.collection_coverage(photos)
        reference = collection_coverage(pois, photos, THETA)
        assert via_index.point == pytest.approx(reference.point, abs=1e-9)
        assert via_index.aspect == pytest.approx(reference.aspect, abs=1e-9)

    def test_weighted_pois(self):
        pois = PoIList([PoI(location=Point(0.0, 0.0), weight=5.0)])
        index = CoverageIndex(pois, effective_angle=THETA)
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        value = index.collection_coverage([photo])
        assert value.point == 5.0
        assert value.aspect == pytest.approx(5.0 * 2 * THETA)


class TestPoICoverageState:
    def test_incremental_equals_batch(self, three_poi_index):
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=d) for d in (0.0, 90.0, 45.0)
        ] + [photo_at_aspect(Point(500.0, 0.0), aspect_deg=200.0)]
        state = PoICoverageState(three_poi_index)
        for photo in photos:
            state.add_photo(photo)
        batch = three_poi_index.collection_coverage(photos)
        assert state.total().isclose(batch)

    def test_gain_matches_realized_delta(self, three_poi_index):
        state = PoICoverageState(three_poi_index)
        first = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        second = photo_at_aspect(Point(0.0, 0.0), aspect_deg=30.0)
        state.add_photo(first)
        before = state.total()
        predicted = state.gain_of(second)
        realized = state.add_photo(second)
        assert predicted.isclose(realized)
        assert state.total().isclose(before + realized)

    def test_gain_of_does_not_mutate(self, three_poi_index):
        state = PoICoverageState(three_poi_index)
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        state.gain_of(photo)
        assert state.total() == CoverageValue.ZERO

    def test_copy_is_independent(self, three_poi_index):
        state = PoICoverageState(three_poi_index)
        state.add_photo(photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0))
        clone = state.copy()
        clone.add_photo(photo_at_aspect(Point(0.0, 0.0), aspect_deg=180.0))
        assert clone.total() > state.total()

    def test_duplicate_photo_adds_nothing(self, three_poi_index):
        state = PoICoverageState(three_poi_index)
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        state.add_photo(photo)
        gain = state.add_photo(photo)
        assert gain == CoverageValue.ZERO


class TestNormalization:
    def test_normalized_point_fraction(self, three_poi_index):
        value = CoverageValue(2.0, math.pi)
        point_norm, aspect_deg = three_poi_index.normalized(value)
        assert point_norm == pytest.approx(2.0 / 3.0)
        assert aspect_deg == pytest.approx(60.0)

    def test_normalized_empty_poi_list(self):
        index = CoverageIndex(PoIList([]), effective_angle=THETA)
        assert index.normalized(CoverageValue(0.0, 0.0)) == (0.0, 0.0)

    def test_effective_angle_validation(self, three_pois):
        with pytest.raises(ValueError):
            CoverageIndex(three_pois, effective_angle=0.0)
        with pytest.raises(ValueError):
            CoverageIndex(three_pois, effective_angle=4.0)

"""Tests for photo metadata, photos, and PoI lists."""

from __future__ import annotations

import math

import pytest

from repro.core.angular import ArcSet, AngularInterval
from repro.core.geometry import Point
from repro.core.metadata import DEFAULT_PHOTO_SIZE_BYTES, Photo, PhotoMetadata
from repro.core.poi import PoI, PoIList

from helpers import make_photo


class TestPhotoMetadata:
    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            PhotoMetadata(Point(0, 0), -1.0, 1.0, 0.0)

    def test_rejects_bad_fov(self):
        with pytest.raises(ValueError):
            PhotoMetadata(Point(0, 0), 10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PhotoMetadata(Point(0, 0), 10.0, math.pi, 0.0)

    def test_from_camera_derives_range(self):
        metadata = PhotoMetadata.from_camera(
            Point(0, 0), field_of_view=math.radians(60.0), orientation=0.0
        )
        assert metadata.coverage_range == pytest.approx(86.6, abs=0.1)

    def test_covers_uses_sector(self):
        metadata = PhotoMetadata(Point(0, 0), 100.0, math.radians(60.0), 0.0)
        assert metadata.covers(Point(50.0, 0.0))
        assert not metadata.covers(Point(-50.0, 0.0))

    def test_viewing_direction(self):
        metadata = PhotoMetadata(Point(0, 0), 100.0, math.radians(60.0), 0.0)
        assert metadata.viewing_direction_of(Point(50.0, 0.0)) == pytest.approx(math.pi)

    def test_frozen(self):
        metadata = PhotoMetadata(Point(0, 0), 100.0, 1.0, 0.0)
        with pytest.raises(AttributeError):
            metadata.coverage_range = 5.0


class TestPhoto:
    def test_default_size_is_4mb(self):
        assert DEFAULT_PHOTO_SIZE_BYTES == 4 * 1024 * 1024
        assert make_photo(0, 0, 0).size_bytes == DEFAULT_PHOTO_SIZE_BYTES

    def test_unique_ids(self):
        a = make_photo(0, 0, 0)
        b = make_photo(0, 0, 0)
        assert a.photo_id != b.photo_id

    def test_equality_by_id(self):
        a = make_photo(0, 0, 0)
        assert a == a
        assert a != make_photo(0, 0, 0)

    def test_hashable(self):
        a = make_photo(0, 0, 0)
        assert len({a, a}) == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Photo(metadata=make_photo(0, 0, 0).metadata, size_bytes=0)

    def test_location_shortcut(self):
        photo = make_photo(3.0, 4.0, 0)
        assert photo.location == Point(3.0, 4.0)

    def test_covers_delegates_to_metadata(self):
        photo = make_photo(0, 0, 0, coverage_range=100.0)
        assert photo.covers(Point(50.0, 0.0))


class TestPoI:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            PoI(location=Point(0, 0), weight=-1.0)

    def test_default_weight_one(self):
        assert PoI(location=Point(0, 0)).weight == 1.0


class TestPoIList:
    def test_assigns_sequential_ids(self):
        pois = PoIList([PoI(location=Point(0, 0)), PoI(location=Point(1, 1))])
        assert [p.poi_id for p in pois] == [0, 1]

    def test_rejects_conflicting_preassigned_id(self):
        with pytest.raises(ValueError):
            PoIList([PoI(location=Point(0, 0), poi_id=5)])

    def test_accepts_matching_preassigned_id(self):
        pois = PoIList([PoI(location=Point(0, 0), poi_id=0)])
        assert pois[0].poi_id == 0

    def test_from_points(self):
        pois = PoIList.from_points([Point(0, 0), Point(1, 1)], weight=2.0)
        assert len(pois) == 2
        assert pois[1].weight == 2.0

    def test_total_weight(self):
        pois = PoIList(
            [PoI(location=Point(0, 0), weight=1.0), PoI(location=Point(1, 1), weight=3.0)]
        )
        assert pois.total_weight == 4.0

    def test_locations(self):
        pois = PoIList.from_points([Point(0, 0), Point(1, 1)])
        assert pois.locations() == [Point(0, 0), Point(1, 1)]

    def test_preserves_important_aspects(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0)])
        pois = PoIList([PoI(location=Point(0, 0), important_aspects=arcs)])
        assert pois[0].important_aspects is arcs

    def test_iteration_and_len(self):
        pois = PoIList.from_points([Point(float(i), 0.0) for i in range(5)])
        assert len(pois) == 5
        assert len(list(pois)) == 5

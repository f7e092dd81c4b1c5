"""Tests for photo metadata, photos, and PoI lists."""

from __future__ import annotations

import math
import pickle

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
            Photo(metadata=make_photo(0, 0, 0).metadata, photo_id=0, size_bytes=0)

    def test_photo_id_is_required(self):
        with pytest.raises(TypeError):
            Photo(metadata=make_photo(0, 0, 0).metadata)

    def test_unpickles_photo_written_with_id_as_last_field(self):
        # Pickled when ``photo_id`` was the last field and had a default;
        # service snapshots pickle photos, so older snapshots must still load.
        written = bytes.fromhex(
            "8004953b010000000000008c13726570726f2e636f72652e6d65746164617461"
            "948c0550686f746f9493942981947d94288c086d657461646174619468008c0d"
            "50686f746f4d657461646174619493942981947d94288c086c6f636174696f6e"
            "948c13726570726f2e636f72652e67656f6d65747279948c05506f696e749493"
            "942981947d94288c017894473ff00000000000008c0179944740000000000000"
            "0075628c0e636f7665726167655f72616e6765944740590000000000008c0d66"
            "69656c645f6f665f7669657794473fe00000000000008c0b6f7269656e746174"
            "696f6e94473ff400000000000075628c0a73697a655f6279746573944de8038c"
            "0874616b656e5f61749447400c0000000000008c086f776e65725f6964944b04"
            "8c08666561747572657394473fd000000000000085948c0870686f746f5f6964"
            "944b1175622e"
        )
        photo = pickle.loads(written)
        assert photo.photo_id == 17
        assert photo.metadata == PhotoMetadata(Point(1.0, 2.0), 100.0, 0.5, 1.25)
        assert (photo.size_bytes, photo.taken_at, photo.owner_id) == (1000, 3.5, 4)
        assert photo.features == (0.25,)

    def test_pickle_round_trip_keeps_every_field(self):
        photo = make_photo(3.0, 4.0, 90.0, taken_at=2.0, owner_id=5, photo_id=41)
        clone = pickle.loads(pickle.dumps(photo))
        assert (clone.photo_id, clone.taken_at, clone.owner_id) == (41, 2.0, 5)
        assert clone.metadata == photo.metadata

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

    def test_preserves_important_aspects(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0)])
        pois = PoIList([PoI(location=Point(0, 0), important_aspects=arcs)])
        assert pois[0].important_aspects is arcs

    def test_iteration_and_len(self):
        pois = PoIList.from_points([Point(float(i), 0.0) for i in range(5)])
        assert len(pois) == 5
        assert len(list(pois)) == 5

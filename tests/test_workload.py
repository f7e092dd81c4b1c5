"""Tests for the workload generators (Table I photo metadata, PoIs)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.metadata import PhotoMetadata
from repro.workload import photos as photos_module
from repro.workload.photos import PhotoGenerator, PhotoGeneratorSpec, generate_photo_schedule
from repro.workload.pois import clustered_pois, random_pois, ring_viewpoints


class TestPhotoGeneratorSpec:
    def test_table_i_defaults(self):
        spec = PhotoGeneratorSpec()
        assert spec.photo_size_bytes == 4 * 1024 * 1024
        assert spec.fov_range_deg == (30.0, 60.0)
        assert spec.range_scale_m == (50.0, 100.0)
        assert spec.region_width_m == 6300.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotoGeneratorSpec(region_width_m=0.0)
        with pytest.raises(ValueError):
            PhotoGeneratorSpec(fov_range_deg=(60.0, 30.0))
        with pytest.raises(ValueError):
            PhotoGeneratorSpec(range_scale_m=(0.0, 10.0))
        with pytest.raises(ValueError):
            PhotoGeneratorSpec(photo_size_bytes=0)
        with pytest.raises(ValueError):
            PhotoGeneratorSpec(targeted_fraction=1.5)


class TestPhotoGenerator:
    def test_metadata_within_table_i_ranges(self):
        generator = PhotoGenerator(seed=0)
        for _ in range(300):
            photo = generator.next_photo()
            fov_deg = math.degrees(photo.metadata.field_of_view)
            assert 30.0 <= fov_deg <= 60.0
            # r = c * cot(fov/2) with c in [50, 100].
            implied_c = photo.metadata.coverage_range * math.tan(
                photo.metadata.field_of_view / 2.0
            )
            assert 50.0 - 1e-6 <= implied_c <= 100.0 + 1e-6
            assert 0.0 <= photo.metadata.orientation < 2 * math.pi
            assert 0.0 <= photo.location.x <= 6300.0
            assert 0.0 <= photo.location.y <= 6300.0
            assert photo.size_bytes == 4 * 1024 * 1024

    def test_deterministic_metadata_for_seed(self):
        a = PhotoGenerator(seed=5).next_photo()
        b = PhotoGenerator(seed=5).next_photo()
        assert a.metadata == b.metadata
        assert a.photo_id == b.photo_id

    def test_numbers_photos_in_draw_order(self):
        generator = PhotoGenerator(seed=5)
        ids = [p.photo_id for p in generator.batch(3)] + [generator.next_photo().photo_id]
        assert ids == [0, 1, 2, 3]

    def test_generators_number_independently(self):
        busy = PhotoGenerator(seed=1)
        busy.batch(10)
        assert PhotoGenerator(seed=2).next_photo().photo_id == 0
        assert busy.next_photo().photo_id == 10

    def test_targeted_photos_cover_their_target(self):
        pois = random_pois(10, seed=1)
        generator = PhotoGenerator(
            PhotoGeneratorSpec(targeted_fraction=1.0), pois=pois, seed=2
        )
        index = CoverageIndex(pois)
        hits = sum(1 for _ in range(100) if index.covers_anything(generator.next_photo()))
        assert hits >= 95  # aimed photos nearly always cover a PoI

    def test_targeted_requires_pois(self):
        with pytest.raises(ValueError):
            PhotoGenerator(PhotoGeneratorSpec(targeted_fraction=0.5), pois=None)

    def test_batch(self):
        photos = PhotoGenerator(seed=0).batch(5, taken_at=42.0)
        assert len(photos) == 5
        assert all(p.taken_at == 42.0 for p in photos)

    def test_owner_and_time_stamped(self):
        photo = PhotoGenerator(seed=0).next_photo(taken_at=10.0, owner_id=3)
        assert photo.taken_at == 10.0
        assert photo.owner_id == 3


class TestPhotoSchedule:
    def test_rate_roughly_respected(self):
        generator = PhotoGenerator(seed=0)
        arrivals = generate_photo_schedule(
            generator, [1, 2, 3], photos_per_hour=100.0, duration_s=100 * 3600.0, seed=1
        )
        assert 0.9 * 10000 < len(arrivals) < 1.1 * 10000

    def test_owners_drawn_from_participants(self):
        generator = PhotoGenerator(seed=0)
        arrivals = generate_photo_schedule(
            generator, [7, 9], photos_per_hour=50.0, duration_s=10 * 3600.0, seed=2
        )
        assert {a.owner_id for a in arrivals} <= {7, 9}
        assert all(a.photo.owner_id == a.owner_id for a in arrivals)

    def test_times_sorted_within_horizon(self):
        generator = PhotoGenerator(seed=0)
        arrivals = generate_photo_schedule(
            generator, [1], photos_per_hour=50.0, duration_s=3600.0, seed=3
        )
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 < t < 3600.0 for t in times)

    def test_zero_rate_empty(self):
        generator = PhotoGenerator(seed=0)
        assert generate_photo_schedule(generator, [1], 0.0, 3600.0) == []

    def test_validation(self):
        generator = PhotoGenerator(seed=0)
        with pytest.raises(ValueError):
            generate_photo_schedule(generator, [], 10.0, 3600.0)
        with pytest.raises(ValueError):
            generate_photo_schedule(generator, [1], -1.0, 3600.0)

    def test_ids_follow_schedule_order(self):
        schedule = generate_photo_schedule(
            PhotoGenerator(seed=0), [1, 2, 3], photos_per_hour=200.0, duration_s=3600.0, seed=4
        )
        assert schedule
        assert [a.photo.photo_id for a in schedule] == list(range(len(schedule)))

    def test_deterministic(self):
        g1 = PhotoGenerator(seed=0)
        g2 = PhotoGenerator(seed=0)
        a = generate_photo_schedule(g1, [1, 2], 20.0, 3600.0, seed=5)
        b = generate_photo_schedule(g2, [1, 2], 20.0, 3600.0, seed=5)
        assert [(x.time, x.owner_id) for x in a] == [(y.time, y.owner_id) for y in b]


def scalar_metadata(rng, spec, pois):
    """Oracle: one photo's metadata from scalar draws, five per uniform
    photo -- the per-photo generator the bulk draw replaced."""

    def fov_and_range():
        fov = math.radians(rng.uniform(*spec.fov_range_deg))
        scale = rng.uniform(*spec.range_scale_m)
        return fov, scale / math.tan(fov / 2.0)

    if spec.targeted_fraction > 0.0 and rng.random() < spec.targeted_fraction:
        fov, coverage_range = fov_and_range()
        poi = pois[int(rng.integers(0, len(pois)))]
        aspect = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(0.1, 0.9) * coverage_range
        location = Point(
            poi.location.x + distance * math.cos(aspect),
            poi.location.y - distance * math.sin(aspect),
        )
        jitter = rng.uniform(-fov / 4.0, fov / 4.0)
        return PhotoMetadata(location, coverage_range, fov, location.bearing_to(poi.location) + jitter)
    fov, coverage_range = fov_and_range()
    location = Point(rng.uniform(0.0, spec.region_width_m), rng.uniform(0.0, spec.region_height_m))
    return PhotoMetadata(location, coverage_range, fov, rng.uniform(0.0, 2.0 * math.pi))


def scalar_schedule(spec, pois, generator_seed, participants, photos_per_hour, duration_s, seed):
    """Oracle: ``(time, owner, metadata)`` with each photo drawn at its arrival."""
    schedule_rng = np.random.default_rng(seed)
    metadata_rng = np.random.default_rng(generator_seed)
    rows = []
    time = schedule_rng.exponential(3600.0 / photos_per_hour)
    while time < duration_s:
        owner = participants[int(schedule_rng.integers(0, len(participants)))]
        rows.append((time, owner, scalar_metadata(metadata_rng, spec, pois)))
        time += schedule_rng.exponential(3600.0 / photos_per_hour)
    return rows


class TestBulkDrawsMatchScalarOracle:
    """The bulk metadata draw is bitwise the scalar per-photo stream."""

    @pytest.mark.parametrize("block", [3, photos_module._DRAW_BLOCK])
    @pytest.mark.parametrize("targeted_fraction", [0.0, 0.4])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_schedule(self, monkeypatch, seed, targeted_fraction, block):
        monkeypatch.setattr(photos_module, "_DRAW_BLOCK", block)
        pois = random_pois(12, seed=seed)
        spec = PhotoGeneratorSpec(targeted_fraction=targeted_fraction)
        participants = [3, 5, 8, 13]
        arrivals = generate_photo_schedule(
            PhotoGenerator(spec, pois=pois, seed=seed + 100), participants,
            photos_per_hour=40.0, duration_s=5 * 3600.0, seed=seed,
        )
        expected = scalar_schedule(spec, pois, seed + 100, participants, 40.0, 5 * 3600.0, seed)
        assert len(arrivals) == len(expected) > 2 * 3
        for arrival, (time, owner, metadata) in zip(arrivals, expected):
            assert (arrival.time, arrival.owner_id) == (time, owner)
            assert (arrival.photo.taken_at, arrival.photo.owner_id) == (time, owner)
            assert arrival.photo.metadata == metadata

    @pytest.mark.parametrize("targeted_fraction", [0.0, 0.4])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_next_photo(self, seed, targeted_fraction):
        pois = random_pois(12, seed=seed)
        spec = PhotoGeneratorSpec(targeted_fraction=targeted_fraction)
        generator = PhotoGenerator(spec, pois=pois, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            assert generator.next_photo().metadata == scalar_metadata(rng, spec, pois)


class TestPoIGenerators:
    def test_random_pois_in_region(self):
        pois = random_pois(50, region_width_m=100.0, region_height_m=200.0, seed=0)
        assert len(pois) == 50
        for poi in pois:
            assert 0.0 <= poi.location.x <= 100.0
            assert 0.0 <= poi.location.y <= 200.0

    def test_random_pois_with_weights(self):
        pois = random_pois(3, seed=0, weights=[1.0, 2.0, 3.0])
        assert [p.weight for p in pois] == [1.0, 2.0, 3.0]

    def test_random_pois_weight_length_checked(self):
        with pytest.raises(ValueError):
            random_pois(3, weights=[1.0])

    def test_random_pois_deterministic(self):
        a = random_pois(10, seed=4)
        b = random_pois(10, seed=4)
        assert [p.location for p in a] == [p.location for p in b]

    def test_clustered_pois_count(self):
        pois = clustered_pois(3, 5, seed=0)
        assert len(pois) == 15

    def test_clustered_pois_clamped_to_region(self):
        pois = clustered_pois(2, 50, region_width_m=100.0, region_height_m=100.0,
                              cluster_radius_m=40.0, seed=1)
        for poi in pois:
            assert 0.0 <= poi.location.x <= 100.0
            assert 0.0 <= poi.location.y <= 100.0

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_pois(0, 5)

    def test_ring_viewpoints_on_ring(self):
        center = Point(10.0, 20.0)
        points = ring_viewpoints(center, 8, radius_m=50.0)
        assert len(points) == 8
        for point in points:
            assert point.distance_to(center) == pytest.approx(50.0)

    def test_ring_viewpoints_jitter_bounded(self):
        center = Point(0.0, 0.0)
        points = ring_viewpoints(center, 16, radius_m=50.0, jitter_m=10.0, seed=2)
        for point in points:
            assert 40.0 <= point.distance_to(center) <= 60.0

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            ring_viewpoints(Point(0, 0), 0, 10.0)
        with pytest.raises(ValueError):
            ring_viewpoints(Point(0, 0), 4, 0.0)

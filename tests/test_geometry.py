"""Tests for planar geometry: points, bearings, sectors, fov-to-range."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Sector, bearing, coverage_range_from_fov, distance

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, x=coords, y=coords)


class TestPoint:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            Point(0.0, float("inf"))

    def test_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_function_matches_method(self):
        a, b = Point(1.0, 2.0), Point(4.0, 6.0)
        assert distance(a, b) == a.distance_to(b)

    def test_bearing_east_is_zero(self):
        assert Point(0.0, 0.0).bearing_to(Point(10.0, 0.0)) == pytest.approx(0.0)

    def test_bearing_clockwise_convention(self):
        # The paper's angles grow clockwise: south of the origin (negative
        # y) is 90 degrees.
        origin = Point(0.0, 0.0)
        assert origin.bearing_to(Point(0.0, -10.0)) == pytest.approx(math.pi / 2)
        assert origin.bearing_to(Point(-10.0, 0.0)) == pytest.approx(math.pi)
        assert origin.bearing_to(Point(0.0, 10.0)) == pytest.approx(3 * math.pi / 2)

    def test_bearing_function_matches_method(self):
        a, b = Point(0.0, 0.0), Point(1.0, 1.0)
        assert bearing(a, b) == a.bearing_to(b)

    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points)
    @settings(max_examples=100)
    def test_reverse_bearing_opposite(self, a, b):
        if a.distance_to(b) < 1e-6:
            return
        forward = a.bearing_to(b)
        backward = b.bearing_to(a)
        difference = abs(forward - backward)
        assert min(difference, 2 * math.pi - difference) == pytest.approx(math.pi, abs=1e-6)


class TestSector:
    def sector(self, direction_deg=0.0, fov_deg=60.0, radius=100.0):
        return Sector(
            apex=Point(0.0, 0.0),
            radius=radius,
            direction=math.radians(direction_deg),
            angular_width=math.radians(fov_deg),
        )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Sector(Point(0, 0), -1.0, 0.0, 1.0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Sector(Point(0, 0), 1.0, 0.0, 7.0)

    def test_contains_point_on_axis(self):
        assert self.sector().contains(Point(50.0, 0.0))

    def test_rejects_point_beyond_radius(self):
        assert not self.sector().contains(Point(150.0, 0.0))

    def test_rejects_point_outside_cone(self):
        # 60 degree fov pointing east: a point 45 degrees off-axis is out.
        assert not self.sector().contains(Point(50.0, 50.0))

    def test_accepts_point_inside_cone(self):
        # 20 degrees off-axis (clockwise = negative planar y) is inside.
        off = math.radians(20.0)
        assert self.sector().contains(Point(50.0 * math.cos(off), -50.0 * math.sin(off)))

    def test_apex_always_covered(self):
        assert self.sector().contains(Point(0.0, 0.0))

    def test_boundary_radius_inclusive(self):
        assert self.sector().contains(Point(100.0, 0.0))

    def test_direction_wrapping(self):
        sector = self.sector(direction_deg=350.0, fov_deg=40.0)
        # 0 degrees (east) is within 350 +/- 20.
        assert sector.contains(Point(50.0, 0.0))

    def test_viewing_direction_points_back_at_camera(self):
        sector = self.sector()
        target = Point(50.0, 0.0)
        # Camera is west of the target: viewing direction is 180 degrees.
        assert sector.viewing_direction_of(target) == pytest.approx(math.pi)

    def test_viewing_direction_undefined_at_apex(self):
        with pytest.raises(ValueError):
            self.sector().viewing_direction_of(Point(0.0, 0.0))

    def test_area(self):
        sector = self.sector(fov_deg=90.0, radius=10.0)
        assert sector.area() == pytest.approx(0.25 * math.pi * 100.0)

    @given(
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.05, max_value=math.pi),
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=200)
    def test_contains_matches_analytic_predicate(
        self, direction, width, radius, probe_angle, probe_fraction
    ):
        sector = Sector(Point(0.0, 0.0), radius, direction, width)
        r = probe_fraction * radius
        probe = Point(r * math.cos(probe_angle), -r * math.sin(probe_angle))
        # Analytic: inside iff within radius and angular offset <= width/2.
        within_radius = r <= radius
        offset = abs(probe_angle - direction) % (2 * math.pi)
        offset = min(offset, 2 * math.pi - offset)
        expected = within_radius and (offset <= width / 2.0 or r == 0.0)
        # Skip boundary-ambiguous probes, and probes so close to the apex
        # that the bearing computation is numerically meaningless.
        if abs(r - radius) < 1e-6 or abs(offset - width / 2.0) < 1e-6 or r < 1e-9:
            return
        assert sector.contains(probe) == expected


class TestCoverageRangeFromFov:
    def test_paper_range_band(self):
        # Section IV-A: c = 50 m, phi in [30, 60] deg -> r in ~[87, 187] m.
        r60 = coverage_range_from_fov(math.radians(60.0), 50.0)
        r30 = coverage_range_from_fov(math.radians(30.0), 50.0)
        assert r60 == pytest.approx(86.6, abs=0.1)
        assert r30 == pytest.approx(186.6, abs=0.1)

    def test_monotone_decreasing_in_fov(self):
        narrow = coverage_range_from_fov(math.radians(30.0))
        wide = coverage_range_from_fov(math.radians(90.0))
        assert narrow > wide

    def test_scales_linearly(self):
        base = coverage_range_from_fov(math.radians(45.0), 50.0)
        doubled = coverage_range_from_fov(math.radians(45.0), 100.0)
        assert doubled == pytest.approx(2.0 * base)

    def test_rejects_degenerate_fov(self):
        with pytest.raises(ValueError):
            coverage_range_from_fov(0.0)
        with pytest.raises(ValueError):
            coverage_range_from_fov(math.pi)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            coverage_range_from_fov(math.radians(45.0), 0.0)

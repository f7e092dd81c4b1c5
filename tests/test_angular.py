"""Unit and property tests for the angular-interval algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angular import (
    TWO_PI,
    AngularInterval,
    ArcSet,
    angle_difference,
    normalize_angle,
)

angles = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False, allow_infinity=False)
intervals = st.builds(AngularInterval, start=angles, width=widths)


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(1.0) == 1.0

    def test_wraps_negative(self):
        assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_wraps_above_two_pi(self):
        assert normalize_angle(TWO_PI + 0.5) == pytest.approx(0.5)

    def test_exact_two_pi_maps_to_zero(self):
        assert normalize_angle(TWO_PI) == 0.0

    @given(angles)
    def test_always_in_range(self, angle):
        value = normalize_angle(angle)
        assert 0.0 <= value < TWO_PI

    @given(angles)
    def test_idempotent(self, angle):
        once = normalize_angle(angle)
        assert normalize_angle(once) == pytest.approx(once, abs=1e-12)


class TestAngleDifference:
    def test_zero_for_equal(self):
        assert angle_difference(1.0, 1.0) == 0.0

    def test_symmetric_across_wrap(self):
        assert angle_difference(0.1, TWO_PI - 0.1) == pytest.approx(0.2)

    def test_max_is_pi(self):
        assert angle_difference(0.0, math.pi) == pytest.approx(math.pi)

    @given(angles, angles)
    def test_bounded_and_symmetric(self, a, b):
        d = angle_difference(a, b)
        assert 0.0 <= d <= math.pi + 1e-9
        assert d == pytest.approx(angle_difference(b, a), abs=1e-9)


class TestAngularInterval:
    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            AngularInterval(0.0, -0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AngularInterval(float("nan"), 1.0)

    def test_width_clamped_to_circle(self):
        assert AngularInterval(0.0, 10.0).width == TWO_PI

    def test_around_constructs_symmetric_arc(self):
        arc = AngularInterval.around(math.pi, 0.5)
        assert arc.contains(math.pi)
        assert arc.contains(math.pi - 0.5)
        assert arc.contains(math.pi + 0.5)
        assert not arc.contains(math.pi + 0.6)

    def test_around_rejects_negative_half_width(self):
        with pytest.raises(ValueError):
            AngularInterval.around(0.0, -1.0)

    def test_contains_wraparound(self):
        arc = AngularInterval(TWO_PI - 0.2, 0.4)  # straddles zero
        assert arc.contains(0.0)
        assert arc.contains(0.15)
        assert arc.contains(TWO_PI - 0.1)
        assert not arc.contains(math.pi)

    def test_full_circle_contains_everything(self):
        arc = AngularInterval(0.0, TWO_PI)
        for angle in (0.0, 1.0, 3.0, 6.0):
            assert arc.contains(angle)

    def test_as_segments_non_wrapping(self):
        assert AngularInterval(1.0, 0.5).as_segments() == [(1.0, 1.5)]

    def test_as_segments_wrapping_splits(self):
        segments = AngularInterval(TWO_PI - 0.2, 0.5).as_segments()
        assert len(segments) == 2
        assert segments[0] == pytest.approx((TWO_PI - 0.2, TWO_PI))
        assert segments[1] == pytest.approx((0.0, 0.3))

    @given(intervals)
    def test_segments_measure_matches_width(self, arc):
        total = sum(hi - lo for lo, hi in arc.as_segments())
        assert total == pytest.approx(arc.width, abs=1e-9)

    @given(intervals, angles)
    def test_contains_consistent_with_segments(self, arc, angle):
        value = normalize_angle(angle)
        segments = arc.as_segments()
        # Only assert when the angle is clearly inside or clearly outside a
        # segment; boundary angles are tolerance-sensitive either way.
        clearly_inside = any(lo + 1e-6 <= value <= hi - 1e-6 for lo, hi in segments)
        clearly_outside = all(
            value < lo - 1e-6 or value > hi + 1e-6 for lo, hi in segments
        ) and not (value < 1e-6 and any(hi >= TWO_PI - 1e-6 for _, hi in segments))
        if clearly_inside:
            assert arc.contains(value)
        elif clearly_outside and not arc.is_full:
            assert not arc.contains(value)


class TestArcSet:
    def test_empty_measure_zero(self):
        assert ArcSet().measure() == 0.0
        assert ArcSet().is_empty

    def test_single_arc_measure(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0)])
        assert arcs.measure() == pytest.approx(1.0)

    def test_disjoint_arcs_add(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0), AngularInterval(2.0, 1.0)])
        assert arcs.measure() == pytest.approx(2.0)

    def test_overlapping_arcs_merge(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0), AngularInterval(0.5, 1.0)])
        assert arcs.measure() == pytest.approx(1.5)
        assert len(list(arcs.segments())) == 1

    def test_wrapping_arc_split_into_two_segments(self):
        arcs = ArcSet([AngularInterval(TWO_PI - 0.5, 1.0)])
        assert arcs.measure() == pytest.approx(1.0)
        assert len(list(arcs.segments())) == 2

    def test_full_circle_capped(self):
        arcs = ArcSet([AngularInterval(0.0, TWO_PI), AngularInterval(0.0, 1.0)])
        assert arcs.measure() == pytest.approx(TWO_PI)

    def test_gain_of_disjoint_is_full_width(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0)])
        assert arcs.gain_of(AngularInterval(3.0, 0.5)) == pytest.approx(0.5)

    def test_gain_of_subset_is_zero(self):
        arcs = ArcSet([AngularInterval(0.0, 2.0)])
        assert arcs.gain_of(AngularInterval(0.5, 1.0)) == pytest.approx(0.0)

    def test_gain_of_partial_overlap(self):
        arcs = ArcSet([AngularInterval(0.0, 1.0)])
        assert arcs.gain_of(AngularInterval(0.5, 1.0)) == pytest.approx(0.5)

    def test_add_segment_fast_path(self):
        arcs = ArcSet()
        arcs.add_segment(0.5, 1.5)
        arcs.add_segment(1.0, 2.0)
        assert arcs.measure() == pytest.approx(1.5)

    def test_contains(self):
        arcs = ArcSet([AngularInterval(1.0, 0.5)])
        assert arcs.contains(1.2)
        assert not arcs.contains(0.5)

    def test_contains_zero_via_wraparound_segment(self):
        arcs = ArcSet([AngularInterval(TWO_PI - 0.1, 0.1)])
        assert arcs.contains(0.0)

    def test_union_returns_new_set(self):
        a = ArcSet([AngularInterval(0.0, 1.0)])
        b = ArcSet([AngularInterval(2.0, 1.0)])
        c = a.union(b)
        assert c.measure() == pytest.approx(2.0)
        assert a.measure() == pytest.approx(1.0)

    def test_copy_is_independent(self):
        a = ArcSet([AngularInterval(0.0, 1.0)])
        b = a.copy()
        b.add(AngularInterval(3.0, 1.0))
        assert a.measure() == pytest.approx(1.0)
        assert b.measure() == pytest.approx(2.0)

    def test_equality(self):
        a = ArcSet([AngularInterval(0.0, 1.0)])
        b = ArcSet([AngularInterval(0.0, 1.0)])
        c = ArcSet([AngularInterval(0.0, 1.5)])
        assert a == b
        assert a != c

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ArcSet())

    @given(st.lists(intervals, max_size=8))
    @settings(max_examples=200)
    def test_measure_bounded_by_circle(self, arcs):
        assert 0.0 <= ArcSet(arcs).measure() <= TWO_PI + 1e-9

    @given(st.lists(intervals, max_size=6), intervals)
    @settings(max_examples=200)
    def test_gain_matches_measure_difference(self, base, extra):
        arcs = ArcSet(base)
        before = arcs.measure()
        gain = arcs.gain_of(extra)
        arcs.add(extra)
        assert gain == pytest.approx(arcs.measure() - before, abs=1e-9)

    @given(st.lists(intervals, max_size=6))
    @settings(max_examples=200)
    def test_insertion_order_irrelevant(self, arcs):
        forward = ArcSet(arcs)
        backward = ArcSet(list(reversed(arcs)))
        assert forward.measure() == pytest.approx(backward.measure(), abs=1e-9)

    @given(st.lists(intervals, max_size=6), intervals)
    @settings(max_examples=200)
    def test_union_monotone(self, base, extra):
        arcs = ArcSet(base)
        before = arcs.measure()
        arcs.add(extra)
        assert arcs.measure() >= before - 1e-12

    @given(st.lists(intervals, max_size=5))
    @settings(max_examples=150)
    def test_segments_sorted_and_disjoint(self, arcs):
        segments = list(ArcSet(arcs).segments())
        for (lo1, hi1), (lo2, hi2) in zip(segments, segments[1:]):
            assert hi1 <= lo2 + 1e-12
        for lo, hi in segments:
            assert lo <= hi

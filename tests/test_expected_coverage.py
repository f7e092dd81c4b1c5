"""Tests for expected coverage (Definition 2).

The correctness argument for the polynomial circle-sweep evaluation is
that it agrees exactly with the literal ``2^m`` outcome enumeration of
Definition 2 -- checked here on randomized instances.  The incremental
:class:`SelectionEvaluator` is in turn validated against the batch
evaluation: the marginal gain of adding a photo must equal the difference
of the full expected coverages before and after.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import (
    NodeProfile,
    SelectionEvaluator,
    build_node_profile,
    expected_coverage,
    expected_coverage_enumerated,
)
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList

from helpers import make_photo, photo_at_aspect

THETA = math.radians(30.0)

probabilities = st.floats(min_value=0.0, max_value=1.0)
aspects = st.floats(min_value=0.0, max_value=360.0)


def small_index() -> CoverageIndex:
    pois = PoIList.from_points([Point(0.0, 0.0), Point(400.0, 0.0)])
    return CoverageIndex(pois, effective_angle=THETA)


class TestNodeProfile:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NodeProfile(node_id=1, delivery_probability=1.5)

    def test_is_certain(self):
        assert NodeProfile(node_id=0, delivery_probability=1.0).is_certain
        assert not NodeProfile(node_id=1, delivery_probability=0.99).is_certain

    def test_build_collects_arcs_per_poi(self):
        index = small_index()
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(400.0, 0.0), aspect_deg=90.0),
        ]
        profile = build_node_profile(index, 1, photos, 0.5)
        assert profile.covered_pois == {0, 1}
        assert set(profile.arcs_by_poi) == {0, 1}
        assert profile.arcs_by_poi[0].measure() == pytest.approx(2 * THETA)

    def test_build_merges_same_poi_arcs(self):
        index = small_index()
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
        ]
        profile = build_node_profile(index, 1, photos, 0.5)
        assert profile.arcs_by_poi[0].measure() == pytest.approx(2 * THETA)


class TestExpectedCoverageClosedForms:
    def test_single_certain_node_equals_plain_coverage(self):
        index = small_index()
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=45.0)]
        profile = build_node_profile(index, 0, photos, 1.0)
        value = expected_coverage(index, [profile])
        plain = index.collection_coverage(photos)
        assert value.isclose(plain)

    def test_single_uncertain_node_scales_by_probability(self):
        index = small_index()
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=45.0)]
        profile = build_node_profile(index, 1, photos, 0.3)
        value = expected_coverage(index, [profile])
        plain = index.collection_coverage(photos)
        assert value.isclose(plain.scaled(0.3))

    def test_zero_probability_node_contributes_nothing(self):
        index = small_index()
        profile = build_node_profile(
            index, 1, [photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)], 0.0
        )
        assert expected_coverage(index, [profile]) == CoverageValue.ZERO

    def test_two_nodes_same_poi_point_formula(self):
        # P(covered) = 1 - (1-p1)(1-p2) when both photos cover the PoI.
        index = small_index()
        p1, p2 = 0.4, 0.7
        profiles = [
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 0.0)], p1),
            build_node_profile(index, 2, [photo_at_aspect(Point(0, 0), 180.0)], p2),
        ]
        value = expected_coverage(index, profiles)
        assert value.point == pytest.approx(1.0 - (1 - p1) * (1 - p2))
        # Disjoint arcs: expected aspect is the sum of the two expectations.
        assert value.aspect == pytest.approx((p1 + p2) * 2 * THETA)

    def test_overlapping_arcs_counted_once(self):
        # Two nodes with the *same* arc: expected measure of the union is
        # (1 - (1-p1)(1-p2)) * |arc|.
        index = small_index()
        p1, p2 = 0.4, 0.7
        profiles = [
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 10.0)], p1),
            build_node_profile(index, 2, [photo_at_aspect(Point(0, 0), 10.0)], p2),
        ]
        value = expected_coverage(index, profiles)
        expected_aspect = (1.0 - (1 - p1) * (1 - p2)) * 2 * THETA
        assert value.aspect == pytest.approx(expected_aspect)

    def test_example_formula_2_from_paper(self):
        """The worked m=3 example of Section III-C, checked literally."""
        index = small_index()
        f0 = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)]
        fa = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=90.0)]
        fb = [photo_at_aspect(Point(400.0, 0.0), aspect_deg=200.0)]
        pa, pb = 0.6, 0.25
        profiles = [
            build_node_profile(index, 0, f0, 1.0),
            build_node_profile(index, 1, fa, pa),
            build_node_profile(index, 2, fb, pb),
        ]
        value = expected_coverage(index, profiles)

        def cov(photos):
            return index.collection_coverage(photos)

        manual = (
            cov(f0).scaled((1 - pa) * (1 - pb))
            + cov(f0 + fa).scaled(pa * (1 - pb))
            + cov(f0 + fb).scaled((1 - pa) * pb)
            + cov(f0 + fa + fb).scaled(pa * pb)
        )
        assert value.isclose(manual)


class TestSweepMatchesEnumeration:
    @given(
        st.lists(
            st.tuples(probabilities, st.lists(aspects, min_size=0, max_size=3)),
            min_size=0,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_agreement(self, node_specs):
        index = small_index()
        profiles = []
        for node_id, (probability, aspect_list) in enumerate(node_specs, start=1):
            photos = [
                photo_at_aspect(Point(0.0, 0.0), aspect_deg=a) for a in aspect_list[:2]
            ] + [
                photo_at_aspect(Point(400.0, 0.0), aspect_deg=a) for a in aspect_list[2:]
            ]
            profiles.append(build_node_profile(index, node_id, photos, probability))
        sweep = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        assert sweep.point == pytest.approx(enumerated.point, abs=1e-9)
        assert sweep.aspect == pytest.approx(enumerated.aspect, abs=1e-9)

    def test_with_certain_command_center(self):
        index = small_index()
        profiles = [
            build_node_profile(index, 0, [photo_at_aspect(Point(0, 0), 0.0)], 1.0),
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 45.0)], 0.5),
            build_node_profile(index, 2, [photo_at_aspect(Point(400, 0), 270.0)], 0.8),
        ]
        sweep = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        assert sweep.isclose(enumerated)

    def test_enumeration_refuses_large_sets(self):
        index = small_index()
        profiles = [
            build_node_profile(index, i, [], 0.5) for i in range(1, 20)
        ]
        with pytest.raises(ValueError):
            expected_coverage_enumerated(index, profiles, max_nodes=16)

    def test_weighted_poi_agreement(self):
        pois = PoIList([PoI(location=Point(0.0, 0.0), weight=3.0)])
        index = CoverageIndex(pois, effective_angle=THETA)
        profiles = [
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 0.0)], 0.5),
            build_node_profile(index, 2, [photo_at_aspect(Point(0, 0), 30.0)], 0.5),
        ]
        sweep = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        assert sweep.isclose(enumerated)


class TestSelectionEvaluator:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SelectionEvaluator(small_index(), [], 1.5)

    def test_gain_equals_expected_coverage_delta(self):
        """The central invariant: incremental gain == batch E[C] difference."""
        index = small_index()
        background = [
            build_node_profile(index, 0, [photo_at_aspect(Point(0, 0), 0.0)], 1.0),
            build_node_profile(index, 2, [photo_at_aspect(Point(0, 0), 120.0)], 0.4),
        ]
        p_free = 0.7
        evaluator = SelectionEvaluator(index, background, p_free)
        selected = []
        for aspect in (20.0, 100.0, 240.0, 20.0):
            photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=aspect)
            before = expected_coverage(
                index, background + [build_node_profile(index, 9, selected, p_free)]
            )
            after = expected_coverage(
                index, background + [build_node_profile(index, 9, selected + [photo], p_free)]
            )
            predicted = evaluator.gain_of(photo)
            realized = evaluator.add(photo)
            selected.append(photo)
            assert predicted.isclose(realized)
            assert predicted.point == pytest.approx(after.point - before.point, abs=1e-9)
            assert predicted.aspect == pytest.approx(after.aspect - before.aspect, abs=1e-9)

    def test_zero_probability_free_node_gains_nothing(self):
        index = small_index()
        evaluator = SelectionEvaluator(index, [], 0.0)
        assert evaluator.gain_of(photo_at_aspect(Point(0, 0), 0.0)) == CoverageValue.ZERO

    def test_gain_submodular(self):
        """Gains never increase as the selection grows (lazy-greedy license)."""
        index = small_index()
        evaluator = SelectionEvaluator(index, [], 0.9)
        probe = photo_at_aspect(Point(0.0, 0.0), aspect_deg=50.0)
        previous = evaluator.gain_of(probe)
        for aspect in (0.0, 40.0, 60.0, 80.0):
            evaluator.add(photo_at_aspect(Point(0.0, 0.0), aspect_deg=aspect))
            current = evaluator.gain_of(probe)
            assert current <= previous or current.isclose(previous)
            previous = current

    def test_certain_background_blocks_gain(self):
        """A photo the command center already has yields zero gain."""
        index = small_index()
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        background = [build_node_profile(index, 0, [photo], 1.0)]
        evaluator = SelectionEvaluator(index, background, 0.9)
        duplicate = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        assert evaluator.gain_of(duplicate) == CoverageValue.ZERO

    def test_useless_photo_zero_gain(self):
        index = small_index()
        evaluator = SelectionEvaluator(index, [], 1.0)
        useless = make_photo(9999.0, 9999.0, 0.0)
        assert evaluator.gain_of(useless) == CoverageValue.ZERO

"""Tests for the greedy photo selection / reallocation algorithm."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import build_node_profile
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.core.selection import (
    NodeSelection,
    StorageSpec,
    greedy_reallocate,
    greedy_select,
)

from exhaustive import evaluate_allocation, optimal_reallocation
from helpers import MB, make_photo, photo_at_aspect

THETA = math.radians(30.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def index_for(points):
    return CoverageIndex(PoIList.from_points(points), effective_angle=THETA)


class TestStorageSpec:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            StorageSpec(1, -5, 0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            StorageSpec(1, 100, 1.5)

    def test_unlimited_capacity_allowed(self):
        assert StorageSpec(1, None, 0.5).capacity_bytes is None


class TestGreedySelect:
    def test_prefers_covering_photos(self):
        index = index_for([Point(0.0, 0.0)])
        useful = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        useless = make_photo(5000.0, 5000.0, 0.0)
        selection = greedy_select(
            index, [useless, useful], StorageSpec(1, 100 * MB, 0.9), []
        )
        assert selection.photos == [useful]

    def test_respects_storage_budget(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=d) for d in (0.0, 90.0, 180.0, 270.0)
        ]
        selection = greedy_select(index, photos, StorageSpec(1, 2 * 4 * MB, 0.9), [])
        assert len(selection.photos) == 2
        assert selection.total_bytes <= 2 * 4 * MB

    def test_stops_when_no_positive_gain(self):
        index = index_for([Point(0.0, 0.0)])
        # Two identical-aspect photos: the second adds nothing.
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
        ]
        selection = greedy_select(index, photos, StorageSpec(1, 100 * MB, 0.9), [])
        assert len(selection.photos) == 1

    def test_picks_diverse_aspects_first(self):
        index = index_for([Point(0.0, 0.0)])
        base = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        near = photo_at_aspect(Point(0.0, 0.0), aspect_deg=20.0)  # mostly overlaps
        far = photo_at_aspect(Point(0.0, 0.0), aspect_deg=180.0)  # disjoint
        selection = greedy_select(
            index, [base, near, far], StorageSpec(1, 2 * 4 * MB, 0.9), []
        )
        assert far in selection.photos
        assert near not in selection.photos

    def test_gains_recorded_and_positive(self):
        index = index_for([Point(0.0, 0.0), Point(400.0, 0.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(400.0, 0.0), aspect_deg=90.0),
        ]
        selection = greedy_select(index, photos, StorageSpec(1, 100 * MB, 0.9), [])
        assert len(selection.gains) == len(selection.photos) == 2
        for gain in selection.gains:
            assert gain.is_positive()

    def test_total_gain_equals_expected_coverage(self):
        """Sum of greedy marginal gains telescopes to the selection's E[C]."""
        index = index_for([Point(0.0, 0.0), Point(400.0, 0.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=d) for d in (0.0, 90.0, 180.0)
        ]
        p = 0.6
        selection = greedy_select(index, photos, StorageSpec(1, 100 * MB, p), [])
        from repro.core.expected_coverage import expected_coverage

        batch = expected_coverage(
            index, [build_node_profile(index, 1, selection.photos, p)]
        )
        assert sum(selection.gains, CoverageValue.ZERO).isclose(batch)

    def test_background_suppresses_redundant(self):
        index = index_for([Point(0.0, 0.0)])
        covered = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        background = [build_node_profile(index, 0, [covered], 1.0)]
        duplicate = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        fresh = photo_at_aspect(Point(0.0, 0.0), aspect_deg=180.0)
        selection = greedy_select(
            index, [duplicate, fresh], StorageSpec(1, 100 * MB, 0.9), background
        )
        assert selection.photos == [fresh]

    def test_zero_capacity_selects_nothing(self):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)]
        selection = greedy_select(index, photos, StorageSpec(1, 0, 0.9), [])
        assert selection.photos == []

    def test_empty_pool(self):
        index = index_for([Point(0.0, 0.0)])
        selection = greedy_select(index, [], StorageSpec(1, 100 * MB, 0.9), [])
        assert selection.photos == []
        assert selection.gains == []

    def test_deterministic_tie_break_by_photo_id(self):
        index = index_for([Point(0.0, 0.0)])
        a = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        b = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        lower_id_first = min(a, b, key=lambda p: p.photo_id)
        selection = greedy_select(index, [b, a], StorageSpec(1, 4 * MB, 0.9), [])
        assert selection.photos == [lower_id_first]


class TestGreedyReallocate:
    def test_higher_probability_node_selects_first(self):
        index = index_for([Point(0.0, 0.0)])
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        result = greedy_reallocate(
            index,
            [photo],
            [],
            StorageSpec(1, 100 * MB, 0.2),
            StorageSpec(2, 100 * MB, 0.8),
        )
        assert result.first.node_id == 2
        assert result.second.node_id == 1

    def test_second_node_avoids_first_selection_when_p_high(self):
        index = index_for([Point(0.0, 0.0)])
        a = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        b = photo_at_aspect(Point(0.0, 0.0), aspect_deg=5.0)  # near-duplicate
        result = greedy_reallocate(
            index,
            [a],
            [b],
            StorageSpec(1, 100 * MB, 1.0),  # first node certainly delivers
            StorageSpec(2, 100 * MB, 0.3),
        )
        # First (p=1.0) takes both: even the near-duplicate adds a 5-degree
        # sliver of aspect.  With everything then certainly delivered, the
        # second node has nothing left to gain.
        assert len(result.first.photos) == 2
        assert result.second.photos == []

    def test_both_select_same_photo_when_first_unreliable(self):
        """The paper's y_j = z_j = 1 case: valuable photo, low p_a."""
        index = index_for([Point(0.0, 0.0)])
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        result = greedy_reallocate(
            index,
            [photo],
            [],
            StorageSpec(1, 100 * MB, 0.1),
            StorageSpec(2, 100 * MB, 0.05),
        )
        assert photo in result.first.photos
        assert photo in result.second.photos

    def test_pool_deduplicates_shared_photos(self):
        index = index_for([Point(0.0, 0.0)])
        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        result = greedy_reallocate(
            index,
            [photo],
            [photo],
            StorageSpec(1, 100 * MB, 0.5),
            StorageSpec(2, 100 * MB, 0.4),
        )
        assert result.first.photos.count(photo) == 1

    def test_selection_for_lookup(self):
        index = index_for([Point(0.0, 0.0)])
        result = greedy_reallocate(
            index, [], [], StorageSpec(1, MB, 0.5), StorageSpec(2, MB, 0.4)
        )
        assert result.selection_for(1).node_id == 1
        assert result.selection_for(2).node_id == 2
        with pytest.raises(KeyError):
            result.selection_for(3)


class TestGreedyVersusOptimal:
    def test_greedy_never_beats_optimal(self):
        index = index_for([Point(0.0, 0.0), Point(400.0, 0.0)])
        photos = [
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0),
            photo_at_aspect(Point(0.0, 0.0), aspect_deg=90.0),
            photo_at_aspect(Point(400.0, 0.0), aspect_deg=180.0),
        ]
        spec_a = StorageSpec(1, 2 * 4 * MB, 0.8)
        spec_b = StorageSpec(2, 4 * MB, 0.3)
        optimal_value, _ = optimal_reallocation(index, photos, spec_a, spec_b)
        result = greedy_reallocate(index, photos, [], spec_a, spec_b)
        placement = []
        first_ids = result.first.photo_ids()
        second_ids = result.second.photo_ids()
        for photo in photos:
            placement.append((photo.photo_id in first_ids, photo.photo_id in second_ids))
        # NOTE: greedy put the higher-p node first; map back to (a, b).
        if result.first.node_id == 2:
            placement = [(b, a) for a, b in placement]
        greedy_value = evaluate_allocation(index, photos, placement, spec_a, spec_b)
        assert greedy_value is not None  # greedy result must be feasible
        assert greedy_value <= optimal_value or greedy_value.isclose(optimal_value)

    @given(
        st.lists(st.floats(0.0, 360.0), min_size=1, max_size=4),
        st.floats(0.1, 1.0),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_feasible_and_bounded_randomized(self, aspect_list, pa, pb):
        index = index_for([Point(0.0, 0.0)])
        photos = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=a) for a in aspect_list]
        spec_a = StorageSpec(1, 2 * 4 * MB, pa)
        spec_b = StorageSpec(2, 4 * MB, pb)
        optimal_value, _ = optimal_reallocation(index, photos, spec_a, spec_b)
        result = greedy_reallocate(index, photos, [], spec_a, spec_b)
        for selection, spec in (
            (result.selection_for(1), spec_a),
            (result.selection_for(2), spec_b),
        ):
            assert selection.total_bytes <= spec.capacity_bytes
        placement = [
            (
                photo.photo_id in result.selection_for(1).photo_ids(),
                photo.photo_id in result.selection_for(2).photo_ids(),
            )
            for photo in photos
        ]
        greedy_value = evaluate_allocation(index, photos, placement, spec_a, spec_b)
        assert greedy_value is not None
        assert greedy_value <= optimal_value or greedy_value.isclose(optimal_value)


def test_selection_runs_without_numpy():
    """The selection core and the simulator import and reallocate on an
    interpreter where ``import numpy`` fails."""
    script = textwrap.dedent(
        """
        import math
        import sys

        sys.modules["numpy"] = None  # any numpy import now raises ImportError

        import repro.dtn.simulator
        from repro.core import (
            CoverageIndex, Photo, PhotoMetadata, Point, PoIList, StorageSpec,
            build_node_profile, greedy_reallocate,
        )

        poi = Point(0.0, 0.0)
        index = CoverageIndex(PoIList.from_points([poi]), effective_angle=math.radians(30.0))

        def photo(aspect_deg):
            aspect = math.radians(aspect_deg)
            camera = Point(50.0 * math.cos(aspect), -50.0 * math.sin(aspect))
            metadata = PhotoMetadata(
                location=camera,
                coverage_range=100.0,
                field_of_view=math.radians(60.0),
                orientation=camera.bearing_to(poi),
            )
            return Photo(metadata=metadata, photo_id=int(aspect_deg), size_bytes=4 * 1024 * 1024)

        background = [build_node_profile(index, 0, [photo(180.0)], 1.0)]
        result = greedy_reallocate(
            index,
            [photo(0.0), photo(90.0)],
            [photo(45.0)],
            StorageSpec(1, 8 * 1024 * 1024, 0.8),
            StorageSpec(2, 4 * 1024 * 1024, 0.3),
            background,
        )
        assert result.first.photos and result.second.photos
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr

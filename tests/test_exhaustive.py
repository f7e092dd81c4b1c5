"""Direct unit tests for the brute-force reference solver."""

from __future__ import annotations

import math

import pytest

from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.core.selection import StorageSpec

from exhaustive import evaluate_allocation, optimal_reallocation
from helpers import MB, photo_at_aspect

THETA = math.radians(30.0)
PHOTO = 4 * MB


def index_one_poi():
    return CoverageIndex(PoIList.from_points([Point(0.0, 0.0)]), effective_angle=THETA)


class TestEvaluateAllocation:
    def test_infeasible_returns_none(self):
        index = index_one_poi()
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        value = evaluate_allocation(
            index,
            [photo],
            [(True, False)],
            StorageSpec(1, 0, 0.5),  # no room on a
            StorageSpec(2, PHOTO, 0.5),
        )
        assert value is None

    def test_empty_placement_zero(self):
        index = index_one_poi()
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        value = evaluate_allocation(
            index, [photo], [(False, False)],
            StorageSpec(1, PHOTO, 0.5), StorageSpec(2, PHOTO, 0.5),
        )
        assert value == CoverageValue.ZERO

    def test_both_placement_uses_inclusion_exclusion(self):
        index = index_one_poi()
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        pa, pb = 0.5, 0.5
        value = evaluate_allocation(
            index, [photo], [(True, True)],
            StorageSpec(1, PHOTO, pa), StorageSpec(2, PHOTO, pb),
        )
        # Photo delivered unless both fail: 1 - 0.25 = 0.75.
        assert value.point == pytest.approx(0.75)


class TestOptimalReallocation:
    def test_places_single_photo_on_better_node(self):
        index = index_one_poi()
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        best_value, placement = optimal_reallocation(
            index, [photo],
            StorageSpec(1, PHOTO, 0.9), StorageSpec(2, PHOTO, 0.1),
        )
        on_a, on_b = placement[0]
        assert on_a  # must use the p=0.9 node
        # Optimal actually replicates: 1 - 0.1*0.9 = 0.91 > 0.9.
        assert on_b
        assert best_value.point == pytest.approx(1.0 - 0.1 * 0.9)

    def test_prefers_diverse_pair_under_capacity(self):
        index = index_one_poi()
        base = photo_at_aspect(Point(0.0, 0.0), 0.0)
        near = photo_at_aspect(Point(0.0, 0.0), 5.0)
        far = photo_at_aspect(Point(0.0, 0.0), 180.0)
        best_value, placement = optimal_reallocation(
            index, [base, near, far],
            StorageSpec(1, 2 * PHOTO, 1.0), StorageSpec(2, 0, 0.0),
        )
        chosen = [photo for photo, (on_a, _) in zip([base, near, far], placement) if on_a]
        assert far in chosen
        assert len(chosen) == 2
        assert best_value.aspect >= 4 * THETA - 1e-9

    def test_refuses_large_pools(self):
        index = index_one_poi()
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in range(12)]
        with pytest.raises(ValueError):
            optimal_reallocation(
                index, photos, StorageSpec(1, PHOTO, 0.5), StorageSpec(2, PHOTO, 0.5),
                max_pool=10,
            )

    def test_empty_pool(self):
        index = index_one_poi()
        best_value, placement = optimal_reallocation(
            index, [], StorageSpec(1, PHOTO, 0.5), StorageSpec(2, PHOTO, 0.5)
        )
        assert best_value == CoverageValue.ZERO
        assert placement == []

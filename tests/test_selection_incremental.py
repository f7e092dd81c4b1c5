"""Incremental selection work is bitwise equal to the work it skips.

The selection path's shortcuts are checked against the computation they
replace, with exact float equality:

* **PoI-scoped CELF staleness.**  :func:`greedy_select` re-evaluates a
  popped heap entry only when a commit since its evaluation touched one of
  the photo's own PoIs, and commits a fresh entry with the gain it holds.
  On pools of multi-PoI photos that share PoIs densely it must still match
  :func:`greedy_select_reference`, which re-evaluates everything every
  round.
* **The pool scan.**  ``gain_of_batch`` must equal ``gain_of`` per photo.
* **The second selection** of :func:`greedy_reallocate` must equal
  :func:`greedy_select` over the explicit ``background + [first_profile]``
  list.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.angular import TWO_PI, ArcSet
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import SelectionEvaluator, build_node_profile
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.core.selection import (
    StorageSpec,
    greedy_reallocate,
    greedy_select,
    greedy_select_reference,
)
from repro.obs.runtime import activated

from helpers import MB, make_photo

THETA = math.radians(30.0)


def _dense_index() -> CoverageIndex:
    """A 3x3 grid of PoIs 25 m apart: most photos see several at once.

    Two PoIs count only some aspects, so the restricted integral runs too.
    """
    pois = []
    for row in range(3):
        for col in range(3):
            important = None
            if (row, col) in ((0, 0), (1, 2)):
                important = ArcSet.from_segments([(0.5, 2.0), (4.0, TWO_PI)])
            pois.append(
                PoI(location=Point(100.0 + 25.0 * col, 100.0 + 25.0 * row),
                    weight=1.0 + 0.5 * col, important_aspects=important)
            )
    return CoverageIndex(PoIList(pois), effective_angle=THETA)


def _random_photo(rng: random.Random):
    return make_photo(
        rng.uniform(60.0, 190.0),
        rng.uniform(60.0, 190.0),
        rng.uniform(0.0, 360.0),
        fov_deg=rng.uniform(90.0, 160.0),
        coverage_range=rng.uniform(100.0, 180.0),
        size_bytes=rng.choice((2, 4, 4, 6)) * MB,
    )


def _dense_scenario(seed: int, pool_size: int = 40):
    rng = random.Random(seed)
    index = _dense_index()
    pool = [_random_photo(rng) for _ in range(pool_size)]
    probabilities = [0.0, 1.0] + [rng.uniform(0.1, 0.9) for _ in range(3)]
    background = [
        build_node_profile(index, 100 + node, [_random_photo(rng) for _ in range(4)], p)
        for node, p in enumerate(probabilities)
    ]
    return rng, index, pool, background


def _bits(value: float) -> str:
    return value.hex()


def _assert_same_selection(actual, expected):
    assert [p.photo_id for p in actual.photos] == [p.photo_id for p in expected.photos]
    assert [(_bits(g.point), _bits(g.aspect)) for g in actual.gains] == [
        (_bits(g.point), _bits(g.aspect)) for g in expected.gains
    ]


@pytest.mark.parametrize("seed", range(6))
def test_celf_with_poi_scoped_staleness_equals_the_reference(seed):
    rng, index, pool, background = _dense_scenario(seed)
    incidences = sum(len(index.incidence_arcs(photo)[0]) for photo in pool)
    assert incidences >= 2 * len(pool), "photos must see two PoIs each on average"
    storage = StorageSpec(1, rng.choice((None, 24 * MB, 40 * MB)), rng.uniform(0.2, 0.95))
    lazy = greedy_select(index, pool, storage, background)
    _assert_same_selection(lazy, greedy_select_reference(index, pool, storage, background))
    assert len(lazy.photos) > 1


class _SelectionCounts:
    """A telemetry sink that keeps the counts of each greedy selection."""

    def __init__(self):
        self.selections = []

    def on_selection(self, **counts):
        self.selections.append(counts)


def test_a_commit_leaves_photos_at_other_pois_fresh():
    """Photos that share no PoI are each evaluated once, by the pool scan:
    no commit makes another photo's heap key stale."""
    index = CoverageIndex(
        PoIList.from_points([Point(0.0, 0.0), Point(1000.0, 0.0), Point(0.0, 1000.0)]),
        effective_angle=THETA,
    )
    pool = [make_photo(x + 50.0, y, 180.0) for x, y in ((0, 0), (1000, 0), (0, 1000))]
    sink = _SelectionCounts()
    with activated(sink):
        selection = greedy_select(index, pool, StorageSpec(1, None, 0.5), [])
    assert len(selection.photos) == 3
    [counts] = sink.selections
    assert counts["gain_evaluations"] == len(pool)
    assert counts["iterations"] == len(pool)


@pytest.mark.parametrize("seed", range(4))
def test_gain_of_batch_equals_gain_of_per_photo(seed):
    rng, index, pool, background = _dense_scenario(seed)
    evaluator = SelectionEvaluator(index, background, rng.uniform(0.1, 1.0))
    batch = evaluator.gain_of_batch(pool)
    single = [evaluator.gain_of(photo) for photo in pool]
    assert [(_bits(g.point), _bits(g.aspect)) for g in batch] == [
        (_bits(g.point), _bits(g.aspect)) for g in single
    ]
    evaluator.add(pool[0])
    assert evaluator.gain_of_batch(pool[1:]) == [evaluator.gain_of(p) for p in pool[1:]]


@pytest.mark.parametrize("seed", range(6))
def test_second_selection_equals_an_explicit_background_list(seed):
    rng, index, pool, background = _dense_scenario(seed)
    half = len(pool) // 2
    spec_a = StorageSpec(1, rng.choice((16, 24)) * MB, rng.uniform(0.1, 0.95))
    spec_b = StorageSpec(2, rng.choice((16, 24)) * MB, rng.uniform(0.1, 0.95))
    result = greedy_reallocate(index, pool[:half], pool[half:], spec_a, spec_b, background)

    first_spec, second_spec = (
        (spec_a, spec_b)
        if spec_a.delivery_probability >= spec_b.delivery_probability
        else (spec_b, spec_a)
    )
    first = greedy_select(index, pool, first_spec, background)
    _assert_same_selection(result.first, first)
    first_profile = build_node_profile(
        index, first_spec.node_id, first.photos, first_spec.delivery_probability
    )
    second = greedy_select(index, pool, second_spec, background + [first_profile])
    _assert_same_selection(result.second, second)
    assert result.second.photos, "the second node must select something"

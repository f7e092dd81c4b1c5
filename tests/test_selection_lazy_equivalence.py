"""CELF lazy-greedy must be *byte-identical* to naive evaluate-all greedy.

:func:`repro.core.selection.greedy_select` prunes gain evaluations with a
stale-tolerant max-heap; :func:`greedy_select_reference` re-evaluates every
remaining candidate each round against a freshly rebuilt evaluator.
Submodularity makes the two pick the same argmax at every step, and both
query the same evaluator arithmetic, so the agreement is exact: same photo
order, same gain floats -- on random pools, on fault-perturbed pools, and
with telemetry on or off.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import build_node_profile
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.core.selection import StorageSpec, greedy_select, greedy_select_reference
from repro.dtn.faults import FaultInjector, FaultPlan
from repro.obs import SimTelemetry
from repro.obs.runtime import activated

from helpers import MB, photo_at_aspect

THETA = math.radians(30.0)
POIS = [Point(0.0, 0.0), Point(500.0, 0.0), Point(0.0, 500.0), Point(500.0, 500.0)]


def _scenario(seed: int, pool_size: int = 60, m: int = 5):
    rng = random.Random(seed)
    index = CoverageIndex(PoIList.from_points(POIS), effective_angle=THETA)
    pool = [
        photo_at_aspect(rng.choice(POIS), rng.uniform(0.0, 360.0))
        for _ in range(pool_size)
    ]
    background = [
        build_node_profile(
            index,
            100 + node,
            [photo_at_aspect(rng.choice(POIS), rng.uniform(0.0, 360.0)) for _ in range(6)],
            rng.uniform(0.2, 0.9),
        )
        for node in range(m)
    ]
    storage = StorageSpec(
        node_id=1, capacity_bytes=10 * 4 * MB, delivery_probability=rng.uniform(0.3, 0.95)
    )
    return index, pool, background, storage


def _assert_byte_identical(lazy, naive):
    assert [p.photo_id for p in lazy.photos] == [p.photo_id for p in naive.photos]
    assert len(lazy.gains) == len(naive.gains)
    for a, b in zip(lazy.gains, naive.gains):
        # Bitwise float equality, not approx: both paths must compute the
        # exact same gain for the photo they commit.
        assert a.point == b.point
        assert a.aspect == b.aspect


@pytest.mark.parametrize("seed", range(4))
def test_celf_equals_naive_greedy(seed):
    index, pool, background, storage = _scenario(seed)
    lazy = greedy_select(index, pool, storage, background)
    naive = greedy_select_reference(index, pool, storage, background)
    _assert_byte_identical(lazy, naive)
    assert lazy.photos, "scenario must actually select something"


@pytest.mark.parametrize("intensity", [0.3, 0.6])
def test_celf_equals_naive_on_fault_perturbed_pools(intensity):
    """Fault-injected pools (dropped photos) preserve the equivalence."""
    index, pool, background, storage = _scenario(seed=99, pool_size=80)
    injector = FaultInjector(FaultPlan.scaled(intensity, seed=7))
    perturbed = injector.surviving_photos(pool)
    assert perturbed, "fault plan must leave a non-empty pool"
    lazy = greedy_select(index, perturbed, storage, background)
    naive = greedy_select_reference(index, perturbed, storage, background)
    _assert_byte_identical(lazy, naive)


def test_telemetry_does_not_change_selection():
    index, pool, background, storage = _scenario(seed=5)
    telemetry = SimTelemetry()
    plain = greedy_select(index, pool, storage, background)
    with activated(telemetry):
        observed = greedy_select(index, pool, storage, background)
        observed_naive = greedy_select_reference(index, pool, storage, background)
    _assert_byte_identical(plain, observed)
    _assert_byte_identical(plain, observed_naive)
    # The hooks really fired: the selection counter and the gain-evaluation
    # tally are both non-zero.
    snapshot = telemetry.registry.snapshot()
    evaluators = snapshot["repro_selection_evaluator_total"]["samples"]
    assert sum(s["value"] for s in evaluators) == 2.0
    gain_evals = snapshot["repro_selection_gain_evaluations_total"]["samples"]
    assert gain_evals[0]["value"] > 0


def test_zero_capacity_and_zero_probability_edges():
    index, pool, background, _ = _scenario(seed=11, pool_size=30)
    empty = StorageSpec(node_id=1, capacity_bytes=0, delivery_probability=0.5)
    hopeless = StorageSpec(node_id=1, capacity_bytes=40 * MB, delivery_probability=0.0)
    for storage in (empty, hopeless):
        lazy = greedy_select(index, pool, storage, background)
        naive = greedy_select_reference(index, pool, storage, background)
        _assert_byte_identical(lazy, naive)
        assert lazy.photos == []

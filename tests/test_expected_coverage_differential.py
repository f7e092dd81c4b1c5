"""Differential sweep: the three expected-coverage evaluators must agree.

``expected_coverage`` (the exact polynomial endpoint sweep) is the
production path; ``expected_coverage_enumerated`` is Definition 2 executed
literally over all 2^m delivery outcomes; ``expected_coverage_sampled``,
defined here as a test oracle, is the Monte-Carlo cross-check.  On
randomized node profiles up to m = 8 the three must agree within
documented tolerances:

* sweep vs enumeration: floating-point tolerance (both are exact; they
  differ only in summation order), 1e-9 relative / 1e-12 absolute.
* sweep vs sampling: statistical tolerance.  Each PoI's point indicator is
  a Bernoulli mean over N common-random-number samples, so the standard
  error per PoI is at most 0.5/sqrt(N); with N = 4000 and 3 PoIs a 6-sigma
  band is ~0.14 in summed point coverage (aspect scales by 2*pi).

Both checks against the enumeration draw PoIs with and without
important-aspect restrictions.  The incremental ``SelectionEvaluator`` is
checked against the enumeration too, not against the sweep, whose
per-PoI survival function it shares: its marginal gain after any
committed photos must equal the difference of two enumerated expected
coverages.

Everything in this module except the cases that call
``expected_coverage_sampled`` (it imports numpy) runs with numpy absent.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angular import AngularInterval, ArcSet
from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import (
    NodeProfile,
    SelectionEvaluator,
    _coverage_of_profiles,
    build_node_profile,
    expected_coverage,
    expected_coverage_enumerated,
)
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList

from helpers import needs_numpy, photo_at_aspect

THETA = math.radians(30.0)

POIS = [Point(0.0, 0.0), Point(500.0, 0.0), Point(0.0, 500.0)]


def expected_coverage_sampled(
    index: CoverageIndex,
    profiles: Sequence[NodeProfile],
    samples: int = 1000,
    seed: int = 0,
) -> CoverageValue:
    """Monte-Carlo estimate of Definition 2 by sampling delivery outcomes.

    An independent estimate of what :func:`expected_coverage` computes
    exactly: each sample draws every uncertain node's delivery, and the
    estimate is the mean deterministic coverage of the delivered
    collections.  The fixed *seed* makes estimates reproducible.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    import numpy as np

    certain = [p for p in profiles if p.is_certain]
    uncertain = [p for p in profiles if not p.is_certain and p.delivery_probability > 0.0]
    if not uncertain:
        return _coverage_of_profiles(index, certain)
    rng = np.random.default_rng(seed)
    probabilities = np.array([p.delivery_probability for p in uncertain])
    total = CoverageValue.ZERO
    for _ in range(samples):
        draws = rng.random(len(uncertain)) < probabilities
        delivered = list(certain) + [p for p, hit in zip(uncertain, draws) if hit]
        total = total + _coverage_of_profiles(index, delivered)
    return total.scaled(1.0 / samples)


def _index() -> CoverageIndex:
    return CoverageIndex(PoIList.from_points(POIS), effective_angle=THETA)


def _random_profiles(rng: random.Random, index: CoverageIndex, num_nodes: int):
    """Node profiles with random collections and delivery probabilities."""
    profiles = []
    for node_id in range(1, num_nodes + 1):
        photos = []
        for _ in range(rng.randint(0, 4)):
            poi = rng.choice(POIS)
            photos.append(photo_at_aspect(poi, rng.uniform(0.0, 360.0)))
        # Mix in the occasional certain node (the command center case) and
        # the occasional zero-probability node (pruned by every evaluator).
        roll = rng.random()
        if roll < 0.1:
            probability = 1.0
        elif roll < 0.2:
            probability = 0.0
        else:
            probability = rng.uniform(0.05, 0.95)
        profiles.append(build_node_profile(index, node_id, photos, probability))
    return profiles


def _restricted_pois(rng: random.Random):
    """The POIS grid, some with a random important-aspects restriction."""
    pois = []
    for point in POIS:
        if rng.random() < 0.5:
            arcs = ArcSet(
                AngularInterval.around(
                    rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.5)
                )
                for _ in range(rng.randint(1, 2))
            )
            pois.append(PoI(location=point, important_aspects=arcs))
        else:
            pois.append(PoI(location=point))
    return PoIList(pois)


class TestSweepAgainstEnumeration:
    @given(seed=st.integers(min_value=0, max_value=10_000), m=st.integers(min_value=0, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_polynomial_sweep_matches_definition_2(self, seed, m):
        rng = random.Random(seed)
        index = CoverageIndex(_restricted_pois(rng), effective_angle=THETA)
        profiles = _random_profiles(rng, index, m)
        exact = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        assert exact.point == pytest.approx(enumerated.point, rel=1e-9, abs=1e-12)
        assert exact.aspect == pytest.approx(enumerated.aspect, rel=1e-9, abs=1e-12)


@needs_numpy
class TestSweepAgainstSampling:
    #: 6-sigma statistical band for N=4000 samples over 3 unit-weight PoIs.
    POINT_TOLERANCE = 0.15
    ASPECT_TOLERANCE = 0.15 * 2.0 * math.pi

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_monte_carlo_within_statistical_tolerance(self, seed, m):
        index = _index()
        profiles = _random_profiles(random.Random(100 + seed), index, m)
        exact = expected_coverage(index, profiles)
        sampled = expected_coverage_sampled(index, profiles, samples=4000, seed=0)
        assert sampled.point == pytest.approx(exact.point, abs=self.POINT_TOLERANCE)
        assert sampled.aspect == pytest.approx(exact.aspect, abs=self.ASPECT_TOLERANCE)


@needs_numpy  # expected_coverage_sampled is numpy-backed
class TestEvaluatorEdgeAgreement:
    def test_all_three_agree_on_empty_profile_set(self):
        index = _index()
        assert expected_coverage(index, []).point == 0.0
        assert expected_coverage_enumerated(index, []).point == 0.0
        assert expected_coverage_sampled(index, [], samples=10).point == 0.0

    def test_all_three_agree_on_certain_nodes_only(self):
        index = _index()
        rng = random.Random(42)
        photos = [photo_at_aspect(POIS[0], rng.uniform(0.0, 360.0)) for _ in range(3)]
        profiles = [build_node_profile(index, 1, photos, 1.0)]
        exact = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        sampled = expected_coverage_sampled(index, profiles, samples=1)
        # A certain node makes all three evaluators deterministic and equal.
        assert exact.point == pytest.approx(enumerated.point, rel=1e-12)
        assert exact.point == pytest.approx(sampled.point, rel=1e-12)
        assert exact.aspect == pytest.approx(enumerated.aspect, rel=1e-9)
        assert exact.aspect == pytest.approx(sampled.aspect, rel=1e-9)


@needs_numpy
class TestExpectedCoverageSampled:
    def test_matches_exact_within_noise(self):
        pois = PoIList.from_points([Point(0.0, 0.0), Point(400.0, 0.0)])
        index = CoverageIndex(pois)
        profiles = [
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 0.0)], 0.5),
            build_node_profile(index, 2, [photo_at_aspect(Point(0, 0), 120.0)], 0.7),
            build_node_profile(index, 3, [photo_at_aspect(Point(400, 0), 45.0)], 0.3),
        ]
        exact = expected_coverage(index, profiles)
        sampled = expected_coverage_sampled(index, profiles, samples=4000, seed=0)
        assert sampled.point == pytest.approx(exact.point, rel=0.1)
        assert sampled.aspect == pytest.approx(exact.aspect, rel=0.1)

    def test_certain_only_is_exact(self):
        pois = PoIList.from_points([Point(0.0, 0.0)])
        index = CoverageIndex(pois)
        profiles = [build_node_profile(index, 0, [photo_at_aspect(Point(0, 0), 0.0)], 1.0)]
        sampled = expected_coverage_sampled(index, profiles, samples=1, seed=0)
        assert sampled.isclose(expected_coverage(index, profiles))

    def test_validation(self):
        pois = PoIList.from_points([Point(0.0, 0.0)])
        index = CoverageIndex(pois)
        with pytest.raises(ValueError):
            expected_coverage_sampled(index, [], samples=0)

    def test_deterministic_for_seed(self):
        pois = PoIList.from_points([Point(0.0, 0.0)])
        index = CoverageIndex(pois)
        profiles = [
            build_node_profile(index, 1, [photo_at_aspect(Point(0, 0), 0.0)], 0.5)
        ]
        a = expected_coverage_sampled(index, profiles, samples=100, seed=7)
        b = expected_coverage_sampled(index, profiles, samples=100, seed=7)
        assert a == b


def _random_pool(rng: random.Random, size: int):
    return [
        photo_at_aspect(rng.choice(POIS), rng.uniform(0.0, 360.0))
        for _ in range(size)
    ]


class TestEvaluatorAgainstSweep:
    """``SelectionEvaluator`` gains == Definition-2 enumeration deltas."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        m=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_gain_matches_delta(self, seed, m):
        rng = random.Random(seed)
        index = CoverageIndex(_restricted_pois(rng), effective_angle=THETA)
        profiles = _random_profiles(rng, index, m)
        pool = _random_pool(rng, rng.randint(1, 12))
        probability = rng.uniform(0.05, 1.0)
        committed = rng.sample(pool, rng.randint(0, min(3, len(pool))))

        evaluator = SelectionEvaluator(index, profiles, probability)
        for photo in committed:
            evaluator.add(photo)
        before = expected_coverage_enumerated(
            index, profiles + [build_node_profile(index, 99, committed, probability)]
        )
        for photo in pool:
            after = expected_coverage_enumerated(
                index,
                profiles + [build_node_profile(index, 99, committed + [photo], probability)],
            )
            gain = evaluator.gain_of(photo)
            assert gain.point == pytest.approx(after.point - before.point, rel=1e-9, abs=1e-9)
            assert gain.aspect == pytest.approx(after.aspect - before.aspect, rel=1e-9, abs=1e-9)

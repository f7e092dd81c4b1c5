"""Tests for the seed-sensitivity statistics."""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioSpec
from repro.experiments.sensitivity import paired_comparison, seed_sensitivity

SPEC = ScenarioSpec(scale=0.08, seed=0)


class TestSeedSensitivity:
    @pytest.fixture(scope="class")
    def statistics(self):
        return seed_sensitivity(SPEC, ("our-scheme", "spray-and-wait"), num_seeds=3)

    def test_shape(self, statistics):
        assert set(statistics) == {"our-scheme", "spray-and-wait"}
        for stat in statistics.values():
            assert stat.num_seeds == 3
            assert stat.ci_low <= stat.mean <= stat.ci_high
            assert stat.std >= 0.0

    def test_metric_selection(self):
        stats_delivered = seed_sensitivity(
            SPEC, ("our-scheme",), num_seeds=2, metric="delivered"
        )
        assert stats_delivered["our-scheme"].mean >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            seed_sensitivity(SPEC, ("our-scheme",), num_seeds=1)
        with pytest.raises(ValueError):
            seed_sensitivity(SPEC, ("our-scheme",), num_seeds=2, confidence=1.5)
        with pytest.raises(ValueError):
            seed_sensitivity(SPEC, ("our-scheme",), num_seeds=2, metric="bogus")


class TestPairedComparison:
    def test_ours_vs_spray(self):
        comparison = paired_comparison(
            SPEC, "our-scheme", "spray-and-wait", num_seeds=3, metric="aspect"
        )
        assert comparison.scheme_a == "our-scheme"
        # Ours never loses on aspect coverage on these scenarios.
        assert comparison.mean_difference >= 0.0
        assert 0.0 <= comparison.p_value <= 1.0

    def test_self_comparison_is_null(self):
        comparison = paired_comparison(SPEC, "our-scheme", "our-scheme", num_seeds=2)
        assert comparison.mean_difference == 0.0
        assert comparison.p_value == 1.0

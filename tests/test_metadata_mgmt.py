"""Tests for inter-contact estimation (Eq. 1) and the metadata cache."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata_mgmt.cache import CacheEntry, MetadataCache
from repro.metadata_mgmt.intercontact import (
    DEFAULT_VALIDITY_THRESHOLD,
    InterContactEstimator,
    metadata_is_valid,
    metadata_staleness_probability,
)

from helpers import make_photo


class TestInterContactEstimator:
    def test_no_history_uses_prior(self):
        estimator = InterContactEstimator()
        estimator.record_contact(2, 100.0)
        assert estimator.pair_rate(2) == 0.0

    def test_mle_rate_from_gaps(self):
        estimator = InterContactEstimator()
        for t in (0.0, 100.0, 200.0, 300.0):
            estimator.record_contact(2, t)
        # Three gaps of 100 s each -> rate = 3/300 = 0.01 per second.
        assert estimator.pair_rate(2) == pytest.approx(0.01)

    def test_aggregate_sums_pairs(self):
        estimator = InterContactEstimator()
        for t in (0.0, 100.0):
            estimator.record_contact(2, t)
        for t in (0.0, 200.0):
            estimator.record_contact(3, t)
        assert estimator.aggregate_rate() == pytest.approx(1 / 100.0 + 1 / 200.0)

    def test_rejects_time_travel(self):
        estimator = InterContactEstimator()
        estimator.record_contact(2, 100.0)
        with pytest.raises(ValueError):
            estimator.record_contact(2, 50.0)

    def test_zero_gap_ignored(self):
        estimator = InterContactEstimator()
        estimator.record_contact(2, 100.0)
        estimator.record_contact(2, 100.0)
        assert estimator.pair_rate(2) == 0.0  # still no gap observed

    def test_peers_listing(self):
        estimator = InterContactEstimator()
        estimator.record_contact(5, 0.0)
        estimator.record_contact(2, 1.0)
        assert estimator.peers() == (2, 5)


class TestEquation1:
    def test_zero_elapsed_is_fresh(self):
        assert metadata_staleness_probability(1.0, 0.0) == 0.0

    def test_zero_rate_never_stale(self):
        assert metadata_staleness_probability(0.0, 1e9) == 0.0

    def test_exponential_form(self):
        # P{T < t} = 1 - e^{-lambda t}
        assert metadata_staleness_probability(0.01, 100.0) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_validity_threshold(self):
        # lambda * t = ln(5) makes P = 0.8 exactly; slightly below passes.
        rate = math.log(5.0) / 100.0
        assert metadata_is_valid(rate, 99.9, threshold=0.8)
        assert not metadata_is_valid(rate, 110.0, threshold=0.8)

    def test_default_threshold_is_table_i(self):
        assert DEFAULT_VALIDITY_THRESHOLD == 0.8

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            metadata_staleness_probability(-1.0, 10.0)
        with pytest.raises(ValueError):
            metadata_staleness_probability(1.0, -10.0)
        with pytest.raises(ValueError):
            metadata_is_valid(1.0, 1.0, threshold=1.5)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 1e6))
    def test_probability_in_unit_interval(self, rate, elapsed):
        p = metadata_staleness_probability(rate, elapsed)
        assert 0.0 <= p <= 1.0

    @given(st.floats(0.001, 1.0), st.floats(0.0, 1e4), st.floats(0.0, 1e4))
    @settings(max_examples=100)
    def test_monotone_in_elapsed(self, rate, t1, t2):
        lo, hi = sorted((t1, t2))
        assert metadata_staleness_probability(rate, lo) <= metadata_staleness_probability(
            rate, hi
        ) + 1e-12


def entry(node_id, time, rate=0.0, photos=(), probability=0.5):
    return CacheEntry(
        node_id=node_id,
        photos=tuple(photos),
        aggregate_rate=rate,
        snapshot_time=time,
        delivery_probability=probability,
    )


class TestMetadataCache:
    def test_rejects_own_metadata(self):
        cache = MetadataCache(owner_id=1)
        with pytest.raises(ValueError):
            cache.store(entry(1, 0.0))

    def test_store_and_get(self):
        cache = MetadataCache(owner_id=1)
        cache.store(entry(2, 10.0))
        assert cache.get(2).snapshot_time == 10.0
        assert 2 in cache
        assert len(cache) == 1

    def test_fresher_snapshot_wins(self):
        cache = MetadataCache(owner_id=1)
        cache.store(entry(2, 10.0))
        cache.store(entry(2, 20.0))
        assert cache.get(2).snapshot_time == 20.0
        cache.store(entry(2, 15.0))  # stale write ignored
        assert cache.get(2).snapshot_time == 20.0

    def test_merge_from_takes_fresher(self):
        mine = MetadataCache(owner_id=1)
        theirs = MetadataCache(owner_id=2)
        mine.store(entry(3, 10.0))
        theirs.store(entry(3, 30.0))
        theirs.store(entry(4, 5.0))
        updated = mine.merge_from(theirs)
        assert updated == 2
        assert mine.get(3).snapshot_time == 30.0
        assert mine.get(4).snapshot_time == 5.0

    def test_merge_skips_own_entry(self):
        mine = MetadataCache(owner_id=1)
        theirs = MetadataCache(owner_id=2)
        theirs.store(entry(1, 50.0))
        mine.merge_from(theirs)
        assert 1 not in mine

    def test_purge_stale_removes_expired(self):
        cache = MetadataCache(owner_id=1, threshold=0.8)
        # rate * elapsed = ln(5) -> staleness exactly 0.8 at t = 160.94...
        rate = math.log(5.0) / 100.0
        cache.store(entry(2, 0.0, rate=rate))
        assert cache.purge_stale(now=50.0) == 0
        assert cache.purge_stale(now=150.0) == 1
        assert 2 not in cache

    def test_command_center_never_purged(self):
        cache = MetadataCache(owner_id=1)
        cache.store(entry(0, 0.0, rate=100.0))
        assert cache.purge_stale(now=1e9) == 0
        assert 0 in cache

    def test_valid_entries_filters_and_sorts(self):
        cache = MetadataCache(owner_id=1, threshold=0.8)
        rate = math.log(5.0) / 100.0
        cache.store(entry(5, 0.0, rate=rate))      # stale at t=1000
        cache.store(entry(3, 900.0, rate=rate))    # fresh at t=1000
        cache.store(entry(0, 0.0, rate=100.0))     # command center: always
        valid = cache.valid_entries(now=1000.0)
        assert [e.node_id for e in valid] == [0, 3]

    def test_valid_entries_excludes_participants(self):
        cache = MetadataCache(owner_id=1)
        cache.store(entry(2, 0.0))
        cache.store(entry(3, 0.0))
        valid = cache.valid_entries(now=1.0, exclude={2})
        assert [e.node_id for e in valid] == [3]

    def test_drop(self):
        cache = MetadataCache(owner_id=1)
        cache.store(entry(2, 0.0))
        cache.drop(2)
        assert 2 not in cache
        cache.drop(99)  # no-op

    def test_entry_validity_method(self):
        rate = math.log(5.0) / 100.0
        fresh = entry(2, 0.0, rate=rate)
        assert fresh.is_valid_at(100.0, threshold=0.8)
        assert not fresh.is_valid_at(200.0, threshold=0.8)

    def test_cache_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            MetadataCache(owner_id=1, threshold=2.0)

    def test_entries_carry_photos(self):
        cache = MetadataCache(owner_id=1)
        photos = (make_photo(0, 0, 0),)
        cache.store(entry(2, 0.0, photos=photos))
        assert cache.get(2).photos == photos

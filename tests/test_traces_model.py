"""Tests for the contact-trace model and its statistics."""

from __future__ import annotations

import pytest

from repro.traces.model import ContactRecord, ContactTrace


def record(start, a, b, duration=60.0):
    return ContactRecord(start, a, b, duration)


class TestContactRecord:
    def test_normalizes_node_order(self):
        contact = ContactRecord(0.0, 5, 2, 10.0)
        assert contact.node_a == 2
        assert contact.node_b == 5
        assert contact.pair == (2, 5)

    def test_rejects_self_contact(self):
        with pytest.raises(ValueError):
            ContactRecord(0.0, 3, 3, 10.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            ContactRecord(-1.0, 1, 2, 10.0)
        with pytest.raises(ValueError):
            ContactRecord(0.0, 1, 2, -10.0)

    def test_end(self):
        contact = record(10.0, 1, 2, duration=5.0)
        assert contact.end == 15.0


class TestContactTrace:
    def sample(self):
        return ContactTrace(
            [
                record(100.0, 1, 2),
                record(0.0, 1, 2),
                record(50.0, 2, 3),
                record(200.0, 1, 3, duration=100.0),
            ],
            name="sample",
        )

    def test_sorted_by_time(self):
        trace = self.sample()
        starts = [c.start for c in trace]
        assert starts == sorted(starts)

    def test_node_ids(self):
        assert self.sample().node_ids() == {1, 2, 3}

    def test_span(self):
        trace = self.sample()
        assert trace.start_time == 0.0
        assert trace.end_time == 300.0
        assert trace.span == 300.0

    def test_empty_trace(self):
        trace = ContactTrace([])
        assert len(trace) == 0
        assert trace.span == 0.0
        assert trace.mean_contact_duration() == 0.0

    def test_restricted_to(self):
        sub = self.sample().restricted_to({1, 2})
        assert len(sub) == 2
        assert sub.node_ids() == {1, 2}

    def test_window(self):
        sub = self.sample().window(40.0, 150.0)
        assert [c.start for c in sub] == [50.0, 100.0]

    def test_last_contacts(self):
        sub = self.sample().last_contacts(2)
        assert [c.start for c in sub] == [100.0, 200.0]

    def test_shifted(self):
        shifted = self.sample().shifted(10.0)
        assert shifted.start_time == 10.0
        assert len(shifted) == 4

    def test_merged_with(self):
        extra = ContactTrace([record(500.0, 4, 5)])
        merged = self.sample().merged_with(extra)
        assert len(merged) == 5
        assert merged.node_ids() == {1, 2, 3, 4, 5}

    def test_indexing(self):
        trace = self.sample()
        assert trace[0].start == 0.0

    def test_pair_intercontact_gaps(self):
        gaps = self.sample().pair_intercontact_gaps()
        assert gaps[(1, 2)] == [100.0]
        assert (2, 3) not in gaps  # single contact, no gap

    def test_pair_rates(self):
        rates = self.sample().pair_rates()
        assert rates[(1, 2)] == pytest.approx(1.0 / 100.0)

    def test_mean_duration(self):
        assert self.sample().mean_contact_duration() == pytest.approx((60 * 3 + 100) / 4)

    def test_summary_keys(self):
        summary = self.sample().summary()
        assert summary["contacts"] == 4.0
        assert summary["nodes"] == 3.0
        assert summary["span_hours"] == pytest.approx(300.0 / 3600.0)

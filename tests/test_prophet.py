"""Tests for the PROPHET delivery-predictability implementation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.prophet import ProphetParameters, ProphetTable


def table(owner=1, p_init=0.75, beta=0.25, gamma=0.98, time_unit=1.0):
    return ProphetTable(
        owner, ProphetParameters(p_init=p_init, beta=beta, gamma=gamma, time_unit=time_unit)
    )


class TestParameters:
    def test_table_i_defaults(self):
        params = ProphetParameters()
        assert params.p_init == 0.75
        assert params.beta == 0.25
        assert params.gamma == 0.98

    def test_validation(self):
        with pytest.raises(ValueError):
            ProphetParameters(p_init=0.0)
        with pytest.raises(ValueError):
            ProphetParameters(beta=1.5)
        with pytest.raises(ValueError):
            ProphetParameters(gamma=0.0)
        with pytest.raises(ValueError):
            ProphetParameters(time_unit=0.0)


class TestEncounterRule:
    def test_first_encounter_sets_p_init(self):
        t = table()
        assert t.on_encounter(2, now=0.0) == pytest.approx(0.75)

    def test_repeat_encounters_converge_to_one(self):
        t = table()
        t.on_encounter(2, now=0.0)
        second = t.on_encounter(2, now=0.0)
        assert second == pytest.approx(0.75 + 0.25 * 0.75)
        for _ in range(50):
            t.on_encounter(2, now=0.0)
        assert t.predictability(2, 0.0) == pytest.approx(1.0, abs=1e-4)

    def test_self_encounter_rejected(self):
        with pytest.raises(ValueError):
            table(owner=1).on_encounter(1, now=0.0)

    def test_unknown_destination_is_zero(self):
        assert table().predictability(99, now=0.0) == 0.0

    def test_self_predictability_is_one(self):
        assert table(owner=1).predictability(1, now=0.0) == 1.0


class TestAgingRule:
    def test_aging_decays_geometrically(self):
        t = table(gamma=0.5, time_unit=1.0)
        t.on_encounter(2, now=0.0)
        assert t.predictability(2, now=1.0) == pytest.approx(0.75 * 0.5)
        assert t.predictability(2, now=3.0) == pytest.approx(0.75 * 0.125)

    def test_aging_uses_time_unit(self):
        t = table(gamma=0.5, time_unit=100.0)
        t.on_encounter(2, now=0.0)
        assert t.predictability(2, now=100.0) == pytest.approx(0.75 * 0.5)
        assert t.predictability(2, now=50.0) == pytest.approx(0.75 * 0.5**0.5)

    def test_encounter_applies_pending_aging_first(self):
        t = table(gamma=0.5, time_unit=1.0)
        t.on_encounter(2, now=0.0)
        value = t.on_encounter(2, now=1.0)
        aged = 0.75 * 0.5
        assert value == pytest.approx(aged + (1 - aged) * 0.75)

    def test_read_does_not_mutate(self):
        t = table(gamma=0.5, time_unit=1.0)
        t.on_encounter(2, now=0.0)
        t.predictability(2, now=5.0)
        # Reading at a later time must not bake in the decay permanently.
        assert t.predictability(2, now=1.0) == pytest.approx(0.75 * 0.5)


class TestTransitivityRule:
    def test_transitive_update(self):
        t = table(beta=0.25)
        t.on_encounter(2, now=0.0)  # P(1,2) = 0.75
        t.apply_transitivity(2, {3: 0.8}, now=0.0)
        assert t.predictability(3, now=0.0) == pytest.approx(0.75 * 0.8 * 0.25)

    def test_transitivity_keeps_max(self):
        t = table(beta=0.25)
        t.on_encounter(3, now=0.0)  # direct P(1,3) = 0.75
        t.on_encounter(2, now=0.0)
        t.apply_transitivity(2, {3: 0.9}, now=0.0)
        # Transitive value 0.75*0.9*0.25 = 0.169 < direct 0.75: unchanged.
        assert t.predictability(3, now=0.0) == pytest.approx(0.75)

    def test_transitivity_skips_self_and_peer(self):
        t = table(owner=1)
        t.on_encounter(2, now=0.0)
        t.apply_transitivity(2, {1: 0.9, 2: 0.9}, now=0.0)
        assert t.predictability(2, now=0.0) == pytest.approx(0.75)

    def test_transitivity_without_encounter_is_noop(self):
        t = table()
        t.apply_transitivity(2, {3: 0.9}, now=0.0)
        assert t.predictability(3, now=0.0) == 0.0


class TestSnapshot:
    def test_snapshot_reflects_aging(self):
        t = table(gamma=0.5, time_unit=1.0)
        t.on_encounter(2, now=0.0)
        snap = t.snapshot(now=1.0)
        assert snap[2] == pytest.approx(0.375)

    def test_snapshot_excludes_zeroed_entries(self):
        t = table(gamma=0.5, time_unit=1.0)
        t.on_encounter(2, now=0.0)
        snap = t.snapshot(now=10000.0)
        assert snap == {}


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.sampled_from([2, 3, 4]), st.floats(0.0, 100.0)),
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_predictability_stays_in_unit_interval(self, encounters):
        t = table()
        for peer, dt in sorted(encounters, key=lambda e: e[1]):
            t.on_encounter(peer, now=dt)
            t.apply_transitivity(peer, {d: 0.5 for d in (2, 3, 4) if d != peer}, now=dt)
            for dest in (2, 3, 4):
                assert 0.0 <= t.predictability(dest, now=dt) <= 1.0

    def test_gateway_develops_higher_predictability(self):
        """A node meeting the CC often must out-predict one that never does."""
        gateway = table(owner=1, time_unit=3600.0)
        bystander = table(owner=2, time_unit=3600.0)
        for hour in range(10):
            gateway.on_encounter(0, now=hour * 3600.0)
        assert gateway.predictability(0, now=10 * 3600.0) > bystander.predictability(
            0, now=10 * 3600.0
        )

"""Property-based tests for transfer planning and execution invariants."""

from __future__ import annotations

import math
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.core.selection import NodeSelection, ReallocationResult
from repro.core.transfer import build_transfer_plan, execute_transfer_plan

from helpers import MB, make_photo, storages

PHOTO = 4 * MB


@st.composite
def transfer_cases(draw, max_spare_photos=4):
    """Random holdings + random target selections over a shared pool.

    Each node's capacity is its holdings plus up to *max_spare_photos*
    photos of spare room.
    """
    pool_size = draw(st.integers(min_value=0, max_value=8))
    pool = [make_photo(float(i), 0.0, 0.0, size_bytes=PHOTO) for i in range(pool_size)]

    def subset():
        mask = draw(st.lists(st.booleans(), min_size=pool_size, max_size=pool_size))
        return [photo for photo, keep in zip(pool, mask) if keep]

    holdings_a = subset()
    holdings_b = [p for p in pool if p not in holdings_a] + subset()
    # Deduplicate holdings_b preserving order.
    seen = set()
    holdings_b = [p for p in holdings_b if p.photo_id not in seen and not seen.add(p.photo_id)]

    # Target selections: subsets of the pool, only photos someone holds.
    held_ids = {p.photo_id for p in holdings_a} | {p.photo_id for p in holdings_b}
    available = [p for p in pool if p.photo_id in held_ids]
    target_a = [p for p in available if draw(st.booleans())]
    target_b = [p for p in available if draw(st.booleans())]

    # Capacities at least cover current holdings (the simulator's storage
    # enforces this at all times; smaller capacities are unreachable states).
    spare = st.integers(min_value=0, max_value=max_spare_photos)
    capacity_a = (len(holdings_a) + draw(spare)) * PHOTO
    capacity_b = (len(holdings_b) + draw(spare)) * PHOTO
    budget = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8 * PHOTO)))
    return holdings_a, holdings_b, target_a, target_b, capacity_a, capacity_b, budget


class TestExecutionInvariants:
    @given(case=transfer_cases())
    @settings(max_examples=150, deadline=None)
    def test_physical_invariants(self, case):
        holdings_a, holdings_b, target_a, target_b, cap_a, cap_b, budget = case
        result = ReallocationResult(
            first=NodeSelection(node_id=1, photos=target_a),
            second=NodeSelection(node_id=2, photos=target_b),
        )
        stores = storages({1: holdings_a, 2: holdings_b}, {1: cap_a, 2: cap_b})
        plan = build_transfer_plan(result, stores)
        outcome = execute_transfer_plan(plan, result, stores, byte_budget=budget)

        # 1. Byte budget respected.
        if budget is not None:
            assert outcome.bytes_used <= budget
        assert outcome.bytes_used == sum(
            t.photo.size_bytes for t in outcome.completed_transfers
        )

        # 2. Capacity respected on both nodes.
        for node_id, capacity in ((1, cap_a), (2, cap_b)):
            used = sum(p.size_bytes for p in stores[node_id].photos())
            assert used <= capacity

        # 3. Completed transfers are a prefix of the plan.
        assert outcome.completed_transfers == [
            t for t in list(plan)[: len(outcome.completed_transfers) + _skips(plan, outcome)]
            if t in outcome.completed_transfers
        ]

        # 4. Nobody conjures photos: every held photo existed before or was
        #    transferred in.
        before = {p.photo_id for p in holdings_a} | {p.photo_id for p in holdings_b}
        for node_id in (1, 2):
            for photo in stores[node_id].photos():
                assert photo.photo_id in before

        # 5. A completed (untruncated) plan leaves each node with a subset
        #    of its target selection.
        if not outcome.truncated:
            for node_id, targets in ((1, target_a), (2, target_b)):
                target_ids = {p.photo_id for p in targets}
                for photo in stores[node_id].photos():
                    assert photo.photo_id in target_ids

    @given(case=transfer_cases())
    @settings(max_examples=80, deadline=None)
    def test_transfers_only_ship_held_photos(self, case):
        holdings_a, holdings_b, target_a, target_b, *_ = case
        result = ReallocationResult(
            first=NodeSelection(node_id=1, photos=target_a),
            second=NodeSelection(node_id=2, photos=target_b),
        )
        holdings = {1: holdings_a, 2: holdings_b}
        plan = build_transfer_plan(result, storages(holdings))
        for transfer in plan:
            receiver_held = {p.photo_id for p in holdings[transfer.receiver_id]}
            assert transfer.photo.photo_id not in receiver_held


def _skips(plan, outcome) -> int:
    """Transfers attempted but skipped for capacity (not counted in bytes)."""
    completed_ids = {id(t) for t in outcome.completed_transfers}
    count = 0
    for transfer in plan:
        if id(transfer) not in completed_ids:
            count += 1
    return count


class TestTruncationPrefixProperty:
    """Section III-D's robustness claim, stated as a property: whatever the
    truncation point, the photos that moved are exactly the selection-order
    prefix of the plan that fits the byte budget."""

    @given(case=transfer_cases())
    @settings(max_examples=150, deadline=None)
    def test_delivered_prefix_is_selection_order_prefix(self, case):
        holdings_a, holdings_b, target_a, target_b, *_ = case
        result = ReallocationResult(
            first=NodeSelection(node_id=1, photos=target_a),
            second=NodeSelection(node_id=2, photos=target_b),
        )
        holdings = {1: holdings_a, 2: holdings_b}
        # Generous capacities isolate truncation from capacity skips.
        capacities = {1: 64 * PHOTO, 2: 64 * PHOTO}
        plan = build_transfer_plan(result, storages(holdings, capacities))

        for budget in range(0, plan.total_bytes + PHOTO, PHOTO // 2):
            stores = storages(holdings, capacities)
            outcome = execute_transfer_plan(plan, result, stores, byte_budget=budget)
            # The exact prefix that fits the budget, in plan order.
            expected, used = [], 0
            for transfer in plan:
                if used + transfer.photo.size_bytes > budget:
                    break
                expected.append(transfer)
                used += transfer.photo.size_bytes
            assert outcome.completed_transfers == expected
            assert outcome.bytes_used == used <= budget
            assert outcome.truncated == (len(expected) < len(plan))

    @given(case=transfer_cases(), drop_mask=st.lists(st.booleans(), min_size=32, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_lossy_transfers_spend_budget_but_store_nothing(self, case, drop_mask):
        """With a fault-injection loss filter, dropped photos consume bytes
        (the transmission happened) but never appear in any collection."""
        holdings_a, holdings_b, target_a, target_b, cap_a, cap_b, budget = case
        result = ReallocationResult(
            first=NodeSelection(node_id=1, photos=target_a),
            second=NodeSelection(node_id=2, photos=target_b),
        )
        stores = storages({1: holdings_a, 2: holdings_b}, {1: cap_a, 2: cap_b})
        plan = build_transfer_plan(result, stores)

        draws = iter(drop_mask)

        def survives(photo):
            return not next(draws)

        outcome = execute_transfer_plan(plan, result, stores, survives, byte_budget=budget)
        if budget is not None:
            assert outcome.bytes_used <= budget
        assert outcome.bytes_used == sum(
            t.photo.size_bytes
            for t in outcome.completed_transfers + outcome.dropped_transfers
        )
        dropped_ids = {t.photo.photo_id for t in outcome.dropped_transfers}
        completed_ids = {t.photo.photo_id for t in outcome.completed_transfers}
        # A photo either arrived or was dropped, never both.
        assert not dropped_ids & completed_ids
        # A dropped photo never materializes at its receiver (the plan only
        # schedules photos the receiver lacks, so absence proves the drop).
        for transfer in outcome.dropped_transfers:
            receiver_ids = set(stores[transfer.receiver_id].photo_ids())
            assert transfer.photo.photo_id not in receiver_ids


def list_executor(plan, result, holdings, capacities, byte_budget, transfer_survives):
    """Reference executor: runs *plan* on copies of the *holdings* lists.

    It keeps its own byte tally and, at every transfer that needs room,
    lists the receiver's non-targets afresh and evicts the highest ids
    first.  Returns ``(collections, completed, dropped, bytes_used,
    truncated)``.
    """
    collections = {node_id: list(photos) for node_id, photos in holdings.items()}
    used = {node_id: sum(p.size_bytes for p in photos) for node_id, photos in holdings.items()}
    target_ids = {
        result.first.node_id: result.first.photo_ids(),
        result.second.node_id: result.second.photo_ids(),
    }
    completed, dropped, bytes_used, truncated = [], [], 0, False
    for transfer in plan:
        size = transfer.photo.size_bytes
        if byte_budget is not None and bytes_used + size > byte_budget:
            truncated = True
            break
        receiver = transfer.receiver_id
        capacity = capacities.get(receiver)
        if capacity is not None:
            collection = collections[receiver]
            evictable = sorted(
                (p for p in collection if p.photo_id not in target_ids[receiver]),
                key=lambda p: p.photo_id,
            )
            victim_ids = set()
            while evictable and used[receiver] + size > capacity:
                victim = evictable.pop()
                victim_ids.add(victim.photo_id)
                used[receiver] -= victim.size_bytes
            collection[:] = [p for p in collection if p.photo_id not in victim_ids]
            if used[receiver] + size > capacity:
                continue
        if transfer_survives is not None and not transfer_survives(transfer.photo):
            dropped.append(transfer)
            bytes_used += size
            continue
        collections[receiver].append(transfer.photo)
        used[receiver] += size
        completed.append(transfer)
        bytes_used += size
    if not truncated:
        for node_id, ids in target_ids.items():
            if capacities.get(node_id) is not None:
                collections[node_id] = [p for p in collections[node_id] if p.photo_id in ids]
    return collections, completed, dropped, bytes_used, truncated


class TestListExecutorEquivalence:
    """In-place execution on :class:`NodeStorage` leaves the same
    collections, in the same order, as running the plan on copied lists."""

    @given(
        # At most one photo of spare room, so receivers often must evict.
        case=transfer_cases(max_spare_photos=1),
        drop_mask=st.one_of(st.none(), st.lists(st.booleans(), min_size=32, max_size=32)),
        unlimited_first=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_list_executor(self, case, drop_mask, unlimited_first):
        holdings_a, holdings_b, target_a, target_b, cap_a, cap_b, _ = case
        result = ReallocationResult(
            first=NodeSelection(node_id=1, photos=target_a),
            second=NodeSelection(node_id=2, photos=target_b),
        )
        holdings = {1: holdings_a, 2: holdings_b}
        capacities = {1: None if unlimited_first else cap_a, 2: cap_b}
        plan = build_transfer_plan(result, storages(holdings, capacities))

        def survives():
            # Each run replays the same corruption draws.
            if drop_mask is None:
                return None
            draws = iter(drop_mask)
            return lambda photo: not next(draws)

        # Cut the contact at every point of the plan: which victims an
        # eviction chose shows only when the trim never runs.
        for budget in [None, *range(0, plan.total_bytes + PHOTO, PHOTO // 2)]:
            stores = storages(holdings, capacities)
            outcome = execute_transfer_plan(plan, result, stores, survives(), byte_budget=budget)
            collections, completed, dropped, bytes_used, truncated = list_executor(
                plan, result, holdings, capacities, budget, survives()
            )
            for node_id in (1, 2):
                assert stores[node_id].photo_ids() == [p.photo_id for p in collections[node_id]]
                assert stores[node_id].used_bytes == sum(p.size_bytes for p in collections[node_id])
            assert outcome.completed_transfers == completed
            assert outcome.dropped_transfers == dropped
            assert outcome.bytes_used == bytes_used
            assert outcome.truncated == truncated

"""Reference optimal solver for small photo-reallocation instances.

The reallocation problem of Section III-A is NP-hard, so the library
solves it greedily.  This test oracle solves small instances *optimally*
by brute force over all ``4^k`` placements of ``k`` pool photos (each
photo goes to node a, node b, both, or neither), so the tests can check
that the greedy solution is feasible and never beats the optimum.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.core.coverage import CoverageValue
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import (
    NodeProfile,
    build_node_profile,
    expected_coverage,
)
from repro.core.metadata import Photo
from repro.core.selection import StorageSpec

__all__ = ["optimal_reallocation", "evaluate_allocation"]

# Each photo's placement: not stored / on a / on b / on both.
_PLACEMENTS = ((False, False), (True, False), (False, True), (True, True))


def evaluate_allocation(
    index: CoverageIndex,
    pool: Sequence[Photo],
    placement: Sequence[Tuple[bool, bool]],
    storage_a: StorageSpec,
    storage_b: StorageSpec,
    background: Sequence[NodeProfile] = (),
) -> Optional[CoverageValue]:
    """Expected coverage of one placement, or ``None`` if infeasible."""
    photos_a = [p for p, (on_a, _) in zip(pool, placement) if on_a]
    photos_b = [p for p, (_, on_b) in zip(pool, placement) if on_b]
    if storage_a.capacity_bytes is not None:
        if sum(p.size_bytes for p in photos_a) > storage_a.capacity_bytes:
            return None
    if storage_b.capacity_bytes is not None:
        if sum(p.size_bytes for p in photos_b) > storage_b.capacity_bytes:
            return None
    profiles = list(background) + [
        build_node_profile(index, storage_a.node_id, photos_a, storage_a.delivery_probability),
        build_node_profile(index, storage_b.node_id, photos_b, storage_b.delivery_probability),
    ]
    return expected_coverage(index, profiles)


def optimal_reallocation(
    index: CoverageIndex,
    pool: Sequence[Photo],
    storage_a: StorageSpec,
    storage_b: StorageSpec,
    background: Sequence[NodeProfile] = (),
    max_pool: int = 10,
) -> Tuple[CoverageValue, List[Tuple[bool, bool]]]:
    """Brute-force the optimal placement of *pool* onto the two storages.

    Raises ``ValueError`` for pools larger than *max_pool* (the search is
    ``4^k``).  Returns the best expected coverage and the placement that
    achieves it.
    """
    if len(pool) > max_pool:
        raise ValueError(f"pool of {len(pool)} photos exceeds max_pool={max_pool}")
    best_value: Optional[CoverageValue] = None
    best_placement: Optional[List[Tuple[bool, bool]]] = None
    for placement in itertools.product(_PLACEMENTS, repeat=len(pool)):
        value = evaluate_allocation(index, pool, placement, storage_a, storage_b, background)
        if value is None:
            continue
        if best_value is None or value > best_value:
            best_value = value
            best_placement = list(placement)
    assert best_value is not None and best_placement is not None  # empty placement is feasible
    return best_value, best_placement

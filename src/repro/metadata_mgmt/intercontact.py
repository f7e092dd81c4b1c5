"""Inter-contact-time modeling for metadata cache validation (Section III-B).

The paper models the inter-contact time ``T_ab`` between nodes ``a`` and
``b`` as exponential with rate ``lambda_ab`` learned from contact history.
The time until node ``a`` meets *anyone* is then
``T_a = min_b T_ab ~ Exp(lambda_a)`` with ``lambda_a = sum_b lambda_ab``.
Cached metadata of ``a`` is declared stale when the probability that ``a``
has met another node since the cache was written,

    ``P{T_a < t} = 1 - exp(-lambda_a * t)``          (Eq. 1)

exceeds a threshold ``P_thld`` (Table I: 0.8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = [
    "DEFAULT_VALIDITY_THRESHOLD",
    "InterContactEstimator",
    "metadata_staleness_probability",
    "metadata_is_valid",
]

#: Table I: P_thld = 0.8.
DEFAULT_VALIDITY_THRESHOLD = 0.8


@dataclass
class InterContactEstimator:
    """Online estimator of pairwise contact rates ``lambda_ab``.

    For each peer the estimator keeps the number of observed inter-contact
    gaps and their total duration; the maximum-likelihood exponential rate
    is ``count / total_gap``.  ``aggregate_rate`` (``lambda_a``) is the sum
    over peers, which is what a node shares during contacts so that others
    can later validate its cached metadata.

    A pair with no observed gap yet contributes rate ``0.0`` ("unknown,
    assume never"), which keeps un-modeled nodes' metadata valid forever.
    """

    _last_contact: Dict[int, float] = field(default_factory=dict)
    _gap_count: Dict[int, int] = field(default_factory=dict)
    _gap_total: Dict[int, float] = field(default_factory=dict)

    def record_contact(self, peer_id: int, time: float) -> None:
        """Record a contact with *peer_id* at *time* (seconds)."""
        previous = self._last_contact.get(peer_id)
        if previous is not None:
            gap = time - previous
            if gap < 0.0:
                raise ValueError(f"contact times must be non-decreasing, got gap {gap}")
            if gap > 0.0:
                self._gap_count[peer_id] = self._gap_count.get(peer_id, 0) + 1
                self._gap_total[peer_id] = self._gap_total.get(peer_id, 0.0) + gap
        self._last_contact[peer_id] = time

    def pair_rate(self, peer_id: int) -> float:
        """MLE of ``lambda_ab`` for this peer (per second)."""
        count = self._gap_count.get(peer_id, 0)
        if count == 0:
            return 0.0
        return count / self._gap_total[peer_id]

    def aggregate_rate(self) -> float:
        """``lambda_a = sum_b lambda_ab`` -- the rate of meeting anyone."""
        known_peers = set(self._last_contact)
        return sum(self.pair_rate(peer) for peer in known_peers)

    def peers(self) -> Tuple[int, ...]:
        return tuple(sorted(self._last_contact))


def metadata_staleness_probability(aggregate_rate: float, elapsed: float) -> float:
    """``P{T_a < t} = 1 - exp(-lambda_a * t)`` (Eq. 1).

    *aggregate_rate* is ``lambda_a`` (per second) as learned by the metadata
    owner and shared during the contact; *elapsed* is the time since the
    cache entry was written.
    """
    if aggregate_rate < 0.0:
        raise ValueError(f"aggregate rate must be non-negative, got {aggregate_rate}")
    if elapsed < 0.0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    return 1.0 - math.exp(-aggregate_rate * elapsed)


def metadata_is_valid(
    aggregate_rate: float,
    elapsed: float,
    threshold: float = DEFAULT_VALIDITY_THRESHOLD,
) -> bool:
    """Whether a cached metadata entry is still usable per Eq. 1.

    Valid iff the probability that the owner has met another node since
    the entry was cached does not exceed *threshold*.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return metadata_staleness_probability(aggregate_rate, elapsed) <= threshold

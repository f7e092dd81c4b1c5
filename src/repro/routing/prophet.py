"""PROPHET delivery predictability (Lindgren et al., used in Section III-C).

The paper uses the PROPHET metric ``p_i`` -- the probability that node
``n_i`` can deliver data to the command center ``n_0`` -- to weight photo
coverage into *expected coverage*.  This module implements the three
PROPHET update rules with the Table I constants (``P_init`` = 0.75,
``beta`` = 0.25, ``gamma`` = 0.98):

1. **Encounter**: ``P(a,b) <- P(a,b) + (1 - P(a,b)) * P_init``.
2. **Aging**:     ``P(a,b) <- P(a,b) * gamma^k`` where ``k`` is the number
   of elapsed time units since the last aging of the pair.
3. **Transitivity**: on an (a, b) encounter, for every destination ``c``
   known to ``b``: ``P(a,c) <- max(P(a,c), P(a,b) * P(b,c) * beta)``.

Aging happens lazily at read/update time, so no periodic timer is needed;
``time_unit`` converts simulation seconds into PROPHET aging units (the
paper does not state the unit; one hour is the package default and is an
experiment parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = ["ProphetParameters", "ProphetTable"]


@dataclass(frozen=True)
class ProphetParameters:
    """The three PROPHET constants plus the aging time unit."""

    p_init: float = 0.75
    beta: float = 0.25
    gamma: float = 0.98
    time_unit: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_init <= 1.0:
            raise ValueError(f"p_init must be in (0, 1], got {self.p_init}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.time_unit <= 0.0:
            raise ValueError(f"time_unit must be positive, got {self.time_unit}")


class ProphetTable:
    """One node's delivery predictabilities toward every known destination.

    All methods take the current simulation time in seconds; aging is
    applied lazily before any read or update.
    """

    def __init__(self, owner_id: int, params: ProphetParameters = ProphetParameters()) -> None:
        self.owner_id = owner_id
        self.params = params
        self._predictability: Dict[int, float] = {}
        self._last_aged: Dict[int, float] = {}

    def _aged_value(self, dest_id: int, now: float) -> float:
        value = self._predictability.get(dest_id, 0.0)
        if value == 0.0:
            return 0.0
        elapsed = max(0.0, now - self._last_aged.get(dest_id, now))
        if elapsed > 0.0:
            value *= self.params.gamma ** (elapsed / self.params.time_unit)
        return value

    def _apply_aging(self, dest_id: int, now: float) -> float:
        value = self._aged_value(dest_id, now)
        self._predictability[dest_id] = value
        self._last_aged[dest_id] = now
        return value

    def predictability(self, dest_id: int, now: float) -> float:
        """``P(owner, dest)`` at time *now*, with lazy aging (read-only)."""
        if dest_id == self.owner_id:
            return 1.0
        return self._aged_value(dest_id, now)

    def on_encounter(self, peer_id: int, now: float) -> float:
        """Apply the direct-encounter update rule; returns the new value."""
        if peer_id == self.owner_id:
            raise ValueError("a node does not encounter itself")
        value = self._apply_aging(peer_id, now)
        value = value + (1.0 - value) * self.params.p_init
        self._predictability[peer_id] = value
        return value

    def apply_transitivity(
        self,
        peer_id: int,
        peer_table: Mapping[int, float],
        now: float,
    ) -> None:
        """Apply the transitive update using the peer's predictability map.

        *peer_table* maps destination ids to the peer's (already aged)
        predictabilities; call :meth:`snapshot` on the peer to produce it.
        Must be called *after* :meth:`on_encounter` so ``P(a,b)`` is fresh.
        """
        p_ab = self.predictability(peer_id, now)
        if p_ab == 0.0:
            return
        for dest_id, p_bc in peer_table.items():
            if dest_id in (self.owner_id, peer_id):
                continue
            current = self._apply_aging(dest_id, now)
            transitive = p_ab * p_bc * self.params.beta
            if transitive > current:
                self._predictability[dest_id] = transitive

    def snapshot(self, now: float) -> Dict[int, float]:
        """Aged copy of all predictabilities, for exchanging during contact."""
        snapshot: Dict[int, float] = {}
        for dest_id in self._predictability:
            value = self._aged_value(dest_id, now)
            if value > 0.0:
                snapshot[dest_id] = value
        return snapshot

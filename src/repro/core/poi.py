"""Points of Interest (PoIs) and PoI lists.

Section II-A: the command center issues a PoI list ``X = {x_1, x_2, ...}``.
The weighted extension from the Section II-C discussion is supported:
each PoI may carry a point-coverage weight, and may restrict/weight which
aspects matter (e.g. only the main entrance of a building).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from .angular import ArcSet
from .geometry import Point

__all__ = ["PoI", "PoIList"]


@dataclass(frozen=True)
class PoI:
    """One point of interest.

    Attributes
    ----------
    location:
        Where the PoI is.
    weight:
        Point-coverage weight ``w`` (Section II-C): a photo covering this
        PoI earns ``w`` point coverage instead of 1.  Aspect coverage is
        scaled by the same weight.
    important_aspects:
        Optional restriction of which aspects count.  When set, aspect
        coverage for this PoI is measured only inside these arcs (e.g. a
        building whose only interesting face is the entrance).  ``None``
        means all ``2*pi`` aspects matter.
    poi_id:
        Index of the PoI in its list; assigned by :class:`PoIList`.
    """

    location: Point
    weight: float = 1.0
    important_aspects: Optional[ArcSet] = None
    poi_id: int = -1

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ValueError(f"PoI weight must be non-negative, got {self.weight}")

    def __hash__(self) -> int:
        return hash((self.poi_id, self.location.x, self.location.y))


class PoIList:
    """The command center's list of PoIs, with stable integer ids.

    The list is immutable after construction; all coverage computations key
    PoIs by their ``poi_id`` index into this list.
    """

    __slots__ = ("_pois",)

    def __init__(self, pois: Sequence[PoI]) -> None:
        self._pois: List[PoI] = []
        for index, poi in enumerate(pois):
            if poi.poi_id not in (-1, index):
                raise ValueError(
                    f"PoI at position {index} already has conflicting id {poi.poi_id}"
                )
            self._pois.append(
                PoI(
                    location=poi.location,
                    weight=poi.weight,
                    important_aspects=poi.important_aspects,
                    poi_id=index,
                )
            )

    @classmethod
    def from_points(cls, points: Sequence[Point], weight: float = 1.0) -> "PoIList":
        return cls([PoI(location=p, weight=weight) for p in points])

    def __len__(self) -> int:
        return len(self._pois)

    def __iter__(self) -> Iterator[PoI]:
        return iter(self._pois)

    def __getitem__(self, index: int) -> PoI:
        return self._pois[index]

    @property
    def total_weight(self) -> float:
        """Sum of PoI weights -- the normalizer for point coverage."""
        return sum(poi.weight for poi in self._pois)

    def __repr__(self) -> str:
        return f"PoIList(n={len(self._pois)})"

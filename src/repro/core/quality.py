"""Photo quality handling (the Section II-C discussion, made concrete).

The paper notes that factors other than coverage -- blur, bad exposure,
staleness -- affect a photo's value, and suggests applications either
(a) filter unqualified photos with a binary threshold before the coverage
model sees them, or (b) fold a continuous factor into the value.  This
module implements both:

* :func:`quality_filter` -- the binary prefilter;
* :class:`TimeDecay` -- a continuous freshness factor ``exp(-age / tau)``
  (photos of a collapsing building age fast; survey photos slowly);
* :func:`discounted_value` -- a coverage value scaled by quality and
  freshness, for ranking heuristics.

The selection algorithm itself stays quality-agnostic (as in the paper);
the intended composition is to prefilter the photo stream before it
enters a node's storage, which :class:`QualityPolicy` packages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from .coverage import CoverageValue
from .metadata import Photo

__all__ = ["quality_filter", "TimeDecay", "QualityPolicy", "discounted_value"]


def quality_filter(photos: Iterable[Photo], threshold: float = 0.5) -> List[Photo]:
    """Binary prefilter: keep photos with ``quality >= threshold``.

    This is option (a) of the paper's discussion -- unqualified photos
    (blurred, badly exposed) never reach the coverage model.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return [photo for photo in photos if photo.quality >= threshold]


@dataclass(frozen=True)
class TimeDecay:
    """Exponential freshness: value fraction ``exp(-age / tau)``.

    ``tau`` (seconds) is the application's information half-life divided
    by ln 2 -- e.g. flood-extent photos may be worthless after a day while
    structural-damage photos stay useful for weeks.
    """

    tau_s: float

    def __post_init__(self) -> None:
        if self.tau_s <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau_s}")

    def factor(self, photo: Photo, now: float) -> float:
        """Freshness multiplier for *photo* at time *now* (1 when new)."""
        age = max(0.0, now - photo.taken_at)
        return math.exp(-age / self.tau_s)

    def half_life_s(self) -> float:
        return self.tau_s * math.log(2.0)


def discounted_value(
    value: CoverageValue,
    photo: Photo,
    now: float,
    decay: Optional[TimeDecay] = None,
) -> CoverageValue:
    """Option (b): a coverage value scaled by quality and freshness.

    Multiplies both coverage components by ``photo.quality`` and, when a
    *decay* model is given, by the freshness factor.  Lexicographic order
    is preserved under positive scaling, so rankings built on the
    discounted value remain consistent.
    """
    factor = photo.quality
    if decay is not None:
        factor *= decay.factor(photo, now)
    return value.scaled(factor)


@dataclass(frozen=True)
class QualityPolicy:
    """A node's admission policy for freshly taken photos.

    ``min_quality`` applies the binary prefilter at capture time;
    ``max_age_s`` (optional) drops photos older than the bound at
    admission -- the cheap stand-in for deadline-driven staleness.
    """

    min_quality: float = 0.0
    max_age_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_quality <= 1.0:
            raise ValueError(f"min_quality must be in [0, 1], got {self.min_quality}")
        if self.max_age_s is not None and self.max_age_s < 0.0:
            raise ValueError(f"max_age_s must be non-negative, got {self.max_age_s}")

    def admits(self, photo: Photo, now: float) -> bool:
        if photo.quality < self.min_quality:
            return False
        if self.max_age_s is not None and now - photo.taken_at > self.max_age_s:
            return False
        return True

    def filter(self, photos: Iterable[Photo], now: float) -> Iterator[Photo]:
        return (photo for photo in photos if self.admits(photo, now))

"""Angular interval algebra on the unit circle.

Aspect coverage (Section II-B of the paper) is the measure of the union of
circular arcs: each photo that covers a PoI contributes the arc of aspects
within the *effective angle* theta of the camera's viewing direction.  This
module provides :class:`AngularInterval` (a single directed arc) and
:class:`ArcSet` (a normalized union of disjoint arcs) with exact measure,
union, intersection and containment operations that handle wraparound at
``2*pi`` correctly.

Angles follow the paper's convention: angle ``0`` points east and angles
increase **clockwise**.  Internally nothing depends on the handedness --
all operations are on the quotient ``R / 2*pi*Z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "normalize_angle",
    "angle_difference",
    "merge_segments",
    "AngularInterval",
    "ArcSet",
]


def normalize_angle(angle: float) -> float:
    """Map *angle* (radians) into ``[0, 2*pi)``.

    >>> normalize_angle(-math.pi / 2) == 3 * math.pi / 2
    True
    """
    reduced = math.fmod(angle, TWO_PI)
    if reduced < 0.0:
        reduced += TWO_PI
    # fmod of a value extremely close to 2*pi can round back up to 2*pi.
    if reduced >= TWO_PI:
        reduced -= TWO_PI
    return reduced


def angle_difference(a: float, b: float) -> float:
    """Smallest absolute angular distance between *a* and *b*, in ``[0, pi]``."""
    diff = abs(normalize_angle(a) - normalize_angle(b))
    return min(diff, TWO_PI - diff)


def merge_segments(segments: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union a batch of non-wrapping ``(lo, hi)`` segments into sorted disjoint ones.

    The batched counterpart of repeated :meth:`ArcSet.add_segment` calls:
    one sort plus one sweep instead of an O(n) merge per insert, which is
    what :func:`repro.core.expected_coverage.build_node_profile` does for
    every photo collection it aggregates.  Touching segments (``hi == lo``)
    merge, matching the closed-arc semantics of :class:`ArcSet`.  The
    result is **exact**: output endpoints are input endpoints, no
    arithmetic beyond comparisons, so the batched and incremental paths
    produce bit-identical segment lists.

    Empty and inverted segments are dropped.
    """
    segs = [(lo, hi) for lo, hi in segments if hi > lo]
    if len(segs) <= 1:
        return segs
    segs.sort()
    merged: List[Tuple[float, float]] = []
    cur_lo, cur_hi = segs[0]
    for lo, hi in segs[1:]:
        if lo > cur_hi:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    merged.append((cur_lo, cur_hi))
    return merged


@dataclass(frozen=True)
class AngularInterval:
    """A closed arc ``[start, start + width]`` on the circle (radians).

    ``width`` is clamped to ``[0, 2*pi]``; a width of ``2*pi`` denotes the
    full circle.  ``start`` is normalized to ``[0, 2*pi)``.
    """

    start: float
    width: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or not math.isfinite(self.width):
            raise ValueError("AngularInterval requires finite start and width")
        if self.width < 0.0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        object.__setattr__(self, "start", normalize_angle(self.start))
        object.__setattr__(self, "width", min(self.width, TWO_PI))

    @classmethod
    def around(cls, center: float, half_width: float) -> "AngularInterval":
        """Arc of total width ``2*half_width`` centered on *center*.

        This is the shape contributed by one photo to one PoI's aspect
        coverage: the viewing direction plus/minus the effective angle.
        """
        if half_width < 0.0:
            raise ValueError(f"half_width must be non-negative, got {half_width}")
        return cls(center - half_width, 2.0 * half_width)

    @property
    def is_full(self) -> bool:
        return self.width >= TWO_PI

    @property
    def is_empty(self) -> bool:
        return self.width == 0.0

    def contains(self, angle: float) -> bool:
        """Whether *angle* lies on the (closed) arc."""
        if self.is_full:
            return True
        offset = normalize_angle(angle) - self.start
        if offset < 0.0:
            offset += TWO_PI
        return offset <= self.width

    def as_segments(self) -> List[Tuple[float, float]]:
        """The arc as 1 or 2 non-wrapping ``(lo, hi)`` segments in ``[0, 2*pi]``."""
        if self.is_full:
            return [(0.0, TWO_PI)]
        hi = self.start + self.width
        if hi <= TWO_PI:
            return [(self.start, hi)]
        return [(self.start, TWO_PI), (0.0, hi - TWO_PI)]


class ArcSet:
    """A measurable union of arcs on the circle.

    The set is stored as sorted, disjoint, non-wrapping segments in
    ``[0, 2*pi]``; a segment touching both 0 and ``2*pi`` is kept split,
    which keeps every operation a plain interval sweep.  All mutating
    operations return a new :class:`ArcSet`; instances are immutable from the
    caller's perspective (``add`` mutates in place and is the single
    exception, used by the hot selection loop).
    """

    __slots__ = ("_segments",)

    def __init__(self, intervals: Iterable[AngularInterval] = ()) -> None:
        self._segments: List[Tuple[float, float]] = []
        for interval in intervals:
            self.add(interval)

    @classmethod
    def _from_segments(cls, segments: Sequence[Tuple[float, float]]) -> "ArcSet":
        out = cls()
        out._segments = list(segments)
        return out

    @classmethod
    def from_segments(cls, segments: Iterable[Tuple[float, float]]) -> "ArcSet":
        """Build a set from a batch of non-wrapping ``(lo, hi)`` segments.

        Segments must already lie within ``[0, 2*pi]`` with ``lo <= hi``
        (the :meth:`AngularInterval.as_segments` contract); they need not
        be sorted or disjoint.  One :func:`merge_segments` sweep replaces
        n incremental :meth:`add_segment` merges.
        """
        return cls._from_segments(merge_segments(segments))

    def copy(self) -> "ArcSet":
        return ArcSet._from_segments(self._segments)

    def add(self, interval: AngularInterval) -> None:
        """Union *interval* into this set, in place.

        Runs in O(n) on the number of stored segments; the selection loop
        relies on this being cheap for the typical case of a handful of arcs.
        """
        if interval.is_empty:
            return
        for lo, hi in interval.as_segments():
            self._merge_segment(lo, hi)

    def _merge_segment(self, lo: float, hi: float) -> None:
        merged: List[Tuple[float, float]] = []
        inserted = False
        for seg_lo, seg_hi in self._segments:
            if seg_hi < lo or seg_lo > hi:
                if seg_lo > hi and not inserted:
                    merged.append((lo, hi))
                    inserted = True
                merged.append((seg_lo, seg_hi))
            else:
                lo = min(lo, seg_lo)
                hi = max(hi, seg_hi)
        if not inserted:
            merged.append((lo, hi))
            merged.sort()
        self._segments = merged

    def add_segment(self, lo: float, hi: float) -> None:
        """Union a single non-wrapping ``[lo, hi]`` segment in place.

        ``lo``/``hi`` must already be within ``[0, 2*pi]`` with
        ``lo <= hi`` -- the precomputed-incidence fast path of the
        selection algorithm guarantees this.
        """
        if hi > lo:
            self._merge_segment(lo, hi)

    def union(self, other: "ArcSet") -> "ArcSet":
        out = self.copy()
        for seg_lo, seg_hi in other._segments:
            out._merge_segment(seg_lo, seg_hi)
        return out

    def measure(self) -> float:
        """Total angular measure of the set, in radians (``<= 2*pi``)."""
        total = sum(hi - lo for lo, hi in self._segments)
        return min(total, TWO_PI)

    def gain_of(self, interval: AngularInterval) -> float:
        """Measure added by unioning *interval*, without mutating the set.

        This is the inner-loop primitive of greedy selection: the marginal
        aspect-coverage contribution of one photo against the arcs already
        covered.
        """
        if interval.is_empty:
            return 0.0
        gain = 0.0
        for lo, hi in interval.as_segments():
            gain += self._segment_gain(lo, hi)
        return gain

    def _segment_gain(self, lo: float, hi: float) -> float:
        covered = 0.0
        for seg_lo, seg_hi in self._segments:
            overlap_lo = max(lo, seg_lo)
            overlap_hi = min(hi, seg_hi)
            if overlap_hi > overlap_lo:
                covered += overlap_hi - overlap_lo
        return (hi - lo) - covered

    def contains(self, angle: float, tolerance: float = 1e-12) -> bool:
        """Whether *angle* is inside the set (closed, with *tolerance*)."""
        value = normalize_angle(angle)
        for seg_lo, seg_hi in self._segments:
            if seg_lo - tolerance <= value <= seg_hi + tolerance:
                return True
        # An angle of exactly 0 may be covered only via the 2*pi end.
        if value < tolerance:
            for seg_lo, seg_hi in self._segments:
                if seg_hi >= TWO_PI - tolerance:
                    return True
        return False

    def segments(self) -> Iterator[Tuple[float, float]]:
        """Iterate the canonical ``(lo, hi)`` segments (sorted, disjoint)."""
        return iter(list(self._segments))

    def segments_list(self) -> List[Tuple[float, float]]:
        """The internal segment list itself (hot paths; do not mutate)."""
        return self._segments

    @property
    def is_empty(self) -> bool:
        return not self._segments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArcSet):
            return NotImplemented
        if len(self._segments) != len(other._segments):
            return False
        return all(
            math.isclose(a[0], b[0], abs_tol=1e-12)
            and math.isclose(a[1], b[1], abs_tol=1e-12)
            for a, b in zip(self._segments, other._segments)
        )

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("ArcSet is mutable and unhashable")

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo:.4f}, {hi:.4f}]" for lo, hi in self._segments)
        return f"ArcSet({parts})"

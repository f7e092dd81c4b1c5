"""Planar geometry for photo coverage sectors.

A photo's coverage area (Fig. 1(a) of the paper) is a circular sector:
apex at the camera location ``l``, radius equal to the coverage range ``r``,
angular width equal to the field-of-view ``phi``, bisected by the camera
orientation ``d``.  A PoI is *point-covered* by a photo iff it lies inside
that sector, and the *viewing direction* used for aspect coverage is the
vector from the PoI back to the camera.

All angles are radians following the paper's convention (0 = east,
increasing clockwise -- though every predicate here is handedness-neutral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angular import angle_difference, normalize_angle

__all__ = [
    "Point",
    "distance",
    "bearing",
    "Sector",
    "coverage_range_from_fov",
]


@dataclass(frozen=True, order=True)
class Point:
    """A location in the simulation plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point") -> float:
        """Angle of the vector from self to other, normalized to [0, 2*pi).

        Uses the paper's clockwise-from-east convention: east is 0 and the
        angle grows clockwise (i.e. toward negative mathematical y).
        """
        return normalize_angle(math.atan2(-(other.y - self.y), other.x - self.x))


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points, in meters."""
    return a.distance_to(b)


def bearing(origin: Point, target: Point) -> float:
    """Clockwise-from-east bearing of *target* as seen from *origin*."""
    return origin.bearing_to(target)


@dataclass(frozen=True)
class Sector:
    """A circular sector: the coverage area of one photo.

    Attributes
    ----------
    apex:
        Camera location ``l``.
    radius:
        Coverage range ``r`` in meters.
    direction:
        Camera orientation ``d`` (bisector of the sector), radians.
    angular_width:
        Field of view ``phi``, radians; the sector spans
        ``direction +/- angular_width / 2``.
    """

    apex: Point
    radius: float
    direction: float
    angular_width: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"Sector radius must be non-negative, got {self.radius}")
        if not 0.0 <= self.angular_width <= 2.0 * math.pi + 1e-12:
            raise ValueError(
                f"Sector angular width must be within [0, 2*pi], got {self.angular_width}"
            )
        object.__setattr__(self, "direction", normalize_angle(self.direction))

    def contains(self, point: Point) -> bool:
        """Whether *point* is inside the sector (boundary inclusive).

        The apex itself is always covered (the camera sees its own
        position regardless of orientation).
        """
        separation = self.apex.distance_to(point)
        if separation > self.radius:
            return False
        if separation == 0.0:
            return True
        toward_point = self.apex.bearing_to(point)
        return angle_difference(toward_point, self.direction) <= self.angular_width / 2.0 + 1e-12

    def viewing_direction_of(self, point: Point) -> float:
        """The vector from *point* back to the camera (``x -> l`` in the paper).

        Raises ``ValueError`` for the degenerate case where the PoI coincides
        with the camera location, because no viewing direction exists.
        """
        if self.apex.distance_to(point) == 0.0:
            raise ValueError("viewing direction undefined: point coincides with camera")
        return point.bearing_to(self.apex)

    def area(self) -> float:
        """Sector area in square meters (useful for workload sanity checks)."""
        return 0.5 * self.radius * self.radius * self.angular_width


def coverage_range_from_fov(fov: float, scale: float = 50.0) -> float:
    """Coverage range from field-of-view: ``r = scale * cot(fov / 2)``.

    The paper (Section IV-A) argues ``r`` is proportional to focal length
    and focal length is proportional to ``cot(phi/2)``; the proportionality
    constant *scale* (``c`` in the paper) defaults to the 50 m the authors
    chose for building-sized targets.  For phi in [30deg, 60deg] this yields
    r in roughly [87 m, 187 m] at c = 50.
    """
    if not 0.0 < fov < math.pi:
        raise ValueError(f"field-of-view must be in (0, pi), got {fov}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scale / math.tan(fov / 2.0)

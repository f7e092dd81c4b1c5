"""Photo metadata and the photo object itself.

Section II-A: a photo ``f`` is characterized by the tuple ``(l, r, phi, d)``
-- camera location, coverage range, field-of-view, and orientation.  The
metadata is a few floats, so it is cheap to transmit, store and analyze;
everything the selection algorithm does operates on metadata only, never on
pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import Point, Sector

__all__ = ["PhotoMetadata", "Photo", "DEFAULT_PHOTO_SIZE_BYTES"]

#: Table I: every simulated photo is 4 MB.
DEFAULT_PHOTO_SIZE_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class PhotoMetadata:
    """The geometric metadata ``(l, r, phi, d)`` of one photo.

    Attributes
    ----------
    location:
        ``l`` -- where the photo was taken.
    coverage_range:
        ``r`` -- meters beyond which objects are unrecognizable.
    field_of_view:
        ``phi`` -- angular width of the camera view, radians.
    orientation:
        ``d`` -- camera pointing direction, radians, clockwise from east.
    """

    location: Point
    coverage_range: float
    field_of_view: float
    orientation: float

    def __post_init__(self) -> None:
        if self.coverage_range < 0.0:
            raise ValueError(f"coverage_range must be non-negative, got {self.coverage_range}")
        if not 0.0 < self.field_of_view < math.pi:
            raise ValueError(f"field_of_view must be in (0, pi), got {self.field_of_view}")

    def sector(self) -> Sector:
        """The coverage area of the photo as a geometric sector."""
        return Sector(
            apex=self.location,
            radius=self.coverage_range,
            direction=self.orientation,
            angular_width=self.field_of_view,
        )

    def covers(self, point: Point) -> bool:
        """Point-coverage predicate: is *point* inside the coverage area?"""
        return self.sector().contains(point)

    def viewing_direction_of(self, point: Point) -> float:
        """Direction from *point* to the camera, for aspect coverage."""
        return self.sector().viewing_direction_of(point)


@dataclass(frozen=True)
class Photo:
    """A crowdsourced photo: metadata plus bookkeeping attributes.

    The pixel payload is never simulated; only ``size_bytes`` matters for
    the storage and bandwidth constraints.  Collections are sets of
    ``photo_id``: whatever makes the photo assigns it, so a run's ids
    depend only on its inputs.  :class:`~repro.workload.photos.PhotoGenerator`
    numbers its photos from 0 in draw order, the Fig. 3 demo numbers its
    photos by dealing position, and a service client sends the id on the
    wire.

    ``features`` optionally carries an application feature vector (the
    PhotoNet baseline uses a color-histogram surrogate).
    """

    metadata: PhotoMetadata
    photo_id: int
    size_bytes: int = DEFAULT_PHOTO_SIZE_BYTES
    taken_at: float = 0.0
    owner_id: Optional[int] = None
    features: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")

    @property
    def location(self) -> Point:
        return self.metadata.location

    def covers(self, point: Point) -> bool:
        return self.metadata.covers(point)

    def __hash__(self) -> int:
        return hash(self.photo_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Photo):
            return NotImplemented
        return self.photo_id == other.photo_id

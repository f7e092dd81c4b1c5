#!/usr/bin/env python
"""Quickstart: the photo coverage model and selection algorithm in 5 minutes.

Builds a tiny crowdsourcing scene by hand -- one PoI, a handful of photos
taken from different aspects -- and walks through the library's layers:

1. photo metadata and coverage geometry,
2. point / aspect / lexicographic photo coverage,
3. expected coverage under uncertain delivery (Definition 2),
4. the greedy reallocation two nodes run when they meet.

Run:  python examples/quickstart.py
"""

import math

from repro.core import (
    CoverageIndex,
    Photo,
    PhotoMetadata,
    Point,
    PoI,
    PoIList,
    StorageSpec,
    build_node_profile,
    expected_coverage,
    greedy_reallocate,
)

MB = 1024 * 1024


def photo_of(target: Point, aspect_deg: float, photo_id: int, distance: float = 60.0) -> Photo:
    """A 4 MB photo of *target* taken from the given aspect angle."""
    aspect = math.radians(aspect_deg)
    camera = Point(
        target.x + distance * math.cos(aspect),
        target.y - distance * math.sin(aspect),
    )
    return Photo(
        metadata=PhotoMetadata(
            location=camera,
            coverage_range=120.0,
            field_of_view=math.radians(45.0),
            orientation=camera.bearing_to(target),
        ),
        photo_id=photo_id,
        size_bytes=4 * MB,
    )


def main() -> None:
    # 1. The command center cares about one building.
    building = Point(0.0, 0.0)
    pois = PoIList([PoI(location=building)])
    index = CoverageIndex(pois, effective_angle=math.radians(30.0))

    # 2. Photos from the north, east, and two nearly identical south shots.
    photos = {
        "east": photo_of(building, 0.0, photo_id=0),
        "north": photo_of(building, 270.0, photo_id=1),
        "south-1": photo_of(building, 90.0, photo_id=2),
        "south-2": photo_of(building, 95.0, photo_id=3),  # nearly redundant with south-1
    }
    for name, photo in photos.items():
        value = index.collection_coverage([photo])
        print(f"photo {name:8s}: point={value.point:.0f}  aspect={value.aspect_degrees:.0f} deg")

    everything = index.collection_coverage(list(photos.values()))
    print(f"\nall four together: point={everything.point:.0f} "
          f"aspect={everything.aspect_degrees:.0f} deg "
          f"(south-2 adds only ~5 deg -- the arcs overlap)")

    # 3. Expected coverage: the same photos, held by an unreliable courier.
    courier = build_node_profile(index, node_id=1, photos=list(photos.values()),
                                 delivery_probability=0.4)
    print(f"\nexpected coverage at p=0.4: "
          f"{expected_coverage(index, [courier]).aspect_degrees:.0f} deg "
          f"(40% of the deterministic value)")

    # 4. Two nodes meet.  Node A (often near the command center, p=0.9,
    #    room for 2 photos) and node B (p=0.2, room for 2).  The greedy
    #    reallocation sends diverse aspects to A and skips the duplicate.
    result = greedy_reallocate(
        index,
        photos_a=[photos["south-1"], photos["south-2"]],
        photos_b=[photos["east"], photos["north"]],
        storage_a=StorageSpec(node_id=1, capacity_bytes=2 * 4 * MB, delivery_probability=0.9),
        storage_b=StorageSpec(node_id=2, capacity_bytes=2 * 4 * MB, delivery_probability=0.2),
    )
    names = {photo.photo_id: name for name, photo in photos.items()}
    print("\nafter the contact:")
    print(f"  node 1 (p=0.9) keeps: {[names[p.photo_id] for p in result.selection_for(1).photos]}")
    print(f"  node 2 (p=0.2) keeps: {[names[p.photo_id] for p in result.selection_for(2).photos]}")
    print("\nnode 1 carries the most diverse pair; the near-duplicate south "
          "shot is demoted -- that is the coverage-overlap awareness the "
          "paper adds over utility-based routing.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Weighted PoIs and important aspects: the Section II-C extensions.

Two extensions the paper sketches in its discussion:

1. a PoI can carry a weight ``w`` (a hospital matters more than a shed) --
   photos covering it earn ``w`` point coverage instead of 1;
2. a PoI can restrict which aspects matter (only the main entrance of a
   building) -- aspect coverage is measured inside those arcs only.

This script shows both changing the outcome of the same greedy selection.

Run:  python examples/weighted_targets.py
"""

import math

from repro.core import (
    AngularInterval,
    ArcSet,
    CoverageIndex,
    Photo,
    PhotoMetadata,
    Point,
    PoI,
    PoIList,
    StorageSpec,
    greedy_select,
)

MB = 1024 * 1024


def photo_of(target: Point, aspect_deg: float, photo_id: int) -> Photo:
    aspect = math.radians(aspect_deg)
    camera = Point(target.x + 60.0 * math.cos(aspect), target.y - 60.0 * math.sin(aspect))
    return Photo(
        metadata=PhotoMetadata(camera, 120.0, math.radians(45.0), camera.bearing_to(target)),
        photo_id=photo_id,
        size_bytes=4 * MB,
    )


def select_one(index: CoverageIndex, photos) -> Photo:
    selection = greedy_select(
        index, photos, StorageSpec(node_id=1, capacity_bytes=4 * MB, delivery_probability=1.0), []
    )
    return selection.photos[0]


def main() -> None:
    shed = Point(0.0, 0.0)
    hospital = Point(500.0, 0.0)
    shed_photo = photo_of(shed, 0.0, photo_id=0)
    hospital_photo = photo_of(hospital, 0.0, photo_id=1)

    # --- 1. Weights ----------------------------------------------------
    equal = CoverageIndex(PoIList([PoI(location=shed), PoI(location=hospital)]),
                          effective_angle=math.radians(30.0))
    weighted = CoverageIndex(
        PoIList([PoI(location=shed, weight=1.0), PoI(location=hospital, weight=5.0)]),
        effective_angle=math.radians(30.0),
    )
    # With equal weights the tie breaks by photo id (the shed photo's is
    # lower); with the hospital weighted 5x, its photo wins the one slot.
    first_equal = select_one(equal, [shed_photo, hospital_photo])
    first_weighted = select_one(weighted, [shed_photo, hospital_photo])
    print("one storage slot, two candidate photos:")
    print(f"  equal weights   -> {'shed' if first_equal is shed_photo else 'hospital'} photo")
    print(f"  hospital w=5    -> {'shed' if first_weighted is shed_photo else 'hospital'} photo")

    # --- 2. Important aspects -------------------------------------------
    # Only the entrance side (aspects within 30 deg of east) matters.
    entrance_arcs = ArcSet([AngularInterval.around(0.0, math.radians(30.0))])
    entrance_only = CoverageIndex(
        PoIList([PoI(location=shed, important_aspects=entrance_arcs)]),
        effective_angle=math.radians(30.0),
    )
    east_view = photo_of(shed, 0.0, photo_id=2)     # sees the entrance
    back_view = photo_of(shed, 180.0, photo_id=3)   # sees the back wall
    east_value = entrance_only.collection_coverage([east_view])
    back_value = entrance_only.collection_coverage([back_view])
    print("\nentrance-only PoI (aspects within 30 deg of east count):")
    print(f"  east-view photo : {east_value.aspect_degrees:.0f} deg of useful aspect")
    print(f"  back-view photo : {back_value.aspect_degrees:.0f} deg of useful aspect")

    choice = select_one(entrance_only, [back_view, east_view])
    print(f"  greedy selection picks the {'east' if choice is east_view else 'back'} view")


if __name__ == "__main__":
    main()

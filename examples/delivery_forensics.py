#!/usr/bin/env python
"""Delivery forensics: tracing *why* a photo did or didn't reach the center.

Wraps the paper's scheme with the structured event log and replays a small
scenario, then reconstructs per-photo stories: the relay path of delivered
photos, and the fate (dropped where? stuck where?) of the rest.  This is
the debugging workflow the event log exists for.

Run:  python examples/delivery_forensics.py
"""

import math

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.dtn.tracelog import attach_logging
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

MB = 1024 * 1024


def photo_of(target: Point, aspect_deg: float, photo_id: int, taken_at: float):
    from repro.core.metadata import Photo, PhotoMetadata

    aspect = math.radians(aspect_deg)
    camera = Point(target.x + 60.0 * math.cos(aspect), target.y - 60.0 * math.sin(aspect))
    return Photo(
        metadata=PhotoMetadata(camera, 120.0, math.radians(45.0), camera.bearing_to(target)),
        photo_id=photo_id,
        taken_at=taken_at,
    )


def main() -> None:
    target = Point(0.0, 0.0)

    # A little relay topology: 1 -- 2 -- 3, and only 3 meets the center.
    contacts = [
        ContactRecord(1000.0, 1, 2, 300.0),
        ContactRecord(2000.0, 2, 3, 300.0),
        ContactRecord(3000.0, 0, 3, 300.0),
        ContactRecord(4000.0, 1, 2, 300.0),
    ]
    photos = {
        "east-view": photo_of(target, 0.0, photo_id=0, taken_at=0.0),
        "north-view": photo_of(target, 270.0, photo_id=1, taken_at=0.0),
        "late-photo": photo_of(target, 90.0, photo_id=2, taken_at=3500.0),  # after the uplink
        "junk": photo_of(Point(9000.0, 9000.0), 0.0, photo_id=3, taken_at=0.0),
    }
    arrivals = [
        PhotoArrival(photos["east-view"].taken_at, 1, photos["east-view"]),
        PhotoArrival(photos["north-view"].taken_at, 1, photos["north-view"]),
        PhotoArrival(photos["late-photo"].taken_at, 1, photos["late-photo"]),
        PhotoArrival(photos["junk"].taken_at, 1, photos["junk"]),
    ]

    scheme, log = attach_logging(CoverageSelectionScheme())
    simulation = Simulation(
        trace=ContactTrace(contacts),
        pois=PoIList([PoI(location=target)]),
        photo_arrivals=arrivals,
        scheme=scheme,
        config=SimulationConfig(unlimited_contacts=True, sample_interval_s=3600.0),
    )
    result = simulation.run()
    print(f"delivered {result.delivered_photos} of {result.created_photos} photos; "
          f"{len(log)} events logged\n")

    delivered_ids = {p.photo_id for p in simulation.command_center.photos()}
    for name, photo in photos.items():
        print(f"photo {name!r} (id {photo.photo_id}):")
        path = log.delivery_path(photo.photo_id)
        if photo.photo_id in delivered_ids:
            print(f"  DELIVERED via nodes {path}")
        elif path:
            print(f"  not delivered; last seen gaining at nodes {path}")
        else:
            print("  never left its source")
        for entry in log.transfers_of(photo.photo_id):
            moved = {n: ids for n, ids in entry.gained.items() if photo.photo_id in ids}
            dropped = {n: ids for n, ids in entry.lost.items() if photo.photo_id in ids}
            delivered = photo.photo_id in entry.delivered
            detail = []
            if moved:
                detail.append(f"gained at {sorted(moved)}")
            if dropped:
                detail.append(f"dropped at {sorted(dropped)}")
            if delivered:
                detail.append("delivered")
            print(f"    t={entry.time:6.0f}s {entry.kind:13s} {', '.join(detail)}")
        print()

    print("morals: the junk photo is pruned at the first contact; the late "
          "photo misses the only uplink and waits at node 2.")


if __name__ == "__main__":
    main()

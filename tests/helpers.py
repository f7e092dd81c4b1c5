"""Shared builders for the test suite (fixtures live in conftest)."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math

import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoI, PoIList
from repro.dtn.faults import FaultPlan
from repro.dtn.storage import NodeStorage

MB = 1024 * 1024

#: Skips a case that needs numpy; the core suites also run without it.
needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)

#: Ids for hand-built photos: distinct across the suite, so photos from
#: different builders never collide in one collection.
_hand_built_ids = itertools.count()


def next_photo_id() -> int:
    """A photo id no other hand-built test photo has."""
    return next(_hand_built_ids)


def make_photo(
    x: float,
    y: float,
    orientation_deg: float,
    fov_deg: float = 60.0,
    coverage_range: float = 100.0,
    size_bytes: int = 4 * MB,
    taken_at: float = 0.0,
    owner_id: int = None,
    photo_id: int = None,
) -> Photo:
    """A photo at (x, y) pointing *orientation_deg* clockwise from east."""
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=coverage_range,
            field_of_view=math.radians(fov_deg),
            orientation=math.radians(orientation_deg),
        ),
        photo_id=next_photo_id() if photo_id is None else photo_id,
        size_bytes=size_bytes,
        taken_at=taken_at,
        owner_id=owner_id,
    )


def photo_at_aspect(
    poi: Point,
    aspect_deg: float,
    distance: float = 50.0,
    fov_deg: float = 60.0,
    coverage_range: float = 100.0,
    size_bytes: int = 4 * MB,
    photo_id: int = None,
) -> Photo:
    """A photo viewing *poi* from the given aspect (degrees, clockwise from
    east): the camera stands on that side of the PoI and faces it."""
    aspect = math.radians(aspect_deg)
    # Aspect angles are clockwise-from-east; planar y runs the other way.
    camera = Point(poi.x + distance * math.cos(aspect), poi.y - distance * math.sin(aspect))
    orientation = camera.bearing_to(poi)
    return Photo(
        metadata=PhotoMetadata(
            location=camera,
            coverage_range=coverage_range,
            field_of_view=math.radians(fov_deg),
            orientation=orientation,
        ),
        photo_id=next_photo_id() if photo_id is None else photo_id,
        size_bytes=size_bytes,
    )


def storages(holdings, capacities=None):
    """Node id -> a :class:`NodeStorage` holding that node's photos, in order.

    *capacities* maps node ids to byte capacities; a node it leaves out
    gets unlimited storage.
    """
    stores = {}
    for node_id, photos in holdings.items():
        store = NodeStorage((capacities or {}).get(node_id))
        for photo in photos:
            store.add(photo)
        stores[node_id] = store
    return stores


@pytest.fixture
def single_poi() -> PoIList:
    return PoIList([PoI(location=Point(0.0, 0.0))])


@pytest.fixture
def single_poi_index(single_poi) -> CoverageIndex:
    return CoverageIndex(single_poi, effective_angle=math.radians(30.0))


@pytest.fixture
def three_pois() -> PoIList:
    return PoIList(
        [
            PoI(location=Point(0.0, 0.0)),
            PoI(location=Point(500.0, 0.0)),
            PoI(location=Point(0.0, 500.0)),
        ]
    )


@pytest.fixture
def three_poi_index(three_pois) -> CoverageIndex:
    return CoverageIndex(three_pois, effective_angle=math.radians(30.0))


def result_digest(result) -> str:
    """sha256 over everything a :class:`SimulationResult` records."""
    payload = {
        "scheme": result.scheme,
        "samples": [
            [s.time, s.point_coverage, s.aspect_coverage_deg, s.delivered_photos]
            for s in result.samples
        ],
        "final": [result.final_coverage.point, result.final_coverage.aspect],
        "delivered": result.delivered_photos,
        "created": result.created_photos,
        "contacts": result.contacts_processed,
        "center_contacts": result.center_contacts,
        "latencies": result.delivery_latencies_s,
        "faults": result.fault_counters.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


#: A fault plan that exercises every recovery path selection depends on:
#: truncated contacts, node crashes with partial storage loss, and
#: corrupted (shrunk, aged) metadata snapshots.
DISRUPTION_PLAN = FaultPlan(
    seed=11,
    truncation_probability=0.4,
    crash_rate_per_node_hour=0.05,
    mean_downtime_s=1800.0,
    storage_loss_fraction=0.5,
    metadata_corruption_probability=0.3,
    metadata_aging_s=20_000.0,
)

#: Transfer drops and truncations: a corrupted photo still spends its
#: bytes on every scheme's transfer path.
LOSSY_PLAN = FaultPlan(seed=7, transfer_drop_probability=0.3, truncation_probability=0.5)


def full_scan_spray(scheme, sender, receiver, budget, used):
    """The spray-family loop without its early exit: every candidate of
    the sender's storage is offered, whatever the receiver refused before.
    An oracle for ``SprayAndWaitScheme._spray``, which must match it."""
    sender_copies = scheme._copies(sender)
    receiver_copies = scheme._copies(receiver)
    for photo in scheme.transmit_order(sender):
        copies = sender_copies.get(photo.photo_id, 1)
        if copies <= 1 or photo.photo_id in receiver.storage:
            continue
        if budget is not None and used + photo.size_bytes > budget:
            break
        if not scheme.sim.transfer_survives(photo):
            used += photo.size_bytes
            continue
        if not scheme.accept(receiver, photo):
            continue
        used += photo.size_bytes
        handed = copies // 2
        sender_copies[photo.photo_id] = copies - handed
        receiver_copies[photo.photo_id] = handed
    return used


def full_scan(scheme_cls):
    """*scheme_cls* with :func:`full_scan_spray` as its spray loop."""
    return type(f"FullScan{scheme_cls.__name__}", (scheme_cls,), {"_spray": full_scan_spray})


def build_scenario(scale: float, fault_plan=None):
    """The Table-I scenario at *scale*, seed 0, under *fault_plan*."""
    # Imported here: repro.experiments needs numpy, and every other helper
    # must stay importable by the core suites on a numpy-free interpreter.
    from repro.experiments.config import ScenarioSpec

    scenario = ScenarioSpec(scale=scale, seed=0).build()
    config = dataclasses.replace(scenario.config, fault_plan=fault_plan)
    return dataclasses.replace(scenario, config=config)

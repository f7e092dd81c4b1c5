"""Shared builders for the test suite (fixtures live in conftest)."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import pytest

from repro.core import metadata as metadata_module
from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoI, PoIList
from repro.dtn.faults import FaultPlan
from repro.dtn.storage import NodeStorage

MB = 1024 * 1024


def make_photo(
    x: float,
    y: float,
    orientation_deg: float,
    fov_deg: float = 60.0,
    coverage_range: float = 100.0,
    size_bytes: int = 4 * MB,
    taken_at: float = 0.0,
    owner_id: int = None,
) -> Photo:
    """A photo at (x, y) pointing *orientation_deg* clockwise from east."""
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=coverage_range,
            field_of_view=math.radians(fov_deg),
            orientation=math.radians(orientation_deg),
        ),
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


def build_scenario(monkeypatch, scale: float, fault_plan=None):
    """The Table-I scenario at *scale*, seed 0, under *fault_plan*.

    Photo ids restart at 0 first: they come from a process-wide counter,
    and PhotoNet's pseudo-colour hashes the id, so a run's result would
    otherwise depend on how many photos earlier tests created.
    """
    # Imported here: repro.experiments needs numpy, and every other helper
    # must stay importable by the core suites on a numpy-free interpreter.
    from repro.experiments.config import ScenarioSpec

    monkeypatch.setattr(metadata_module, "_photo_ids", itertools.count())
    scenario = ScenarioSpec(scale=scale, seed=0).build()
    config = dataclasses.replace(scenario.config, fault_plan=fault_plan)
    return dataclasses.replace(scenario, config=config)

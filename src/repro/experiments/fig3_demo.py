"""Figs. 2-4: the prototype demonstration, reconstructed synthetically.

The paper's demo: 9 nodes from the MIT Reality trace (8 participants plus
one command center), 40 photos of a single target (a church) split 5 per
participant, storage limited to 5 photos per device and 3 photo transfers
per contact, effective angle 40 degrees.  The last 48 contacts drive the
exchange; all earlier contacts train the delivery probabilities.

Here the trace is a 9-node synthetic slice and the 40 photos are placed
on a jittered ring around the target, aimed at it -- the same metadata
geometry as Fig. 2(b).  The headline result to reproduce in shape
(paper values: ours 6 photos covering 346 degrees; PhotoNet 12 photos /
160 degrees; Spray&Wait 12 photos / 171 degrees):

* our scheme delivers *fewer* photos than either baseline, and
* those photos cover *more* aspects of the target than either baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..core.geometry import Point
from ..core.metadata import DEFAULT_PHOTO_SIZE_BYTES, Photo, PhotoMetadata
from ..core.poi import PoI, PoIList
from ..dtn.simulator import Simulation, SimulationConfig
from ..routing.coverage_scheme import CoverageSelectionScheme
from ..routing.photonet import PhotoNetScheme
from ..routing.spray_and_wait import SprayAndWaitScheme
from ..traces.model import ContactTrace
from ..traces.synthetic import SyntheticTraceSpec, generate_trace
from ..workload.photos import PhotoArrival
from ..workload.pois import ring_viewpoints
from .report import format_table

import numpy as np

__all__ = ["DemoOutcome", "build_demo_trace", "build_demo_photos", "run", "report"]

#: Demo constraints from Section IV-B.
PHOTOS_PER_PARTICIPANT = 5
STORAGE_PHOTOS = 5
TRANSFERS_PER_CONTACT = 3
EFFECTIVE_ANGLE_DEG = 40.0
ACTIVE_CONTACTS = 48


@dataclass
class DemoOutcome:
    """Per-scheme demo results."""

    scheme: str
    delivered_photos: int
    aspect_coverage_deg: float
    point_covered: bool


def build_demo_trace(seed: int = 0, warmup_hours: float = 120.0):
    """A 9-node trace: 8 participants plus the command center (node 0).

    The participant trace is synthetic; the command center -- "a rescuer
    carrying a satellite radio or a data mule" -- appears in exactly four
    contacts inside the active (last-48-contact) window, matching the
    paper's demo where 4 uplink contacts x 3 photos bound the baselines to
    12 delivered photos.  Earlier, sparser command-center contacts exist
    only to train the delivery probabilities.
    """
    spec = SyntheticTraceSpec(
        num_nodes=8,
        duration_hours=warmup_hours,
        num_communities=3,
        intra_rate_per_hour=0.5,
        inter_rate_per_hour=0.15,
        pair_connectivity=1.0,
        mean_duration_s=400.0,
        scan_interval_s=300.0,
    )
    participants = generate_trace(spec, seed=seed, name="demo-participants")
    horizon = warmup_hours * 3600.0
    active_start = participants.last_contacts(ACTIVE_CONTACTS).start_time
    rng = np.random.default_rng(seed + 17)

    from ..traces.model import ContactRecord

    center_contacts = []
    # Warmup uplinks: one every ~4 hours, random gateway participant.
    time = rng.exponential(4.0 * 3600.0)
    while time < active_start - 3600.0:
        peer = int(rng.integers(1, 9))
        center_contacts.append(ContactRecord(time, 0, peer, 600.0))
        time += rng.exponential(4.0 * 3600.0)
    # Exactly four uplinks, evenly spread across the active window.
    window = max(horizon - active_start, 4.0)
    for k in range(4):
        uplink_time = active_start + (k + 0.5) * window / 4.0
        peer = int(rng.integers(1, 9))
        center_contacts.append(ContactRecord(uplink_time, 0, peer, 600.0))
    uplinks = ContactTrace(center_contacts, name="demo-uplinks")
    merged = participants.merged_with(uplinks, name="demo-9-nodes")
    # Photos must exist before the active window (and its four uplinks).
    photo_time = max(0.0, active_start - 1.0)
    return merged, photo_time


def build_demo_photos(
    target: Point,
    photo_time: float,
    seed: int = 0,
    on_target: int = 16,
    total: int = 40,
) -> List[PhotoArrival]:
    """40 photos, 5 per participant, mirroring Fig. 2(b)'s spatial layout.

    *on_target* photos sit on a jittered ring around the church and aim at
    it (each covering one aspect); the rest are scattered across the
    neighborhood with random orientations -- photos of streets, rubble,
    other buildings -- and mostly miss the target.  This mix is what lets
    the demo discriminate: content-blind or diversity-driven delivery
    wastes its 12-photo budget on the scattered shots.
    """
    if not 0 <= on_target <= total:
        raise ValueError(f"need 0 <= on_target <= total, got {on_target}/{total}")
    rng = np.random.default_rng(seed)
    viewpoints = ring_viewpoints(target, on_target, radius_m=90.0, jitter_m=25.0, seed=seed)
    metadata: List[PhotoMetadata] = []
    for i in range(total):
        fov = math.radians(rng.uniform(30.0, 60.0))
        coverage_range = rng.uniform(50.0, 100.0) / math.tan(fov / 2.0)
        if i < on_target:
            viewpoint = viewpoints[i]
            orientation = viewpoint.bearing_to(target) + rng.uniform(-fov / 4.0, fov / 4.0)
        else:
            viewpoint = Point(
                target.x + rng.uniform(-900.0, 900.0),
                target.y + rng.uniform(-900.0, 900.0),
            )
            orientation = rng.uniform(0.0, 2.0 * math.pi)
        metadata.append(PhotoMetadata(viewpoint, coverage_range, fov, orientation))
    # Shuffle and deal 5 photos per participant so ring shots are spread
    # across owners, as in the paper's assignment.  The id is the dealing
    # position.
    order = rng.permutation(total)
    dealt: List[PhotoArrival] = []
    for position, index in enumerate(order):
        owner = 1 + position % 8
        photo = Photo(
            metadata=metadata[int(index)],
            size_bytes=DEFAULT_PHOTO_SIZE_BYTES,
            taken_at=photo_time,
            owner_id=owner,
            photo_id=position,
        )
        dealt.append(PhotoArrival(time=photo_time, owner_id=owner, photo=photo))
    return dealt


def build_demo_photos_with_sensors(
    target: Point,
    photo_time: float,
    seed: int = 0,
) -> List[PhotoArrival]:
    """The demo workload captured through the Section IV-A sensor pipeline.

    Instead of assigning true metadata directly, every photo's metadata is
    *measured*: the GPS fix carries its 5-8 m error, the orientation comes
    from the accelerometer/magnetometer/gyroscope fusion (<= 5 degrees of
    error), and the coverage range follows r = c * cot(phi / 2).  Running
    the demo on these noisy tuples checks the paper's implicit claim that
    sensor-grade metadata is accurate enough for coverage-driven selection.
    Each captured photo keeps its ideal photo's id.
    """
    from ..sensors import CameraSpec, GpsSimulator, ImuSimulator, MetadataAcquisition

    ideal = build_demo_photos(target, photo_time, seed=seed)
    rng = np.random.default_rng(seed + 99)
    arrivals: List[PhotoArrival] = []
    for arrival in ideal:
        truth = arrival.photo.metadata
        acquisition = MetadataAcquisition(
            camera=CameraSpec(
                fov_deg=math.degrees(truth.field_of_view),
                range_scale_m=truth.coverage_range * math.tan(truth.field_of_view / 2.0),
            ),
            imu=ImuSimulator(seed=int(rng.integers(0, 2**31))),
            gps=GpsSimulator(cep_m=6.5, seed=int(rng.integers(0, 2**31))),
        )
        measured = acquisition.capture(
            true_location=truth.location,
            true_azimuth=truth.orientation,
            photo_id=arrival.photo.photo_id,
            taken_at=photo_time,
            owner_id=arrival.owner_id,
        )
        arrivals.append(PhotoArrival(time=photo_time, owner_id=arrival.owner_id, photo=measured))
    return arrivals


def run(seed: int = 0, use_sensor_pipeline: bool = False) -> Dict[str, DemoOutcome]:
    """Run the three-scheme demo; returns outcomes keyed by scheme name.

    With *use_sensor_pipeline* the photo metadata is acquired through the
    simulated smartphone sensors (GPS noise, IMU fusion) instead of being
    exact -- the full Section IV pipeline.
    """
    trace, photo_time = build_demo_trace(seed=seed)

    target = Point(3150.0, 3150.0)
    pois = PoIList([PoI(location=target)])
    if use_sensor_pipeline:
        arrivals = build_demo_photos_with_sensors(target, photo_time, seed=seed)
    else:
        arrivals = build_demo_photos(target, photo_time, seed=seed)

    config = SimulationConfig(
        storage_bytes=STORAGE_PHOTOS * DEFAULT_PHOTO_SIZE_BYTES,
        bandwidth_bytes_per_s=float(DEFAULT_PHOTO_SIZE_BYTES),
        contact_duration_cap_s=float(TRANSFERS_PER_CONTACT),
        effective_angle=math.radians(EFFECTIVE_ANGLE_DEG),
        sample_interval_s=3600.0,
    )

    schemes = {
        "our-scheme": lambda: CoverageSelectionScheme(use_metadata_cache=True),
        "photonet": lambda: PhotoNetScheme(),
        "spray-and-wait": lambda: SprayAndWaitScheme(initial_copies=4),
    }
    outcomes: Dict[str, DemoOutcome] = {}
    for name, factory in schemes.items():
        simulation = Simulation(
            trace=trace,
            pois=pois,
            photo_arrivals=arrivals,
            scheme=factory(),
            config=config,
            gateway_ids=[],
        )
        result = simulation.run()
        outcomes[name] = DemoOutcome(
            scheme=name,
            delivered_photos=result.delivered_photos,
            aspect_coverage_deg=result.final_coverage.aspect_degrees,
            point_covered=result.final_coverage.point >= 1.0,
        )
    return outcomes


def report(outcomes: Dict[str, DemoOutcome]) -> str:
    rows = [
        [o.scheme, str(o.delivered_photos), f"{o.aspect_coverage_deg:.0f}", str(o.point_covered)]
        for o in outcomes.values()
    ]
    table = format_table(["scheme", "delivered", "aspect-deg", "target-covered"], rows)
    return "Fig 3: prototype demo (1 target, 40 photos, 9 nodes)\n" + table

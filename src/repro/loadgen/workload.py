"""Turning arrivals into service requests.

:class:`SyntheticWorkload` turns each arrival into one wire-ready request
dict (``make_op(arrival, virtual_now, mix)``), drawing users and
contacts from a seeded ``random.Random`` stream and photos from
:class:`~repro.workload.photos.PhotoGenerator`, so their metadata follows
the paper's Table I distribution exactly as the simulator's does.  Burst
arrivals carry an incident epicenter; their photos keep the drawn
metadata but are moved to a Gaussian location around it, which is what
makes chaos-soak coverage climb locally the way event-reporting
crowdsourcing does.

Faithful replay of a scenario's event stream is ``repro replay``
(:func:`repro.service.client.replay_scenario`), not a load plan.

Virtual time: requests carry ``time`` stamps in *virtual seconds*
(wall offset x ``plan.time_scale``).  Concurrent workers can deliver
these slightly out of order, which is exactly what the server's
``clamp`` time policy absorbs.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict

from ..core.geometry import Point
from ..service.protocol import photo_to_wire
from ..workload.photos import PhotoGenerator, PhotoGeneratorSpec
from .arrivals import Arrival, Incident
from .plan import LoadPlan, StageMix, WorkloadSpec

__all__ = ["SyntheticWorkload", "make_workload"]


class SyntheticWorkload:
    """Seeded synthetic ops over a fixed user population.

    User ids run from 1 to ``spec.users`` -- id 0 is the command center
    and never originates traffic.
    """

    def __init__(self, spec: WorkloadSpec, seed: int, cluster_radius_m: float = 150.0) -> None:
        self.spec = spec
        self.rng = random.Random(f"{seed}:loadgen-workload")
        self.photos = PhotoGenerator(
            PhotoGeneratorSpec(
                region_width_m=spec.region_m,
                region_height_m=spec.region_m,
                photo_size_bytes=spec.photo_size_bytes,
            ),
            seed=seed,
        )
        self.cluster_radius_m = cluster_radius_m

    def _pick_user(self) -> int:
        return self.rng.randint(1, self.spec.users)

    def _near(self, incident: Incident) -> Point:
        """A Gaussian location around *incident*, clipped to the region."""
        region = self.spec.region_m
        sigma = self.cluster_radius_m
        x = min(max(self.rng.gauss(incident.x * region, sigma), 0.0), region)
        y = min(max(self.rng.gauss(incident.y * region, sigma), 0.0), region)
        return Point(x, y)

    def make_op(self, arrival: Arrival, virtual_now: float, mix: StageMix) -> Dict[str, Any]:
        """One wire-ready request dict."""
        ingest_w, contact_w, _ = mix.normalized()
        draw = self.rng.random()
        if draw < ingest_w or arrival.incident is not None:
            # Incident arrivals are always photo reports: bursts model
            # witnesses photographing the event.
            owner = self._pick_user()
            photo = self.photos.next_photo(taken_at=virtual_now, owner_id=owner)
            if arrival.incident is not None:
                location = self._near(arrival.incident)
                photo = replace(photo, metadata=replace(photo.metadata, location=location))
            return {
                "op": "ingest",
                "user": owner,
                "time": virtual_now,
                "photo": photo_to_wire(photo),
            }
        if draw < ingest_w + contact_w:
            a = self._pick_user()
            b = self._pick_user()
            while b == a:
                b = self._pick_user()
            return {
                "op": "contact",
                "a": a,
                "b": b,
                "time": virtual_now,
                "duration": self.spec.contact_duration_s,
            }
        return {
            "op": "select",
            "user": self._pick_user(),
            "time": virtual_now,
            "duration": self.spec.select_duration_s,
        }


def make_workload(plan: LoadPlan) -> SyntheticWorkload:
    """The op source for *plan*, clustering bursts as its first bursty stage asks."""
    radius = 150.0
    for stage in plan.stages:
        if stage.burst is not None:
            radius = stage.burst.cluster_radius_m
            break
    return SyntheticWorkload(plan.workload, plan.seed, cluster_radius_m=radius)

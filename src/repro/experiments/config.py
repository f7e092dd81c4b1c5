"""Table I settings and scenario construction.

:class:`TableISettings` is the verbatim parameter table of the paper;
:class:`ScenarioSpec` instantiates a runnable scenario from it -- trace,
PoI list, photo workload, gateway uplinks -- at either the paper's full
scale or a proportionally reduced *scale* for fast test/bench runs (node
count, duration, PoI count and photo rate all shrink together so resource
contention, which drives every result, is preserved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..core.poi import PoIList
from ..dtn.faults import FaultPlan
from ..dtn.simulator import GIGABYTE, SimulationConfig
from ..routing.prophet import ProphetParameters
from ..traces.model import ContactTrace
from ..traces.synthetic import (
    SyntheticTraceSpec,
    cambridge06_like,
    gateway_uplink_contacts,
    generate_trace,
    mit_reality_like,
)
from ..workload.photos import PhotoArrival, PhotoGenerator, PhotoGeneratorSpec, generate_photo_schedule
from ..workload.pois import random_pois

__all__ = ["TableISettings", "ScenarioSpec", "Scenario", "TRACE_MIT", "TRACE_CAMBRIDGE"]

TRACE_MIT = "mit"
TRACE_CAMBRIDGE = "cambridge"


@dataclass(frozen=True)
class TableISettings:
    """The simulation settings of Table I, verbatim."""

    photo_size_bytes: int = 4 * 1024 * 1024
    effective_angle_deg: float = 30.0
    fov_range_deg: Tuple[float, float] = (30.0, 60.0)
    range_scale_m: Tuple[float, float] = (50.0, 100.0)
    validity_threshold: float = 0.8
    prophet_p_init: float = 0.75
    prophet_beta: float = 0.25
    prophet_gamma: float = 0.98
    nodes_mit: int = 97
    nodes_cambridge: int = 54
    sim_hours_mit: float = 300.0
    sim_hours_cambridge: float = 200.0
    region_m: float = 6300.0
    num_pois: int = 250
    gateway_fraction: float = 0.02

    def effective_angle_rad(self) -> float:
        return math.radians(self.effective_angle_deg)

    def prophet_parameters(self) -> ProphetParameters:
        return ProphetParameters(
            p_init=self.prophet_p_init,
            beta=self.prophet_beta,
            gamma=self.prophet_gamma,
        )


@dataclass
class Scenario:
    """A fully materialized, runnable scenario."""

    trace: ContactTrace
    pois: PoIList
    photo_arrivals: List[PhotoArrival]
    gateway_ids: List[int]
    config: SimulationConfig
    end_time_s: float


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one experiment condition (one point on a paper figure).

    ``scale`` in (0, 1] shrinks node count, duration, PoIs and photo rate
    proportionally; 1.0 is the paper's full configuration.
    """

    trace_name: str = TRACE_MIT
    storage_gb: Optional[float] = 0.6
    photos_per_hour: float = 250.0
    contact_duration_cap_s: Optional[float] = None
    scale: float = 1.0
    seed: int = 0
    settings: TableISettings = field(default_factory=TableISettings)
    targeted_fraction: float = 0.0
    gateway_mean_interval_s: float = 7200.0
    gateway_mean_duration_s: float = 600.0
    #: Disaster-scenario fault intensity in [0, 1]; builds a scaled
    #: :class:`~repro.dtn.faults.FaultPlan` (0 = clean run).
    fault_intensity: float = 0.0

    def __post_init__(self) -> None:
        if self.trace_name not in (TRACE_MIT, TRACE_CAMBRIDGE):
            raise ValueError(f"unknown trace {self.trace_name!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.photos_per_hour < 0.0:
            raise ValueError(f"photos_per_hour must be non-negative, got {self.photos_per_hour}")
        if not 0.0 <= self.fault_intensity <= 1.0:
            raise ValueError(f"fault_intensity must be in [0, 1], got {self.fault_intensity}")

    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        base = (
            self.settings.nodes_mit
            if self.trace_name == TRACE_MIT
            else self.settings.nodes_cambridge
        )
        return max(6, int(round(base * self.scale)))

    def duration_hours(self) -> float:
        base = (
            self.settings.sim_hours_mit
            if self.trace_name == TRACE_MIT
            else self.settings.sim_hours_cambridge
        )
        return base * max(self.scale, 0.2)

    def num_pois(self) -> int:
        return max(10, int(round(self.settings.num_pois * self.scale)))

    def region_m(self) -> float:
        """Region edge, shrunk with scale so PoI density -- and therefore
        the probability that a random photo covers a PoI -- is preserved."""
        return self.settings.region_m * math.sqrt(self.scale)

    def scaled_photos_per_hour(self) -> float:
        return self.photos_per_hour * self.scale

    def build(self) -> Scenario:
        """Materialize the scenario deterministically from the spec seed."""
        duration_hours = self.duration_hours()
        duration_s = duration_hours * 3600.0
        num_nodes = self.num_nodes()

        if self.scale >= 1.0:
            participants = (
                mit_reality_like(seed=self.seed, duration_hours=duration_hours)
                if self.trace_name == TRACE_MIT
                else cambridge06_like(seed=self.seed, duration_hours=duration_hours)
            )
        else:
            # A smaller trace in the same generator family, with community
            # count and rates set so the per-node contact density stays
            # comparable to the full-scale trace.
            if self.trace_name == TRACE_MIT:
                spec = SyntheticTraceSpec(
                    num_nodes=num_nodes,
                    duration_hours=duration_hours,
                    num_communities=max(2, int(round(10 * self.scale))),
                    intra_rate_per_hour=0.015,
                    inter_rate_per_hour=0.0006,
                    pair_connectivity=0.12,
                    rate_sigma=1.1,
                    mean_duration_s=420.0,
                    scan_interval_s=300.0,
                )
            else:
                spec = SyntheticTraceSpec(
                    num_nodes=num_nodes,
                    duration_hours=duration_hours,
                    num_communities=max(2, int(round(6 * self.scale))),
                    intra_rate_per_hour=0.03,
                    inter_rate_per_hour=0.0015,
                    pair_connectivity=0.18,
                    rate_sigma=1.0,
                    mean_duration_s=300.0,
                    scan_interval_s=120.0,
                )
            participants = generate_trace(spec, seed=self.seed, name=f"{self.trace_name}-scaled")

        node_ids = sorted(participants.node_ids())
        gateway_count = max(1, int(round(len(node_ids) * self.settings.gateway_fraction)))
        gateway_ids = node_ids[:gateway_count]

        uplinks = gateway_uplink_contacts(
            gateway_ids,
            end_time_s=duration_s,
            mean_interval_s=self.gateway_mean_interval_s,
            mean_duration_s=self.gateway_mean_duration_s,
            seed=self.seed + 1,
        )
        trace = participants.merged_with(uplinks, name=f"{participants.name}+uplinks")

        region_m = self.region_m()
        pois = random_pois(
            self.num_pois(),
            region_width_m=region_m,
            region_height_m=region_m,
            seed=self.seed + 2,
        )
        generator = PhotoGenerator(
            PhotoGeneratorSpec(
                region_width_m=region_m,
                region_height_m=region_m,
                fov_range_deg=self.settings.fov_range_deg,
                range_scale_m=self.settings.range_scale_m,
                photo_size_bytes=self.settings.photo_size_bytes,
                targeted_fraction=self.targeted_fraction,
            ),
            pois=pois if self.targeted_fraction > 0.0 else None,
            seed=self.seed + 3,
        )
        arrivals = generate_photo_schedule(
            generator,
            participant_ids=node_ids,
            photos_per_hour=self.scaled_photos_per_hour(),
            duration_s=duration_s,
            seed=self.seed + 4,
        )
        fault_plan = None
        if self.fault_intensity > 0.0:
            # Seed offset 5 keeps the fault stream independent of the trace
            # (seed), uplink (+1), PoI (+2), generator (+3) and schedule
            # (+4) streams, so turning faults on never reshuffles the
            # underlying scenario.
            fault_plan = FaultPlan.scaled(self.fault_intensity, seed=self.seed + 5)
        config = SimulationConfig(
            storage_bytes=None if self.storage_gb is None else int(self.storage_gb * GIGABYTE),
            contact_duration_cap_s=self.contact_duration_cap_s,
            effective_angle=self.settings.effective_angle_rad(),
            validity_threshold=self.settings.validity_threshold,
            prophet=self.settings.prophet_parameters(),
            fault_plan=fault_plan,
        )
        return Scenario(
            trace=trace,
            pois=pois,
            photo_arrivals=arrivals,
            gateway_ids=gateway_ids,
            config=config,
            end_time_s=duration_s,
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

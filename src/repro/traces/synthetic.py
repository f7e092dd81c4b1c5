"""Synthetic contact traces standing in for MIT Reality and Cambridge06.

The paper's simulations replay two CRAWDAD Bluetooth traces that cannot be
redistributed here.  The algorithms consume nothing but the contact
sequence, and the paper's own metadata-management model (Section III-B)
assumes pairwise-exponential inter-contact times with heterogeneous rates
-- so we generate exactly that family:

* nodes are partitioned into communities (rescue teams / research groups);
* each connected pair gets a rate ``lambda_ab`` drawn log-normally, boosted
  for intra-community pairs (paper: "rescuers in the same team contact more
  often");
* contacts arrive per pair as a Poisson process, with log-normal durations;
* start times are discretized to the scanner period of the original
  dataset (5 min for MIT, 2 min for Cambridge06), reproducing the
  granularity that Bluetooth scanning imposes.

:func:`mit_reality_like` and :func:`cambridge06_like` bake in the node
counts and spans from Table I (97 nodes / 300 h and 54 nodes / 200 h).
Gateway uplink contacts to the command center are generated separately by
:func:`gateway_uplink_contacts` so the same participant trace can be
combined with different uplink assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .model import COMMAND_CENTER_ID, ContactRecord, ContactTrace

__all__ = [
    "SyntheticTraceSpec",
    "generate_trace",
    "mit_reality_like",
    "cambridge06_like",
    "gateway_uplink_contacts",
]


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters of the heterogeneous-exponential trace generator.

    Attributes
    ----------
    num_nodes:
        Participant count; node ids are ``first_node_id .. first_node_id +
        num_nodes - 1``.
    duration_hours:
        Span of the generated trace.
    num_communities:
        How many communities nodes are split into (round-robin).
    intra_rate_per_hour / inter_rate_per_hour:
        Mean pair contact rate inside / across communities, before the
        log-normal heterogeneity multiplier.
    pair_connectivity:
        Probability that a cross-community pair ever meets (intra-community
        pairs are always connected).
    rate_sigma:
        Sigma of the log-normal heterogeneity multiplier (mean 1).
    mean_duration_s / duration_sigma:
        Log-normal contact duration parameters.
    scan_interval_s:
        Bluetooth scan period; contact starts snap to this grid and
        durations round up to at least one period.
    first_node_id:
        Lowest participant id (default 1, keeping 0 for the command
        center).
    """

    num_nodes: int
    duration_hours: float
    num_communities: int = 6
    intra_rate_per_hour: float = 0.035
    inter_rate_per_hour: float = 0.0025
    pair_connectivity: float = 0.35
    rate_sigma: float = 0.9
    mean_duration_s: float = 420.0
    duration_sigma: float = 0.8
    scan_interval_s: float = 300.0
    first_node_id: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        if self.duration_hours <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration_hours}")
        if self.num_communities < 1:
            raise ValueError(f"need at least 1 community, got {self.num_communities}")
        if not 0.0 <= self.pair_connectivity <= 1.0:
            raise ValueError(f"pair_connectivity must be in [0,1], got {self.pair_connectivity}")


def _snap(value: float, grid: float) -> float:
    if grid <= 0.0:
        return value
    return round(value / grid) * grid


def generate_trace(
    spec: SyntheticTraceSpec,
    seed: int = 0,
    name: str = "synthetic",
) -> ContactTrace:
    """Generate a contact trace according to *spec*, deterministically."""
    rng = np.random.default_rng(seed)
    node_ids = [spec.first_node_id + i for i in range(spec.num_nodes)]
    community = {node: i % spec.num_communities for i, node in enumerate(node_ids)}
    horizon = spec.duration_hours * 3600.0
    duration_mu = math.log(spec.mean_duration_s) - spec.duration_sigma**2 / 2.0

    contacts: List[ContactRecord] = []
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1 :]:
            same_community = community[a] == community[b]
            if not same_community and rng.random() > spec.pair_connectivity:
                continue
            base = spec.intra_rate_per_hour if same_community else spec.inter_rate_per_hour
            multiplier = rng.lognormal(mean=-spec.rate_sigma**2 / 2.0, sigma=spec.rate_sigma)
            rate_per_second = base * multiplier / 3600.0
            if rate_per_second <= 0.0:
                continue
            time = rng.exponential(1.0 / rate_per_second)
            while time < horizon:
                duration = max(
                    spec.scan_interval_s,
                    _snap(rng.lognormal(duration_mu, spec.duration_sigma), spec.scan_interval_s),
                )
                start = _snap(time, spec.scan_interval_s)
                if start < horizon:
                    contacts.append(ContactRecord(start, a, b, duration))
                time += rng.exponential(1.0 / rate_per_second)
    return ContactTrace(contacts, name=name)


def mit_reality_like(seed: int = 0, duration_hours: float = 300.0) -> ContactTrace:
    """A 97-node trace with MIT-Reality-like sparsity (Table I settings).

    5-minute scan interval, campus-style community structure, 300 hours.
    """
    spec = SyntheticTraceSpec(
        num_nodes=97,
        duration_hours=duration_hours,
        num_communities=10,
        intra_rate_per_hour=0.015,
        inter_rate_per_hour=0.0006,
        pair_connectivity=0.12,
        rate_sigma=1.1,
        scan_interval_s=300.0,
    )
    return generate_trace(spec, seed=seed, name="mit-reality-like")


def cambridge06_like(seed: int = 0, duration_hours: float = 200.0) -> ContactTrace:
    """A 54-node trace with Cambridge06-like density (Table I settings).

    2-minute scan interval, denser contacts, 200 hours.
    """
    spec = SyntheticTraceSpec(
        num_nodes=54,
        duration_hours=duration_hours,
        num_communities=6,
        intra_rate_per_hour=0.03,
        inter_rate_per_hour=0.0015,
        pair_connectivity=0.18,
        rate_sigma=1.0,
        mean_duration_s=300.0,
        scan_interval_s=120.0,
    )
    return generate_trace(spec, seed=seed, name="cambridge06-like")


def gateway_uplink_contacts(
    gateway_ids: Sequence[int],
    end_time_s: float,
    mean_interval_s: float = 7200.0,
    mean_duration_s: float = 600.0,
    seed: int = 0,
    name: str = "uplinks",
) -> ContactTrace:
    """Poisson-scheduled contacts between gateway nodes and the command center.

    Models the ~2 % of participants who carry satellite radios or act as
    data mules (Section V-A): each gateway reaches the command center at
    exponentially distributed intervals with the given mean.
    """
    if mean_interval_s <= 0.0 or mean_duration_s <= 0.0:
        raise ValueError("mean interval and duration must be positive")
    rng = np.random.default_rng(seed)
    contacts: List[ContactRecord] = []
    for gateway in gateway_ids:
        if gateway == COMMAND_CENTER_ID:
            raise ValueError("the command center cannot be its own gateway")
        time = rng.exponential(mean_interval_s)
        while time < end_time_s:
            duration = rng.exponential(mean_duration_s)
            contacts.append(ContactRecord(time, gateway, COMMAND_CENTER_ID, duration))
            time += rng.exponential(mean_interval_s)
    return ContactTrace(contacts, name=name)

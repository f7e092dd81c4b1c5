"""Extension experiment: photo delivery latency across schemes.

The paper evaluates what the command center eventually holds; equally
relevant operationally is *when* photos arrive -- a disaster-response
decision made at hour 12 can only use photos delivered by hour 12.  This
study compares the taken-to-delivered latency distribution across
schemes on a common scenario.

A subtlety worth advertising: selective schemes deliver *fewer, better*
photos, so their latency distribution is computed over a different (and
smaller) photo population than a flooding baseline's; the report shows
the delivered counts alongside the percentiles for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..dtn.simulator import nearest_rank
from .config import ScenarioSpec
from .report import format_table
from .runner import run_scenario

__all__ = ["LatencySummary", "run_latency_study", "latency_report"]


@dataclass(frozen=True)
class LatencySummary:
    """Latency percentiles (hours) and volume for one scheme."""

    scheme: str
    delivered: int
    p50_h: float
    p90_h: float
    max_h: float
    point_coverage: float


def run_latency_study(
    schemes: Sequence[str] = ("our-scheme", "modified-spray", "spray-and-wait", "epidemic"),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
) -> Dict[str, LatencySummary]:
    """Latency percentiles per scheme, pooled over *num_runs* scenarios."""
    if num_runs < 1:
        raise ValueError(f"num_runs must be at least 1, got {num_runs}")
    from ..routing import parse_scheme_spec, scheme_names

    for name in schemes:
        if parse_scheme_spec(name)[0] not in scheme_names():
            raise KeyError(f"unknown scheme {name!r}")

    pooled: Dict[str, List[float]] = {name: [] for name in schemes}
    delivered: Dict[str, int] = {name: 0 for name in schemes}
    coverage: Dict[str, float] = {name: 0.0 for name in schemes}
    spec = ScenarioSpec(scale=scale, seed=seed)

    for run in range(num_runs):
        scenario = spec.with_seed(seed + 1000 * run).build()
        for name in schemes:
            result = run_scenario(scenario, name)
            pooled[name].extend(result.delivery_latencies_s)
            delivered[name] += result.delivered_photos
            coverage[name] += result.final_point_coverage

    summaries: Dict[str, LatencySummary] = {}
    for name in schemes:
        latencies = pooled[name]
        summaries[name] = LatencySummary(
            scheme=name,
            delivered=delivered[name],
            p50_h=nearest_rank(latencies, 0.5) / 3600.0,
            p90_h=nearest_rank(latencies, 0.9) / 3600.0,
            max_h=nearest_rank(latencies, 1.0) / 3600.0,
            point_coverage=coverage[name] / num_runs,
        )
    return summaries


def latency_report(summaries: Dict[str, LatencySummary]) -> str:
    rows = [
        [
            s.scheme,
            str(s.delivered),
            f"{s.p50_h:.1f}",
            f"{s.p90_h:.1f}",
            f"{s.max_h:.1f}",
            f"{s.point_coverage:.3f}",
        ]
        for s in summaries.values()
    ]
    return format_table(
        ["scheme", "delivered", "p50 (h)", "p90 (h)", "max (h)", "point-cov"], rows
    )

"""Seed sensitivity: means, confidence intervals, and paired comparisons.

The paper averages 50 simulation runs per data point.  This module makes
the statistical side of that reproducible: run a condition across N seeds,
report mean / standard deviation / a t-based confidence interval per
scheme, and compare two schemes with a *paired* t-test (all schemes see
identical scenarios per seed — common random numbers — so pairing is the
right analysis and much more powerful than unpaired).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .config import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentEngine

__all__ = ["SchemeStatistics", "PairedComparison", "seed_sensitivity", "paired_comparison"]


@dataclass(frozen=True)
class SchemeStatistics:
    """Across-seed statistics of one scheme's final point coverage."""

    scheme: str
    num_seeds: int
    mean: float
    std: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class PairedComparison:
    """Paired t-test of two schemes' final point coverage."""

    scheme_a: str
    scheme_b: str
    mean_difference: float  # a - b
    t_statistic: float
    p_value: float


def _collect(
    spec: ScenarioSpec,
    schemes: Sequence[str],
    num_seeds: int,
    metric: str,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, List[float]]:
    from .engine import RunPlan, default_engine

    if num_seeds < 2:
        raise ValueError(f"need at least 2 seeds for statistics, got {num_seeds}")
    if metric not in ("point", "aspect", "delivered"):
        raise ValueError(f"unknown metric {metric!r}")
    plan = RunPlan.comparison(spec, schemes, num_runs=num_seeds)
    values: Dict[str, List[float]] = {name: [] for name in schemes}
    # Plan order is seed-major, so per-scheme values stay seed-ascending --
    # exactly the pairing the paired t-test depends on.
    for outcome in (engine or default_engine()).run(plan):
        result = outcome.result
        if metric == "point":
            value = result.final_point_coverage
        elif metric == "aspect":
            value = result.final_aspect_coverage_deg
        else:
            value = float(result.delivered_photos)
        values[outcome.unit.scheme].append(value)
    return values


def seed_sensitivity(
    spec: ScenarioSpec,
    schemes: Sequence[str],
    num_seeds: int = 5,
    confidence: float = 0.95,
    metric: str = "point",
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, SchemeStatistics]:
    """Across-seed mean and t-interval per scheme."""
    from scipy import stats

    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = _collect(spec, schemes, num_seeds, metric, engine=engine)
    out: Dict[str, SchemeStatistics] = {}
    for name, samples in values.items():
        data = np.asarray(samples)
        mean = float(data.mean())
        std = float(data.std(ddof=1))
        sem = std / math.sqrt(len(data))
        t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=len(data) - 1))
        out[name] = SchemeStatistics(
            scheme=name,
            num_seeds=len(data),
            mean=mean,
            std=std,
            ci_low=mean - t_crit * sem,
            ci_high=mean + t_crit * sem,
        )
    return out


def paired_comparison(
    spec: ScenarioSpec,
    scheme_a: str,
    scheme_b: str,
    num_seeds: int = 5,
    metric: str = "point",
    engine: Optional["ExperimentEngine"] = None,
) -> PairedComparison:
    """Paired t-test of *scheme_a* against *scheme_b* (common seeds)."""
    from scipy import stats

    values = _collect(spec, (scheme_a, scheme_b), num_seeds, metric, engine=engine)
    a = np.asarray(values[scheme_a])
    b = np.asarray(values[scheme_b])
    differences = a - b
    if np.allclose(differences, differences[0]):
        # Zero variance: the t-test is undefined; report degenerately.
        t_stat = math.inf if differences[0] != 0.0 else 0.0
        p_value = 0.0 if differences[0] != 0.0 else 1.0
    else:
        t_stat, p_value = stats.ttest_rel(a, b)
        # One-sided p for "a > b".
        p_value = p_value / 2.0 if t_stat > 0 else 1.0 - p_value / 2.0
    return PairedComparison(
        scheme_a=scheme_a,
        scheme_b=scheme_b,
        mean_difference=float(differences.mean()),
        t_statistic=float(t_stat),
        p_value=float(p_value),
    )

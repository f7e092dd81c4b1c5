"""Fig. 5: coverage versus time for the five schemes (MIT trace).

Storage 0.6 GB, 250 photos generated per hour, 250 PoIs.  The paper's
claims to reproduce in shape: coverage grows over time for every scheme;
our scheme tracks BestPossible closely (<= ~10 % point, ~17 % aspect gap
at 150 h); NoMetadata sits between ours and ModifiedSpray; Spray&Wait is
worst by a wide margin (paper: 49 % less point and 69 % less aspect
coverage than ours at 150 h).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .config import TRACE_MIT, ScenarioSpec
from .report import format_comparison, format_series
from .runner import PAPER_SCHEMES, AveragedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentEngine

__all__ = ["spec", "run", "report"]


def spec(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    """The Fig. 5 condition at the given scale (1.0 = paper scale)."""
    return ScenarioSpec(
        trace_name=TRACE_MIT,
        storage_gb=0.6,
        photos_per_hour=250.0,
        scale=scale,
        seed=seed,
    )


def run(
    scale: float = 1.0,
    num_runs: int = 1,
    seed: int = 0,
    schemes: Sequence[str] = PAPER_SCHEMES,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, AveragedResult]:
    """Run the Fig. 5 comparison and return per-scheme averaged results."""
    from .engine import default_engine

    return (engine or default_engine()).run_comparison(
        spec(scale=scale, seed=seed), schemes, num_runs=num_runs
    )


def report(results: Dict[str, AveragedResult]) -> str:
    """Fig. 5 as text: the two time-series panels plus the endpoint table."""
    parts = [
        format_series(results, metric="point", title="Fig 5(a): point coverage vs time"),
        format_series(results, metric="aspect", title="Fig 5(b): aspect coverage (deg) vs time"),
        format_comparison(results, title="Fig 5 endpoints"),
    ]
    return "\n\n".join(parts)

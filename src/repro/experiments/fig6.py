"""Fig. 6: the effect of short contact durations on our scheme.

Bandwidth is 2 MB/s; contact durations are capped at 10 minutes (no
effective limit), 2 minutes, and 30 seconds.  Shape to reproduce: the
2-minute cap costs only a few percent because the transfer schedule moves
the most valuable photos first; 30 seconds degrades our scheme to roughly
ModifiedSpray-with-10-minutes level (included as the reference curve).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .config import TRACE_MIT, ScenarioSpec
from .report import format_comparison
from .runner import AveragedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentEngine

__all__ = ["CONTACT_CAPS_S", "spec", "run", "report"]

#: The paper's three contact-duration conditions, in seconds.
CONTACT_CAPS_S: Sequence[float] = (600.0, 120.0, 30.0)


def spec(cap_s: Optional[float], scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    """The Fig. 6 condition for one contact-duration cap."""
    return ScenarioSpec(
        trace_name=TRACE_MIT,
        storage_gb=0.6,
        photos_per_hour=250.0,
        contact_duration_cap_s=cap_s,
        scale=scale,
        seed=seed,
    )


def run(
    scale: float = 1.0,
    num_runs: int = 1,
    seed: int = 0,
    caps: Sequence[float] = CONTACT_CAPS_S,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, AveragedResult]:
    """Run our scheme per duration cap, plus the ModifiedSpray reference.

    Keys are ``ours@<cap>s`` and ``modified-spray@600s``.  All caps run as
    one plan, so a parallel engine spreads work across conditions too.
    """
    from .engine import default_engine

    jobs = [
        (f"ours@{cap:.0f}s", spec(cap, scale=scale, seed=seed), ("our-scheme",))
        for cap in caps
    ]
    jobs.append(
        (
            f"modified-spray@{caps[0]:.0f}s",
            spec(caps[0], scale=scale, seed=seed),
            ("modified-spray",),
        )
    )
    grouped = (engine or default_engine()).run_jobs(jobs, num_runs=num_runs)
    return {label: next(iter(per_scheme.values())) for label, per_scheme in grouped.items()}


def report(results: Dict[str, AveragedResult]) -> str:
    return format_comparison(results, title="Fig 6: coverage vs contact-duration cap")

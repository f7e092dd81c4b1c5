"""Ablation studies on the design choices DESIGN.md calls out.

Beyond the paper's own figures, these sweeps quantify the knobs the
design fixes by fiat:

* ``P_thld`` -- the Eq. 1 validity threshold (Table I sets 0.8 "by
  simulations"; this regenerates that tuning experiment);
* the effective angle ``theta`` (30 degrees in Table I, 40 in the demo);
* the cold-start delivery-probability floor this implementation adds;
* gateway placement strategy (random, as in the paper, vs. degree- or
  betweenness-central), using the contact-graph tooling.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..traces.synthetic import gateway_uplink_contacts
from .config import ScenarioSpec, TableISettings
from .runner import AveragedResult, average_results, run_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentEngine

__all__ = [
    "sweep_validity_threshold",
    "sweep_effective_angle",
    "sweep_probability_floor",
    "sweep_churn",
    "compare_gateway_strategies",
]


def _engine(engine: Optional["ExperimentEngine"]) -> "ExperimentEngine":
    from .engine import default_engine

    return engine or default_engine()


def sweep_validity_threshold(
    thresholds: Sequence[float] = (0.2, 0.5, 0.8, 0.95),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, AveragedResult]:
    """Our scheme under different Eq. 1 thresholds ``P_thld``.

    Low thresholds purge cached metadata aggressively (toward NoMetadata);
    high thresholds trust stale snapshots.  Table I's 0.8 sits between.
    """
    jobs = []
    for threshold in thresholds:
        settings = dataclasses.replace(TableISettings(), validity_threshold=threshold)
        spec = ScenarioSpec(scale=scale, seed=seed, settings=settings)
        jobs.append((f"P_thld={threshold}", spec, ("our-scheme",)))
    grouped = _engine(engine).run_jobs(jobs, num_runs=num_runs)
    return {label: per_scheme["our-scheme"] for label, per_scheme in grouped.items()}


def sweep_effective_angle(
    angles_deg: Sequence[float] = (15.0, 30.0, 40.0, 60.0),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, AveragedResult]:
    """Our scheme under different effective angles ``theta``.

    Larger theta means each photo claims a wider aspect arc: fewer photos
    "fill" a PoI, so fewer get delivered -- but the coverage *credited* per
    photo is also more generous, so the normalized aspect metric is not
    comparable across theta values; the sweep reports it anyway along with
    the delivered count, which is the comparable column.
    """
    jobs = []
    for angle in angles_deg:
        settings = dataclasses.replace(TableISettings(), effective_angle_deg=angle)
        spec = ScenarioSpec(scale=scale, seed=seed, settings=settings)
        jobs.append((f"theta={angle:.0f}deg", spec, ("our-scheme",)))
    grouped = _engine(engine).run_jobs(jobs, num_runs=num_runs)
    return {label: per_scheme["our-scheme"] for label, per_scheme in grouped.items()}


def sweep_probability_floor(
    floors: Sequence[float] = (0.0, 0.02, 0.1, 0.3),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
    engine: Optional["ExperimentEngine"] = None,
) -> Dict[str, AveragedResult]:
    """The cold-start delivery-probability floor this implementation adds.

    Floor 0 reproduces the paper verbatim (nodes with PROPHET probability
    exactly 0 see zero expected gain everywhere); small floors keep early
    contacts productive; large floors wash out the probability signal.
    The floors run as parameterized registry variants
    (``our-scheme:min_delivery_probability=...``), so they are ordinary
    cacheable run units.
    """
    spec = ScenarioSpec(scale=scale, seed=seed)
    jobs = [
        (
            f"floor={floor}",
            spec,
            (f"our-scheme:min_delivery_probability={floor!r}",),
        )
        for floor in floors
    ]
    grouped = _engine(engine).run_jobs(jobs, num_runs=num_runs)
    return {label: next(iter(per_scheme.values())) for label, per_scheme in grouped.items()}


def sweep_churn(
    availabilities: Sequence[float] = (1.0, 0.8, 0.6, 0.4),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
    scheme_name: str = "our-scheme",
) -> Dict[str, AveragedResult]:
    """Our scheme under participation churn (nodes switching off).

    Each availability level applies an exponential on/off process to the
    participant trace (4 h mean ON period; the OFF period is derived from
    the target availability); 1.0 disables churn.  Real Bluetooth traces
    embed churn already -- the synthetic generators do not, so this sweep
    shows how much intermittent participation costs.

    Stays on the serial :func:`run_scenario` path: the churned trace is a
    post-build mutation of the scenario, so these runs are not expressible
    as spec-addressed engine units.
    """
    from ..traces.churn import ChurnModel, apply_churn

    results: Dict[str, AveragedResult] = {}
    for availability in availabilities:
        if not 0.0 < availability <= 1.0:
            raise ValueError(f"availability must be in (0, 1], got {availability}")
        run_results = []
        for run in range(num_runs):
            spec = ScenarioSpec(scale=scale, seed=seed + 1000 * run)
            scenario = spec.build()
            if availability < 1.0:
                mean_on = 4.0 * 3600.0
                mean_off = mean_on * (1.0 - availability) / availability
                model = ChurnModel(mean_on_s=mean_on, mean_off_s=mean_off)
                # The command center (node 0) is exempt inside apply_churn;
                # uplink contacts churn on the gateway side only.
                scenario.trace = apply_churn(scenario.trace, model, seed=seed + run)
            run_results.append(run_scenario(scenario, scheme_name))
        results[f"availability={availability}"] = average_results(run_results)
    return results


def compare_gateway_strategies(
    strategies: Sequence[str] = ("random", "degree", "betweenness"),
    scale: float = 0.2,
    num_runs: int = 1,
    seed: int = 0,
) -> Dict[str, AveragedResult]:
    """Gateway placement: the paper's random pick vs. centrality-driven.

    The participant trace and workload stay fixed; only which nodes get
    uplink contacts changes.  Stays on the serial :func:`run_scenario`
    path: the rebuilt uplinks are a post-build mutation of the scenario,
    so these runs are not expressible as spec-addressed engine units.
    """
    from ..traces.graph import GATEWAY_STRATEGIES

    results: Dict[str, AveragedResult] = {}
    for strategy_name in strategies:
        strategy = GATEWAY_STRATEGIES[strategy_name]
        run_results = []
        for run in range(num_runs):
            spec = ScenarioSpec(scale=scale, seed=seed + 1000 * run)
            scenario = spec.build()
            # Rebuild the uplinks for the strategy-selected gateways.
            participants = scenario.trace.restricted_to(
                scenario.trace.node_ids() - {0}
            )
            count = max(1, len(scenario.gateway_ids))
            gateways = strategy(participants, count, seed=seed)
            uplinks = gateway_uplink_contacts(
                gateways,
                end_time_s=scenario.end_time_s,
                mean_interval_s=spec.gateway_mean_interval_s,
                mean_duration_s=spec.gateway_mean_duration_s,
                seed=seed + 1,
            )
            scenario.trace = participants.merged_with(uplinks)
            scenario.gateway_ids = gateways
            run_results.append(run_scenario(scenario, "our-scheme"))
        results[strategy_name] = average_results(run_results)
    return results


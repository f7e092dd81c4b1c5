"""Experiment harness: Table I settings, runner, and per-figure drivers."""

from . import (
    ablations,
    centralized_study,
    dissemination_study,
    fig3_demo,
    fig5,
    fig6,
    fig7,
    fig8,
    latency_study,
    sensitivity,
    telemetry_study,
    weighted_study,
)
from .generate_all import generate_all
from .engine import (
    ExperimentEngine,
    ResultCache,
    RunPlan,
    RunUnit,
    UnitOutcome,
    UnitProgress,
    default_engine,
)
from .asciiplot import histogram, line_chart, sparkline
from .config import TRACE_CAMBRIDGE, TRACE_MIT, Scenario, ScenarioSpec, TableISettings
from .report import format_comparison, format_series, format_sweep, format_table
from .runner import (
    PAPER_SCHEMES,
    AveragedResult,
    average_results,
    run_scenario,
    run_spec,
)

__all__ = [
    "ablations",
    "centralized_study",
    "dissemination_study",
    "latency_study",
    "sensitivity",
    "telemetry_study",
    "generate_all",
    "ExperimentEngine",
    "ResultCache",
    "RunPlan",
    "RunUnit",
    "UnitOutcome",
    "UnitProgress",
    "default_engine",
    "histogram",
    "line_chart",
    "sparkline",
    "fig3_demo",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "TRACE_CAMBRIDGE",
    "TRACE_MIT",
    "Scenario",
    "ScenarioSpec",
    "TableISettings",
    "format_comparison",
    "format_series",
    "format_sweep",
    "format_table",
    "PAPER_SCHEMES",
    "AveragedResult",
    "average_results",
    "run_scenario",
    "run_spec",
]

"""SLO evaluation and the ``load-report`` manifest.

:func:`evaluate_slo` turns a finished :class:`~repro.loadgen.driver.
LoadResult` into a list of human-readable violations against the plan's
:class:`~repro.loadgen.plan.SLOSpec`; :func:`build_load_report` packages
the whole run -- plan echo, per-stage offered/achieved series, per-op
latency quantiles, exact accounting, SLO verdict, and the server's
closing ``stats`` snapshot -- as a schema-validated manifest
(:func:`repro.obs.manifest.validate_manifest`).  ``repro loadgen``
exits nonzero when ``slo.passed`` is false, which is what lets CI gate on
a load run.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..obs.manifest import LOAD_REPORT_SCHEMA_VERSION, ensure_valid_manifest
from .driver import LoadResult

__all__ = ["evaluate_slo", "build_load_report", "describe_result"]


def evaluate_slo(result: LoadResult) -> List[str]:
    """Every SLO violation in *result* (empty list = the run passed)."""
    slo = result.plan.slo
    violations: List[str] = []
    if not slo.enabled:
        return violations
    if slo.max_p99_s is not None:
        for kind, quantiles in sorted(result.op_quantiles().items()):
            p99 = quantiles["p99_s"]
            if p99 is not None and p99 > slo.max_p99_s:
                violations.append(
                    f"p99 latency for {kind!r} is {p99:.4f}s "
                    f"(limit {slo.max_p99_s:g}s)"
                )
    if slo.max_error_rate is not None:
        rate = result.accounting.error_rate
        if rate > slo.max_error_rate:
            violations.append(
                f"error rate is {rate:.4f} "
                f"({result.accounting.failed}/{result.accounting.sent} ops; "
                f"limit {slo.max_error_rate:g})"
            )
    if slo.min_rate_attainment is not None:
        for stage in result.stages:
            if not stage.gate_rate:
                continue
            if stage.attainment < slo.min_rate_attainment:
                violations.append(
                    f"stage {stage.name!r} attained {stage.attainment:.3f} "
                    f"of offered load ({stage.ok}/{stage.offered} ops; "
                    f"limit {slo.min_rate_attainment:g})"
                )
    return violations


def build_load_report(result: LoadResult) -> Dict[str, Any]:
    """The validated ``load-report`` manifest for one finished run."""
    violations = evaluate_slo(result)
    slo = result.plan.slo
    report: Dict[str, Any] = {
        "schema_version": LOAD_REPORT_SCHEMA_VERSION,
        "kind": "load-report",
        "generated_by": "repro.loadgen",
        "plan": result.plan.to_dict(),
        "target": {"host": result.host, "port": result.port},
        "wall_duration_s": result.wall_duration_s,
        "stages": [stage.as_dict() for stage in result.stages],
        "ops": result.op_quantiles(),
        "accounting": result.accounting.as_dict(),
        "slo": {
            "thresholds": {
                "max_p99_s": slo.max_p99_s,
                "max_error_rate": slo.max_error_rate,
                "min_rate_attainment": slo.min_rate_attainment,
            },
            "violations": violations,
            "passed": not violations,
        },
        "client_metrics": result.registry.snapshot(),
    }
    if result.server_stats is not None:
        report["server"] = {"stats": result.server_stats}
    ensure_valid_manifest(report)
    return report


def describe_result(report: Dict[str, Any]) -> str:
    """A terminal summary of one load report."""
    lines: List[str] = []
    accounting = report["accounting"]
    lines.append(
        f"ran {len(report['stages'])} stages in {report['wall_duration_s']:.1f}s: "
        f"{accounting['sent']} ops, {accounting['ok']} ok, "
        f"error rate {accounting['error_rate']:.4f}"
    )
    for stage in report["stages"]:
        gate = " [gated]" if stage["gate_rate"] else ""
        lines.append(
            f"  {stage['name']:8s} {stage['process']:7s} "
            f"offered {stage['offered_rate']:6.1f}/s  "
            f"achieved {stage['achieved_rate']:6.1f}/s  "
            f"attainment {stage['attainment']:.3f}{gate}"
        )
    for kind, quantiles in sorted(report["ops"].items()):
        p50, p95, p99 = (
            f"{'n/a':>9s}" if quantiles[key] is None else f"{quantiles[key] * 1000:7.2f}ms"
            for key in ("p50_s", "p95_s", "p99_s")
        )
        lines.append(
            f"  {kind:8s} p50 {p50}  p95 {p95}  p99 {p99}  ({quantiles['count']} ops)"
        )
    if accounting["killed"] or accounting["reconnects"]:
        lines.append(
            f"  chaos: {accounting['killed']} connections killed, "
            f"{accounting['reconnects']} reconnects"
        )
    slo = report["slo"]
    if slo["violations"]:
        lines.append("SLO violations:")
        for violation in slo["violations"]:
            lines.append(f"  - {violation}")
    elif any(value is not None for value in slo["thresholds"].values()):
        lines.append("SLO: passed")
    return "\n".join(lines)

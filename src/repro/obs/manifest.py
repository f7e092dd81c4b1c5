"""Manifests: JSON documents describing an engine run, a service session
or a load run.

An engine-run manifest is the engine's flight recorder -- written beside
the result cache (or wherever ``manifest_path`` points), it captures
everything needed to audit a sweep after the fact: the content hash of
the plan, which schemes and seeds ran, per-unit wall-clock timings and
cache provenance, a merged metric snapshot (phase timings included), and
each scheme's coverage-over-time curve.  A manifest with a ``kind`` key
is a ``service-session`` (:func:`build_service_manifest`) or a
``load-report`` (:mod:`repro.loadgen.report`).

Each kind has one declarative schema in :data:`SCHEMAS`, enforced by
:func:`validate_manifest` (no external jsonschema dependency); CI
validates a manifest of every kind on every push.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from .telemetry import TELEMETRY_SCHEMA_VERSION

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SERVICE_MANIFEST_SCHEMA_VERSION",
    "LOAD_REPORT_SCHEMA_VERSION",
    "SCHEMAS",
    "ManifestError",
    "build_manifest",
    "build_service_manifest",
    "merge_metric_snapshots",
    "plan_hash",
    "validate_manifest",
    "ensure_valid_manifest",
    "write_manifest",
    "load_manifest",
]

#: Bumped when the engine-run manifest shape changes.
#: v2: ``timings.profile`` is gone; phase timings are the merged
#: ``repro_phase_seconds`` timer family of ``metrics``.
MANIFEST_SCHEMA_VERSION = 2

#: Bumped when the service-session manifest shape changes.
SERVICE_MANIFEST_SCHEMA_VERSION = 1

#: Bumped when the load-report manifest shape changes.
LOAD_REPORT_SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """A manifest failed structural validation."""


def plan_hash(unit_keys: Iterable[str]) -> str:
    """Content hash of a run plan: the ordered unit keys, hashed."""
    digest = hashlib.sha256()
    for key in unit_keys:
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def merge_metric_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several registry snapshots into one aggregate snapshot.

    Counters, histograms, and timers sum across runs (per label set);
    gauges -- end-state readings like final coverage -- are averaged, with
    the run count recorded in the family help suffix being unnecessary
    since units are listed individually anyway.
    """
    merged: Dict[str, Any] = {}
    gauge_counts: Dict[str, Dict[str, int]] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            into = merged.get(name)
            if into is None:
                into = merged[name] = {
                    "kind": family["kind"],
                    "help": family.get("help", ""),
                    "samples": [],
                }
                gauge_counts[name] = {}
            by_labels = {
                json.dumps(s["labels"], sort_keys=True): s for s in into["samples"]
            }
            for sample in family.get("samples", []):
                label_key = json.dumps(sample.get("labels", {}), sort_keys=True)
                existing = by_labels.get(label_key)
                if existing is None:
                    new = {"labels": dict(sample.get("labels", {})),
                           "value": _copy_value(sample["value"])}
                    into["samples"].append(new)
                    by_labels[label_key] = new
                    if family["kind"] == "gauge":
                        gauge_counts[name][label_key] = 1
                else:
                    _merge_value(
                        family["kind"], existing, sample["value"],
                        gauge_counts[name], label_key,
                    )
    # Turn gauge sums into means.
    for name, family in merged.items():
        if family["kind"] != "gauge":
            continue
        for sample in family["samples"]:
            label_key = json.dumps(sample["labels"], sort_keys=True)
            count = gauge_counts[name].get(label_key, 1)
            if count > 1:
                sample["value"] = sample["value"] / count
    return merged


def _copy_value(value: Any) -> Any:
    if isinstance(value, dict):
        copied = dict(value)
        if "buckets" in copied:
            copied["buckets"] = dict(copied["buckets"])
        return copied
    return value


def _merge_value(
    kind: str,
    existing: Dict[str, Any],
    incoming: Any,
    gauge_counts: Dict[str, int],
    label_key: str,
) -> None:
    if kind in ("counter",):
        existing["value"] += incoming
    elif kind == "gauge":
        existing["value"] += incoming
        gauge_counts[label_key] = gauge_counts.get(label_key, 1) + 1
    elif kind == "histogram":
        value = existing["value"]
        for bound, count in incoming["buckets"].items():
            value["buckets"][bound] = value["buckets"].get(bound, 0) + count
        value["count"] += incoming["count"]
        value["sum"] += incoming["sum"]
    elif kind == "timer":
        value = existing["value"]
        if incoming["count"]:
            value["min"] = (
                incoming["min"] if not value["count"] else min(value["min"], incoming["min"])
            )
            value["max"] = max(value["max"], incoming["max"])
        value["count"] += incoming["count"]
        value["sum"] += incoming["sum"]
    else:  # unknown kinds pass through first-wins
        pass


def build_manifest(
    outcomes: Sequence[Any],
    generator: str = "repro",
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for a finished run plan.

    *outcomes* are the engine's ``UnitOutcome`` objects (duck-typed:
    ``unit``, ``result``, ``duration_s``, ``cached``, ``telemetry``).
    """
    units: List[Dict[str, Any]] = []
    telemetry_snapshots: List[Dict[str, Any]] = []
    coverage_by_scheme: Dict[str, List[Dict[str, float]]] = {}
    for outcome in outcomes:
        unit = outcome.unit
        telemetry = getattr(outcome, "telemetry", None)
        entry: Dict[str, Any] = {
            "scheme": unit.scheme,
            "seed": unit.spec.seed,
            "key": unit.key(),
            "duration_s": outcome.duration_s,
            "cached": outcome.cached,
            "result": {
                "point_coverage": outcome.result.final_point_coverage,
                "aspect_coverage_deg": outcome.result.final_aspect_coverage_deg,
                "delivered_photos": outcome.result.delivered_photos,
                "created_photos": outcome.result.created_photos,
                "contacts_processed": outcome.result.contacts_processed,
                "center_contacts": outcome.result.center_contacts,
            },
            "telemetry": telemetry,
        }
        units.append(entry)
        if telemetry:
            telemetry_snapshots.append(telemetry.get("metrics", {}))
            curve = telemetry.get("coverage_curve") or []
            if curve and unit.scheme not in coverage_by_scheme:
                coverage_by_scheme[unit.scheme] = curve

    schemes: List[str] = []
    for outcome in outcomes:
        if outcome.unit.scheme not in schemes:
            schemes.append(outcome.unit.scheme)
    seeds = sorted({outcome.unit.spec.seed for outcome in outcomes})

    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generator": generator,
        "plan_hash": plan_hash(u["key"] for u in units),
        "schemes": schemes,
        "seeds": seeds,
        "units": units,
        "timings": {
            "total_unit_s": sum(u["duration_s"] for u in units),
            "cached_units": sum(1 for u in units if u["cached"]),
            "executed_units": sum(1 for u in units if not u["cached"]),
        },
        "metrics": merge_metric_snapshots(telemetry_snapshots),
        "coverage_over_time": coverage_by_scheme,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def build_service_manifest(
    routing: Dict[str, Any],
    variants: Dict[str, Dict[str, Any]],
    metrics: Dict[str, Any],
    generator: str = "repro.service",
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for one service-server session.

    The service analogue of :func:`build_manifest`: *routing* is the
    router's summary (split percentages, fallback count), *variants* maps
    variant name to that session's summary (scheme spec, request count,
    coverage, latency quantiles), *metrics* is the server registry's
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.
    """
    manifest: Dict[str, Any] = {
        "schema_version": SERVICE_MANIFEST_SCHEMA_VERSION,
        "kind": "service-session",
        "generator": generator,
        "routing": dict(routing),
        "variants": {name: dict(summary) for name, summary in variants.items()},
        "metrics": metrics,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


# ----------------------------------------------------------------------
# Validation (structural; no external schema library)
# ----------------------------------------------------------------------

_DURATION = {"type": "number", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 0}
_STRING = {"type": "string"}

#: A latency summary, as
#: :meth:`~repro.obs.registry.Histogram.latency_summary` returns it.
_LATENCY = {"type": "object", "required": ["count", "p50_s", "p95_s", "p99_s"]}

#: The load report's op counts: ``sent``, then the outcomes that add up to it.
_OUTCOMES = ("sent", "ok", "service_error", "timeout", "connection_error", "killed")

#: One schema per manifest kind, in a small JSON-Schema subset: ``type``
#: (a name or a list of names), ``const``, ``pattern`` (which must match
#: the whole string), ``minimum``, ``minItems``, ``minProperties``,
#: ``required``, ``properties``, ``items``, and ``values`` -- the schema
#: of every value of an object keyed by name.  The ``kind`` key picks the
#: schema, so no schema lists it; a manifest without one is an engine run.
SCHEMAS: Dict[str, Dict[str, Any]] = {
    "engine-run": {
        "type": "object",
        "required": ["schema_version", "generator", "plan_hash", "schemes", "seeds",
                     "units", "timings", "metrics", "coverage_over_time"],
        "properties": {
            "schema_version": {"const": MANIFEST_SCHEMA_VERSION},
            "generator": _STRING,
            "plan_hash": {"type": "string", "pattern": "[0-9a-f]{64}"},
            "schemes": {"type": "array", "minItems": 1, "items": _STRING},
            "seeds": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
            "units": {"type": "array", "minItems": 1, "items": {
                "type": "object",
                "required": ["scheme", "seed", "key", "duration_s", "cached", "result"],
                "properties": {
                    "duration_s": _DURATION,
                    "cached": {"type": "boolean"},
                    "telemetry": {
                        "type": ["object", "null"],
                        "required": ["schema_version", "metrics",
                                     "coverage_curve", "buffer_occupancy"],
                        "properties": {"schema_version": {"const": TELEMETRY_SCHEMA_VERSION}},
                    },
                },
            }},
            "timings": {
                "type": "object",
                "required": ["total_unit_s", "cached_units", "executed_units"],
                "properties": {"total_unit_s": _DURATION, "cached_units": _COUNT,
                               "executed_units": _COUNT},
            },
            "metrics": {"type": "object",
                        "values": {"type": "object", "required": ["kind", "samples"]}},
            "coverage_over_time": {"type": "object"},
        },
    },
    "service-session": {
        "type": "object",
        "required": ["schema_version", "generator", "routing", "variants", "metrics"],
        "properties": {
            "schema_version": {"const": SERVICE_MANIFEST_SCHEMA_VERSION},
            "generator": _STRING,
            "routing": {"type": "object", "required": ["champion", "champion_pct",
                                                       "challenger_pct", "fallbacks"]},
            "variants": {"type": "object", "minProperties": 1, "values": {
                "type": "object",
                "required": ["scheme", "requests", "coverage", "latency"],
                "properties": {
                    "latency": _LATENCY,
                    "persistence": {
                        "type": ["object", "null"],
                        "required": ["wal_dir", "fsync", "snapshot_seq", "recovery"],
                        "properties": {"recovery": {
                            "type": ["object", "null"],
                            "required": ["snapshot_seq", "replayed_records",
                                         "truncated_bytes", "duration_s"],
                            "properties": {"duration_s": _DURATION},
                        }},
                    },
                },
            }},
            "metrics": {"type": "object"},
        },
    },
    "load-report": {
        "type": "object",
        "required": ["schema_version", "generated_by", "plan", "target", "wall_duration_s",
                     "stages", "ops", "accounting", "slo"],
        "properties": {
            "schema_version": {"const": LOAD_REPORT_SCHEMA_VERSION},
            "generated_by": _STRING,
            "plan": {"type": "object", "required": ["stages"]},
            "target": {"type": "object", "required": ["host", "port"]},
            "wall_duration_s": _DURATION,
            "stages": {"type": "array", "items": {
                "type": "object",
                "required": ["name", "process", "gate_rate", "offered", "ok",
                             "offered_rate", "achieved_rate", "attainment", "samples"],
                "properties": {"samples": {"type": "array"}},
            }},
            "ops": {"type": "object", "values": _LATENCY},
            "accounting": {
                "type": "object",
                "required": list(_OUTCOMES) + ["reconnects", "errors_by_code"],
                "properties": {key: _COUNT for key in _OUTCOMES},
            },
            "slo": {
                "type": "object",
                "required": ["thresholds", "violations", "passed"],
                "properties": {"violations": {"type": "array"}, "passed": {"type": "boolean"}},
            },
        },
    },
}

_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check(value: Any, schema: Dict[str, Any], path: str, errors: List[str]) -> None:
    """Append to *errors* every way *value* (at JSON *path*) breaks *schema*."""
    where = path or "manifest"
    if "const" in schema:
        const = schema["const"]
        if type(value) is not type(const) or value != const:
            errors.append(f"{where} {value!r} != {const!r}")
        return
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_TYPE_CHECKS[name](value) for name in types):
            errors.append(f"{where} must be {' or '.join(types)}, got {type(value).__name__}")
            return
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{where} missing {key!r}")
        if len(value) < schema.get("minProperties", 0):
            errors.append(f"{where} must have at least {schema['minProperties']} entries")
        prefix = f"{path}." if path else ""
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, prefix + key, errors)
        if "values" in schema:
            for key, item in value.items():
                _check(item, schema["values"], f"{where}[{key!r}]", errors)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where} must have at least {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{where}[{i}]", errors)
    elif isinstance(value, str):
        if "pattern" in schema and not re.fullmatch(schema["pattern"], value):
            errors.append(f"{where} must match {schema['pattern']}")
    elif "minimum" in schema and _TYPE_CHECKS["number"](value):
        if not value >= schema["minimum"]:  # NaN compares false, so it fails too
            errors.append(f"{where} must be >= {schema['minimum']}, got {value!r}")


def _load_report_rules(payload: Dict[str, Any]) -> List[str]:
    """The load report's cross-field rules, which a schema cannot state."""
    errors: List[str] = []
    accounting = payload.get("accounting")
    if isinstance(accounting, dict) and all(
        _TYPE_CHECKS["integer"](accounting.get(key)) for key in _OUTCOMES
    ):
        if accounting["sent"] != sum(accounting[key] for key in _OUTCOMES[1:]):
            errors.append(
                "accounting identity violated: sent != ok + "
                "service_error + timeout + connection_error + killed"
            )
    slo = payload.get("slo")
    if (
        isinstance(slo, dict)
        and isinstance(slo.get("passed"), bool)
        and isinstance(slo.get("violations"), list)
        and slo["passed"] != (not slo["violations"])
    ):
        errors.append("slo.passed must match slo.violations being empty")
    return errors


def validate_manifest(payload: Any) -> List[str]:
    """Validate a manifest of any kind; returns a list of problems.

    Dispatches on ``kind``: none means an engine run, and a kind with no
    entry in :data:`SCHEMAS` is itself a problem.  An empty list means the
    manifest is valid; raise-style callers use :func:`ensure_valid_manifest`.
    """
    if not isinstance(payload, dict):
        return ["manifest is not a JSON object"]
    kind = payload.get("kind", "engine-run")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        return [f"unknown manifest kind {kind!r}; known: {', '.join(sorted(SCHEMAS))}"]
    errors: List[str] = []
    _check(payload, SCHEMAS[kind], "", errors)
    if kind == "load-report":
        errors.extend(_load_report_rules(payload))
    return errors


def ensure_valid_manifest(payload: Any) -> Dict[str, Any]:
    """Validate *payload*, raising :class:`ManifestError` on problems."""
    errors = validate_manifest(payload)
    if errors:
        raise ManifestError("; ".join(errors))
    return payload


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> Path:
    """Atomically write *manifest* as JSON to *path* (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=False, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest of any kind from disk and validate it."""
    return ensure_valid_manifest(json.loads(Path(path).read_text(encoding="utf-8")))

"""The manifest schemas: one per kind, enforced by one validator.

The contracts under test:

* a manifest from each kind's real producer -- an instrumented engine
  run, a durable server's shutdown with a challenger, a load run --
  validates clean;
* deleting any key a kind's schema requires, at any nesting level, is an
  error that names that key's JSON path;
* wrong types, NaN / negative / boolean durations, a non-hex plan hash,
  an unknown kind and an engine manifest of the previous schema version
  are all reported.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager

import pytest

from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoIList
from repro.experiments import fig5
from repro.experiments.engine import ExperimentEngine, RunPlan
from repro.loadgen import LoadPlan, LoadStage, SLOSpec, WorkloadSpec, run_load
from repro.loadgen.report import build_load_report
from repro.obs.manifest import (
    SCHEMAS,
    ManifestError,
    ensure_valid_manifest,
    validate_manifest,
)
from repro.service import PersistenceConfig
from repro.service.client import ServiceClient
from repro.service.router import RoutingConfig
from repro.service.server import CommandCenterServer

POIS = PoIList.from_points([Point(54.0, 34.0), Point(400.0, 400.0)])


@contextmanager
def running_server(**kwargs):
    server = CommandCenterServer(pois=POIS, port=0, time_policy="clamp", **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "server failed to bind"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10.0)
        assert not thread.is_alive(), "server thread failed to stop"


@pytest.fixture(scope="module")
def engine_manifest():
    engine = ExperimentEngine(telemetry=True)
    plan = RunPlan.comparison(fig5.spec(scale=0.05), ("our-scheme", "spray-and-wait"))
    engine.run(plan)
    return engine.last_manifest


@pytest.fixture(scope="module")
def service_manifest(tmp_path_factory):
    routing = RoutingConfig(
        champion="our-scheme", challenger="spray-and-wait",
        challenger_pct=50.0,
    )
    persistence = PersistenceConfig(wal_dir=tmp_path_factory.mktemp("wal"), fsync="off")
    with running_server(routing=routing, persistence=persistence) as server:
        with ServiceClient(*server.address) as client:
            for owner in range(1, 5):
                photo = Photo(
                    metadata=PhotoMetadata(
                        location=Point(10.0 * owner, 10.0),
                        coverage_range=80.0,
                        field_of_view=1.0,
                        orientation=-0.5,
                    ),
                    photo_id=owner,
                    taken_at=0.0,
                    owner_id=owner,
                )
                client.ingest(owner, photo, now=0.0)
    return server.last_manifest


@pytest.fixture(scope="module")
def load_report():
    plan = LoadPlan(
        name="schema",
        seed=3,
        stages=(LoadStage(name="hold", duration_s=0.3, rate=20.0, concurrency=2),),
        workload=WorkloadSpec(users=4),
        slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
        op_timeout_s=10.0,
    )
    with running_server() as server:
        result = run_load(plan, *server.address)
    return build_load_report(result)


@pytest.fixture(params=["engine-run", "service-session", "load-report"])
def produced(request):
    """``(kind, manifest)`` from the kind's real producer."""
    fixture = {
        "engine-run": "engine_manifest",
        "service-session": "service_manifest",
        "load-report": "load_report",
    }[request.param]
    return request.param, copy.deepcopy(request.getfixturevalue(fixture))


def required_keys(value, schema, path=""):
    """``(container, key, path)`` for every schema-required key in *value*.

    Follows the schema the way the validator does, so every nesting level
    the schema reaches -- properties, list items and map values -- is
    covered.
    """
    where = path or "manifest"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield value, key, where
        prefix = f"{path}." if path else ""
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from required_keys(value[key], sub, prefix + key)
        if "values" in schema:
            for key, item in value.items():
                yield from required_keys(item, schema["values"], f"{where}[{key!r}]")
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from required_keys(item, schema["items"], f"{where}[{i}]")


def test_every_kind_has_a_schema():
    assert sorted(SCHEMAS) == ["engine-run", "load-report", "service-session"]


def test_real_producers_validate_clean(produced):
    kind, manifest = produced
    assert validate_manifest(manifest) == []
    assert ensure_valid_manifest(manifest) is manifest
    assert manifest.get("kind", "engine-run") == kind


def test_service_manifest_covers_both_variants_and_the_journal(service_manifest):
    assert sorted(service_manifest["variants"]) == ["challenger", "champion"]
    for summary in service_manifest["variants"].values():
        assert "recovery" in summary["persistence"]


def test_every_required_key_is_enforced_at_every_level(produced):
    kind, manifest = produced
    checked = 0
    nested = 0
    for container, key, where in list(required_keys(manifest, SCHEMAS[kind])):
        value = container.pop(key)
        try:
            errors = validate_manifest(manifest)
        finally:
            container[key] = value
        assert f"{where} missing {key!r}" in errors, (where, key, errors)
        checked += 1
        nested += where != "manifest"
    assert checked >= 15
    assert nested, "the walk must reach keys below the top level"


def test_service_persistence_error_names_its_path(service_manifest):
    broken = copy.deepcopy(service_manifest)
    del broken["variants"]["champion"]["persistence"]["recovery"]
    assert validate_manifest(broken) == [
        "variants['champion'].persistence missing 'recovery'"
    ]


@pytest.mark.parametrize("bad", [float("nan"), -1.0, True, "3s"])
def test_durations_must_be_non_negative_numbers(
    engine_manifest, service_manifest, load_report, bad
):
    engine = copy.deepcopy(engine_manifest)
    engine["units"][1]["duration_s"] = bad
    assert any(e.startswith("units[1].duration_s") for e in validate_manifest(engine))

    engine = copy.deepcopy(engine_manifest)
    engine["timings"]["total_unit_s"] = bad
    assert any(e.startswith("timings.total_unit_s") for e in validate_manifest(engine))

    report = dict(load_report, wall_duration_s=bad)
    assert any(e.startswith("wall_duration_s") for e in validate_manifest(report))

    service = copy.deepcopy(service_manifest)
    service["variants"]["champion"]["persistence"]["recovery"]["duration_s"] = bad
    assert any(
        e.startswith("variants['champion'].persistence.recovery.duration_s")
        for e in validate_manifest(service)
    )


def test_wrong_types_are_reported(produced):
    kind, manifest = produced
    field, wrong = {
        "engine-run": ("schemes", "our-scheme"),
        "service-session": ("variants", ["champion"]),
        "load-report": ("stages", {}),
    }[kind]
    manifest[field] = wrong
    errors = validate_manifest(manifest)
    assert any(e.startswith(f"{field} must be ") for e in errors), errors


def test_nested_wrong_types_are_reported(engine_manifest, load_report):
    engine = copy.deepcopy(engine_manifest)
    engine["units"][0]["cached"] = "no"
    engine["seeds"] = [0, "1"]
    errors = validate_manifest(engine)
    assert "units[0].cached must be boolean, got str" in errors
    assert "seeds[1] must be integer, got str" in errors

    report = copy.deepcopy(load_report)
    report["slo"]["passed"] = "yes"
    assert "slo.passed must be boolean, got str" in validate_manifest(report)


@pytest.mark.parametrize("plan_hash", ["nothex", "A" * 64, "0" * 63, "0" * 64 + "\n", 7])
def test_plan_hash_must_be_lowercase_sha256_hex(engine_manifest, plan_hash):
    errors = validate_manifest(dict(engine_manifest, plan_hash=plan_hash))
    assert any(e.startswith("plan_hash must ") for e in errors), errors


def test_unknown_kind_is_an_error(produced):
    _, manifest = produced
    manifest["kind"] = "bogus"
    (error,) = validate_manifest(manifest)
    assert "unknown manifest kind 'bogus'" in error
    with pytest.raises(ManifestError, match="bogus"):
        ensure_valid_manifest(manifest)
    manifest["kind"] = ["service-session"]
    assert validate_manifest(manifest) == [
        "unknown manifest kind ['service-session']; "
        "known: engine-run, load-report, service-session"
    ]


def test_non_object_is_an_error():
    assert validate_manifest([]) == ["manifest is not a JSON object"]


def test_previous_engine_manifest_version_is_rejected(engine_manifest):
    # The previous shape: schema_version 1 with a ``timings.profile`` block.
    parent = copy.deepcopy(engine_manifest)
    parent["schema_version"] = 1
    parent["timings"]["profile"] = {
        "selection": {"calls": 1, "total_s": 0.1, "min_s": 0.1, "max_s": 0.1},
    }
    errors = validate_manifest(parent)
    assert any("schema_version" in e for e in errors), errors


def test_load_report_cross_field_rules(load_report):
    report = copy.deepcopy(load_report)
    report["accounting"]["ok"] += 1
    assert any("accounting identity" in e for e in validate_manifest(report))

    report = copy.deepcopy(load_report)
    report["slo"]["violations"] = ["p99 too high"]
    assert "slo.passed must match slo.violations being empty" in validate_manifest(report)

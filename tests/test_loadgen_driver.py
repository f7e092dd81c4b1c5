"""End-to-end tests for the async load driver and the load-report manifest.

The contracts under test:

* the driver sustains the offered rate against a live server, with exact
  op accounting (``sent == ok + every failure category``);
* the report is a schema-valid ``load-report`` manifest carrying per-op
  p50/p95/p99 and achieved-vs-offered series, and SLO thresholds turn
  into violations (the CLI's nonzero exit);
* the chaos soak -- client connection kills plus a server-side fault
  plan with live node churn -- completes with **zero** unhandled server
  errors and consistent client accounting;
* a bursty stage's clustered Table I photos are served without errors.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import SimulationConfig
from repro.loadgen import (
    BurstSpec,
    ChaosSpec,
    LoadPlan,
    LoadStage,
    SLOSpec,
    WorkloadSpec,
    run_load,
    stage_arrivals,
)
from repro.loadgen.report import build_load_report, describe_result, evaluate_slo
from repro.obs.manifest import ManifestError, load_manifest, validate_manifest
from repro.service.client import ServiceClient
from repro.service.server import CommandCenterServer


@contextmanager
def running_server(**kwargs):
    """A CommandCenterServer on a background thread, bound to port 0."""
    kwargs.setdefault("port", 0)
    kwargs.setdefault("time_policy", "clamp")
    server = CommandCenterServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "server failed to bind"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10.0)
        assert not thread.is_alive(), "server thread failed to stop"


@pytest.fixture()
def pois():
    return PoIList.from_points([Point(54.0, 34.0), Point(400.0, 400.0)])


def quick_plan(**overrides) -> LoadPlan:
    """A ~1.5s two-stage plan small enough for the unit-test suite."""
    defaults = dict(
        name="test",
        seed=3,
        stages=(
            LoadStage(
                name="ramp", duration_s=0.5, process="ramp",
                rate_start=5.0, rate=30.0, concurrency=3,
            ),
            LoadStage(
                name="hold", duration_s=1.0, rate=30.0, concurrency=3,
                gate_rate=True,
            ),
        ),
        workload=WorkloadSpec(users=12),
        slo=SLOSpec(max_p99_s=2.0, max_error_rate=0.02, min_rate_attainment=0.8),
        op_timeout_s=10.0,
    )
    defaults.update(overrides)
    return LoadPlan(**defaults)


def internal_errors(server) -> float:
    return server.metrics.internal_errors.value


class TestDriverEndToEnd:
    def test_sustains_rate_with_exact_accounting(self, pois):
        plan = quick_plan()
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        acct = result.accounting
        assert acct.consistent()
        assert acct.sent > 0 and acct.failed == 0
        hold = next(s for s in result.stages if s.name == "hold")
        assert hold.attainment >= 0.8
        assert hold.offered > 0
        # Per-second samples were taken and are cumulative.
        offered_series = [s["offered"] for s in hold.samples]
        assert offered_series == sorted(offered_series)
        assert evaluate_slo(result) == []

    def test_latency_quantiles_per_op_kind(self, pois):
        plan = quick_plan()
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        quantiles = result.op_quantiles()
        assert quantiles, "no op latencies recorded"
        for entry in quantiles.values():
            assert entry["count"] > 0
            assert 0.0 <= entry["p50_s"] <= entry["p95_s"] <= entry["p99_s"]

    def test_server_side_counters_match_client_ok(self, pois):
        plan = quick_plan()
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        stats = result.server_stats
        assert stats is not None
        server_requests = sum(
            variant["requests"] for variant in stats["variants"].values()
        )
        # No kills/timeouts in this plan: every op the client counted ok
        # was processed exactly once by the server.
        assert server_requests == result.accounting.ok

    def test_report_is_a_valid_manifest(self, pois, tmp_path):
        from repro.obs.manifest import write_manifest

        plan = quick_plan()
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        report = build_load_report(result)
        assert validate_manifest(report) == []
        assert report["slo"]["passed"]
        path = tmp_path / "load_report.json"
        write_manifest(path, report)
        assert load_manifest(path)["kind"] == "load-report"
        text = describe_result(report)
        assert "attainment" in text and "p99" in text

    def test_slo_violation_is_detected(self, pois):
        plan = quick_plan(
            slo=SLOSpec(max_p99_s=1e-9, max_error_rate=None, min_rate_attainment=None)
        )
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        violations = evaluate_slo(result)
        assert violations, "an impossible p99 SLO must be violated"
        report = build_load_report(result)
        assert not report["slo"]["passed"]
        assert report["slo"]["violations"] == violations

    def test_validator_rejects_tampered_accounting(self, pois):
        plan = quick_plan()
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
        from repro.obs.manifest import ensure_valid_manifest

        report = build_load_report(result)
        report["accounting"]["ok"] += 1
        errors = validate_manifest(report)
        assert any("accounting identity" in e for e in errors)
        with pytest.raises(ManifestError):
            ensure_valid_manifest(report)


class TestChaosSoak:
    def test_soak_has_zero_internal_errors_and_exact_accounting(self, pois):
        """The acceptance criterion: kills + server faults + node churn,
        no unhandled server exceptions, accounting adds up exactly."""
        fault_plan = FaultPlan(
            seed=9,
            crash_rate_per_node_hour=60.0,  # with time_scale below: constant churn
            mean_downtime_s=900.0,
            storage_loss_fraction=0.5,
            cache_loss_on_crash=True,
            transfer_drop_probability=0.2,
            metadata_corruption_probability=0.3,
        )
        config = SimulationConfig(fault_plan=fault_plan)
        plan = quick_plan(
            stages=(
                LoadStage(name="hold", duration_s=1.5, rate=60.0, concurrency=4,
                          gate_rate=False),
            ),
            chaos=ChaosSpec(kill_every_s=0.2),
            slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
            time_scale=600.0,
        )
        with running_server(pois=pois, config=config) as server:
            result = run_load(plan, *server.address)
            assert internal_errors(server) == 0.0
            champion = server.router.champion
            counters = champion.simulation.result.fault_counters
            assert champion.clamped_requests >= 0
            churn_events = counters.crashes + counters.restarts
        acct = result.accounting
        assert acct.consistent()
        assert acct.killed > 0, "chaos must actually kill connections"
        assert acct.reconnects > 0
        assert acct.ok > 0, "the service must keep serving between kills"
        # Live churn ran: at 60 crashes/node-hour and 15 virtual minutes
        # of traffic over a dozen nodes, transitions are certain.
        assert churn_events > 0
        report = build_load_report(result)
        assert validate_manifest(report) == []
        assert report["accounting"]["killed"] == acct.killed

    def test_server_survives_soak_and_keeps_serving(self, pois):
        plan = quick_plan(
            stages=(
                LoadStage(name="hold", duration_s=0.8, rate=50.0, concurrency=3),
            ),
            chaos=ChaosSpec(kill_every_s=0.15),
            slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
        )
        with running_server(pois=pois) as server:
            run_load(plan, *server.address)
            # A fresh client gets clean service after the storm.
            with ServiceClient(*server.address) as client:
                assert client.ping()["ok"]
                assert client.stats()["ok"]
            assert internal_errors(server) == 0.0


class TestBurstyPhotos:
    def test_burst_photos_are_served_without_errors(self, pois):
        stage = LoadStage(
            name="burst", duration_s=1.0, process="bursty", rate=40.0,
            concurrency=2, burst=BurstSpec(share=0.8, size_mean=8.0, duration_s=0.5),
        )
        plan = quick_plan(
            stages=(stage,),
            slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
        )
        bursts = [a for a in stage_arrivals(stage, plan.seed) if a.incident is not None]
        assert bursts, "the stage must draw incident bursts"
        with running_server(pois=pois) as server:
            result = run_load(plan, *server.address)
            assert internal_errors(server) == 0.0
        acct = result.accounting
        assert acct.consistent()
        assert acct.service_error == 0 and acct.failed == 0
        assert result.op_quantiles()["ingest"]["count"] >= len(bursts)

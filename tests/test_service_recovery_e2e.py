"""Kill -9 a real server mid-replay; recovery must be byte-identical.

These tests supervise ``python -m repro serve`` as a subprocess through
:class:`repro.loadgen.chaos.ManagedServer`, so the death is a genuine
``SIGKILL`` -- no atexit handlers, no flush, no graceful close -- and the
restart runs the full CLI recovery path against the same ``--wal-dir``.
The oracle is the service mode's core contract: a recovered server that
finishes the replay must report exactly the coverage floats and
delivered count of an uninterrupted ``Simulation.run()``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dtn.simulator import Simulation
from repro.experiments.config import ScenarioSpec
from repro.loadgen import ManagedServer, builtin_plan, run_load_with_restarts
from repro.obs.manifest import ensure_valid_manifest
from repro.routing import create_scheme
from repro.service.client import ServiceClient, replay_scenario

SCALE = 0.05
SEED = 3
HALF = 400  # of the 777 events this scenario produces


@pytest.fixture(scope="module")
def scenario():
    return ScenarioSpec(scale=SCALE, seed=SEED).build()


@pytest.fixture(scope="module")
def simulated(scenario):
    sim = Simulation(
        trace=scenario.trace,
        pois=scenario.pois,
        photo_arrivals=scenario.photo_arrivals,
        scheme=create_scheme("our-scheme"),
        config=scenario.config,
        gateway_ids=scenario.gateway_ids,
        end_time_s=scenario.end_time_s,
    )
    sim.run()
    point, aspect_deg = sim.index.normalized(sim.center_coverage())
    return {
        "point": point,
        "aspect_deg": aspect_deg,
        "delivered": sim.command_center.received_count,
    }


class TestKillAndRecover:
    def test_sigkilled_server_recovers_byte_identical(
        self, tmp_path, scenario, simulated
    ):
        wal_dir = tmp_path / "wal"
        manifest_path = tmp_path / "manifest.json"
        server = ManagedServer(
            extra_args=[
                "--scale", str(SCALE), "--seed", str(SEED),
                "--wal-dir", str(wal_dir), "--fsync", "always",
                "--snapshot-every", "150",
                "--manifest", str(manifest_path),
            ],
            log_path=str(tmp_path / "serve.log"),
        )
        server.start()
        try:
            with ServiceClient(server.host, server.port) as client:
                replay_scenario(client, scenario, limit=HALF)

            server.sigkill()  # no flush, no manifest, no goodbye
            assert not server.running()
            server.start()

            with ServiceClient(server.host, server.port) as client:
                stats = client.stats()
                recovery = stats["variants"]["champion"]["persistence"]["recovery"]
                assert recovery["snapshot_seq"] + recovery["replayed_records"] == HALF
                report = replay_scenario(client, scenario, skip=HALF, shutdown=True)
            server._process.wait(timeout=30.0)
        finally:
            server.stop()

        champion = report.coverage["champion"]
        assert champion["point_coverage"] == simulated["point"]
        assert champion["aspect_coverage_deg"] == simulated["aspect_deg"]
        assert champion["delivered_photos"] == simulated["delivered"]

        # The manifest written on the post-recovery shutdown records the
        # recovery and passes schema validation.
        manifest = ensure_valid_manifest(
            json.loads(Path(manifest_path).read_text())
        )
        block = manifest["variants"]["champion"]["persistence"]
        assert block["recovery"]["snapshot_seq"] + \
            block["recovery"]["replayed_records"] == HALF

        log = (tmp_path / "serve.log").read_text()
        assert "recovered champion" in log


class TestChaosRestartUnderLoad:
    def test_load_survives_a_server_sigkill_and_restart(self, tmp_path):
        # A tiny world keeps the two boots fast; --clamp-time because
        # concurrent workers race each other by design.
        wal_dir = tmp_path / "wal"
        server = ManagedServer(
            extra_args=[
                "--scale", "0.02", "--seed", "1",
                "--wal-dir", str(wal_dir), "--fsync", "interval",
                "--clamp-time",
            ],
            log_path=str(tmp_path / "serve.log"),
        )
        plan = builtin_plan("smoke").scaled(0.5)
        plan = replace(plan, slo=replace(plan.slo, max_error_rate=1.0,
                                         min_rate_attainment=0.0))
        with server:
            result, restarts = run_load_with_restarts(
                plan, server, kill_after_s=1.5, restarts=1
            )
        assert restarts == 1
        assert server.starts == 2 and server.kills == 1
        acct = result.accounting
        assert acct.consistent(), vars(acct)
        assert acct.ok > 0, "no request succeeded across the restart"
        # The outage surfaces as accounting, not as a crashed driver.
        assert acct.sent == acct.ok + acct.failed

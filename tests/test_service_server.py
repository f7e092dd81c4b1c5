"""End-to-end tests: socket server, replay client, metrics, manifest."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoIList
from repro.dtn import COMMAND_CENTER_ID
from repro.dtn.simulator import Simulation
from repro.experiments.config import ScenarioSpec
from repro.obs.manifest import load_manifest, validate_manifest
from repro.routing import create_scheme
from repro.service.client import ServiceClient, ServiceError, http_get, replay_scenario
from repro.service.router import RoutingConfig
from repro.service.server import CommandCenterServer

from helpers import next_photo_id


def make_photo(x=10.0, y=10.0, taken_at=0.0, owner_id=1):
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=80.0,
            field_of_view=1.0,
            orientation=-0.5,  # clockwise from east: points up-and-right
        ),
        photo_id=next_photo_id(),
        taken_at=taken_at,
        owner_id=owner_id,
    )


@contextmanager
def running_server(**kwargs):
    """A CommandCenterServer on a background thread, bound to port 0."""
    kwargs.setdefault("port", 0)
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


class TestServerBasics:
    def test_ping_reports_protocol_version(self, pois):
        from repro.service.protocol import PROTOCOL_VERSION

        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                response = client.ping()
                assert response["protocol"] == PROTOCOL_VERSION
                assert response["server"] == "repro.service"

    def test_request_id_is_echoed(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                response = client.request("ping", id="req-17")
                assert response["id"] == "req-17"

    def test_ingest_then_uplink_delivers_over_the_wire(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                photo = make_photo(owner_id=1)
                ingest = client.ingest(1, photo, now=0.0)
                assert ingest["stored"] and ingest["buffered"] == 1
                response = client.contact(
                    1, COMMAND_CENTER_ID, now=10.0, duration=600.0
                )
                assert response["kind"] == "selection"
                assert response["delivered"] == [photo.photo_id]
                assert response["delivered_total"] == 1


class TestServerErrors:
    def test_unknown_op_is_a_bad_request(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("frobnicate")
                assert excinfo.value.code == "bad-request"

    def test_stale_time_has_its_own_error_code(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                client.ingest(1, make_photo(), now=100.0)
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest(1, make_photo(), now=50.0)
                assert excinfo.value.code == "stale-time"
                # The connection survives the error.
                assert client.ping()["ok"]

    def test_reused_photo_id_is_a_bad_request(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                first = dataclasses.replace(make_photo(10.0, 10.0), photo_id=5)
                assert client.ingest(1, first, now=0.0)["stored"]
                other = dataclasses.replace(make_photo(900.0, 900.0), photo_id=5)
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest(1, other, now=10.0)
                assert excinfo.value.code == "bad-request"
                assert "already holds photo id 5" in str(excinfo.value)
                report = client.coverage()["variants"]["champion"]
                assert report["created_photos"] == 1
                response = client.contact(
                    1, COMMAND_CENTER_ID, now=20.0, duration=600.0
                )
                assert response["delivered"] == [5]
                assert response["point_coverage"] == 0.5

    def test_malformed_json_does_not_kill_the_connection(self, pois):
        with running_server(pois=pois) as server:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"this is not json\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-request"
                handle.write(b'{"op": "ping"}\n')
                handle.flush()
                assert json.loads(handle.readline())["ok"] is True


class TestHttpScrape:
    def test_metrics_endpoint_serves_prometheus_text(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                client.ingest(1, make_photo(), now=0.0)
            status, body = http_get(*server.address, path="/metrics")
            assert status == 200
            assert "repro_service_requests_total" in body
            assert "repro_service_request_seconds" in body

    def test_healthz_and_unknown_paths(self, pois):
        with running_server(pois=pois) as server:
            status, body = http_get(*server.address, path="/healthz")
            assert (status, body) == (200, "ok\n")
            status, _ = http_get(*server.address, path="/nope")
            assert status == 404

    def test_http_and_jsonlines_share_the_port(self, pois):
        with running_server(pois=pois) as server:
            status, _ = http_get(*server.address, path="/healthz")
            assert status == 200
            with ServiceClient(*server.address) as client:
                assert client.ping()["ok"]


class TestStatsAndLatency:
    def test_stats_report_latency_quantiles(self, pois):
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address) as client:
                for i in range(20):
                    client.ingest(1, make_photo(taken_at=float(i)), now=float(i))
                stats = client.stats()
        summary = stats["variants"]["champion"]
        latency = summary["latency"]
        assert latency["count"] >= 20
        assert 0.0 <= latency["p50_s"] <= latency["p95_s"] <= latency["p99_s"]
        assert stats["router"]["champion"] == "our-scheme"


class TestClientTimeout:
    def test_unresponsive_server_raises_service_timeout(self):
        """A listener that accepts but never answers must trip the
        per-request timeout, not hang the caller."""
        from repro.service.client import ServiceTimeoutError

        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        try:
            client = ServiceClient(*sink.getsockname(), connect_timeout=5.0)
            try:
                with pytest.raises(ServiceTimeoutError) as excinfo:
                    client.request("ping", timeout=0.2)
                assert excinfo.value.op == "ping"
                assert excinfo.value.timeout == pytest.approx(0.2)
            finally:
                client.close()
        finally:
            sink.close()

    def test_per_request_timeout_overrides_client_default(self, pois):
        """A tight per-request timeout still succeeds against a live
        server, and the client keeps working afterwards."""
        with running_server(pois=pois) as server:
            with ServiceClient(*server.address, timeout=30.0) as client:
                assert client.request("ping", timeout=5.0)["ok"]
                assert client.ping()["ok"]


class TestChampionChallenger:
    ROUTING = RoutingConfig(
        champion="our-scheme",
        challenger="spray-and-wait",
        challenger_pct=50.0,
    )

    def test_users_stick_to_their_hashed_variant(self, pois):
        with running_server(pois=pois, routing=self.ROUTING) as server:
            with ServiceClient(*server.address) as client:
                now = 0.0  # session clocks are global: time must not rewind
                for user in range(1, 9):
                    expected = self.ROUTING.variant_for(user)
                    for _ in range(3):
                        response = client.ingest(
                            user, make_photo(owner_id=user), now=now
                        )
                        now += 1.0
                        assert response["variant"] == expected
                        assert not response["fell_back"]

    def test_challenger_refusal_never_reaches_the_champion(self, pois):
        user = next(
            u for u in range(1, 1000) if self.ROUTING.variant_for(u) == "challenger"
        )
        with running_server(pois=pois, routing=self.ROUTING) as server:
            with ServiceClient(*server.address) as client:
                photo = dataclasses.replace(make_photo(owner_id=user), photo_id=5)
                assert client.ingest(user, photo, now=0.0)["variant"] == "challenger"
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest(user, photo, now=1.0)
                assert excinfo.value.code == "bad-request"
                variants = client.coverage()["variants"]
                stats = client.stats()
        assert variants["champion"]["created_photos"] == 0
        assert variants["challenger"]["created_photos"] == 1
        assert stats["router"]["fallbacks"] == 0

    def test_unbuildable_challenger_falls_back_over_the_wire(self, pois):
        routing = RoutingConfig(
            champion="our-scheme",
            challenger="no-such-scheme",
            challenger_pct=50.0,
        )
        challenger_user = next(
            u for u in range(1, 1000) if routing.variant_for(u) == "challenger"
        )
        with running_server(pois=pois, routing=routing) as server:
            with ServiceClient(*server.address) as client:
                response = client.ingest(
                    challenger_user, make_photo(owner_id=challenger_user), now=0.0
                )
                assert response["variant"] == "champion"
                assert response["requested_variant"] == "challenger"
                assert response["fell_back"]
                stats = client.stats()
        assert stats["router"]["fallbacks"] >= 1
        assert stats["router"]["challenger_error"] is not None


class TestManifest:
    def test_shutdown_writes_a_valid_manifest(self, pois, tmp_path):
        manifest_path = tmp_path / "service-manifest.json"
        with running_server(pois=pois, manifest_path=str(manifest_path)) as server:
            with ServiceClient(*server.address) as client:
                client.ingest(1, make_photo(), now=0.0)
                client.contact(1, COMMAND_CENTER_ID, now=5.0, duration=600.0)
                client.shutdown()
        manifest = load_manifest(str(manifest_path))
        assert validate_manifest(manifest) == []
        assert manifest["kind"] == "service-session"
        champion = manifest["variants"]["champion"]
        assert champion["scheme"] == "our-scheme"
        assert champion["requests"] >= 2
        assert "p95_s" in champion["latency"]
        assert server.last_manifest is not None

    def test_variants_that_served_nothing_write_strict_json(self, pois, tmp_path):
        """Empty latency series are ``null``, never a bare ``NaN`` token."""

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        manifest_path = tmp_path / "service-manifest.json"
        routing = RoutingConfig(
            champion="our-scheme",
            challenger="spray-and-wait",
            challenger_pct=100.0,
        )
        with running_server(
            pois=pois, routing=routing, manifest_path=str(manifest_path)
        ):
            pass
        manifest = json.loads(manifest_path.read_text(), parse_constant=reject)
        assert validate_manifest(manifest) == []
        assert manifest["variants"]["champion"]["latency"] == {
            "count": 0, "p50_s": None, "p95_s": None, "p99_s": None,
        }

    def test_request_shutdown_after_the_server_stopped_is_a_no_op(self, pois):
        server = CommandCenterServer(pois=pois, port=0)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.ready.wait(10.0), "server failed to bind"
        with ServiceClient(*server.address) as client:
            client.shutdown()
        thread.join(10.0)
        assert not thread.is_alive(), "server thread failed to stop"
        server.request_shutdown()


class TestLiveReplayByteIdentical:
    """The tentpole guarantee, proven over real sockets."""

    def test_socket_replay_equals_simulation(self):
        spec = ScenarioSpec(scale=0.05, seed=3)
        scenario = spec.build()

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

        with running_server(pois=scenario.pois, config=scenario.config) as server:
            with ServiceClient(*server.address) as client:
                report = replay_scenario(client, scenario)
            live = server.router.champion.simulation

            assert report.delivered_photo_ids == sim.command_center.storage.photo_ids()
            assert (
                live.command_center.storage.photo_ids()
                == sim.command_center.storage.photo_ids()
            )
            assert sim.center_coverage() == live.center_coverage()
            assert report.coverage["champion"]["point_coverage"] == (
                sim.index.normalized(sim.center_coverage())[0]
            )
            assert report.stats["variants"]["champion"]["latency"]["count"] > 0

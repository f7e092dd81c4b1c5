"""Durable service mode: WAL, snapshots, recovery, corruption handling."""

from __future__ import annotations

import json
import os
import pickle
import threading
from contextlib import contextmanager

import pytest

from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoIList
from repro.dtn import COMMAND_CENTER_ID
from repro.dtn.events import EventKind
from repro.dtn.simulator import Simulation
from repro.experiments.config import ScenarioSpec
from repro.obs.manifest import validate_manifest
from repro.routing import create_scheme
from repro.service import (
    PersistenceConfig,
    PersistentSession,
    RecoveryError,
    ServiceSession,
    SnapshotStore,
    WalCorruptionError,
    WriteAheadLog,
)
from repro.service.client import ServiceClient, iter_scenario_events
from repro.service.server import CommandCenterServer

from helpers import next_photo_id


def make_photo(x=10.0, y=10.0, taken_at=0.0, owner_id=1):
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=80.0,
            field_of_view=1.0,
            orientation=-0.5,
        ),
        photo_id=next_photo_id(),
        taken_at=taken_at,
        owner_id=owner_id,
    )


#: The journal of ``test_journal_tail_replays_through_the_seam``'s two
#: requests as an older release wrote it: its photos carried a
#: ``"quality"`` key that the codec no longer knows.
OLDER_RELEASE_JOURNAL = (
    b'{"op":"ingest","user":1,"time":0.0,"photo":{"photo_id":0,"size_bytes":4194304,'
    b'"taken_at":0.0,"owner_id":1,"quality":1.0,"features":null,"metadata":{"x":10.0,'
    b'"y":10.0,"coverage_range":80.0,"field_of_view":1.0,"orientation":-0.5}},"seq":1}\n'
    b'{"op":"contact","a":1,"b":0,"time":10.0,"duration":600.0,"seq":2}\n'
)


@pytest.fixture()
def pois():
    return PoIList.from_points([Point(54.0, 34.0), Point(400.0, 400.0)])


def session_factory(pois):
    def factory():
        return ServiceSession("our-scheme", pois, variant="champion")

    return factory


def feed_events(target, events):
    """Drive ingest/contact events through a session-shaped object."""
    for event in events:
        if event.kind == EventKind.PHOTO_CREATED:
            owner_id, photo = event.payload
            target.ingest(owner_id, photo, event.time)
        else:
            node_a, node_b, duration = event.payload[:3]
            target.contact(node_a, node_b, event.time, duration)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestPersistenceConfig:
    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            PersistenceConfig(wal_dir=tmp_path, fsync="sometimes")

    def test_rejects_negative_snapshot_every(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            PersistenceConfig(wal_dir=tmp_path, snapshot_every=-1)

    def test_rejects_nonpositive_fsync_interval(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_interval_s"):
            PersistenceConfig(wal_dir=tmp_path, fsync_interval_s=0.0)

    def test_describe_round_trips_the_knobs(self, tmp_path):
        config = PersistenceConfig(
            wal_dir=tmp_path, snapshot_every=50, fsync="always"
        )
        summary = config.describe()
        assert summary["snapshot_every"] == 50
        assert summary["fsync"] == "always"
        assert summary["wal_dir"] == str(tmp_path)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_appends_are_contiguous_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "champion.wal", fsync="off")
        assert wal.append({"op": "a"}) == 1
        assert wal.append({"op": "b"}) == 2
        wal.close()
        records, torn = WriteAheadLog.read_records(tmp_path / "champion.wal")
        assert torn == 0
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["op"] for r in records] == ["a", "b"]

    def test_torn_tail_is_reported_not_fatal(self, tmp_path):
        path = tmp_path / "champion.wal"
        wal = WriteAheadLog(path, fsync="off")
        wal.append({"op": "a"})
        wal.append({"op": "b"})
        wal.close()
        torn_fragment = b'{"op":"c","se'
        with open(path, "ab") as handle:
            handle.write(torn_fragment)
        records, torn = WriteAheadLog.read_records(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert torn == len(torn_fragment)

    def test_damaged_final_line_with_newline_counts_as_torn(self, tmp_path):
        path = tmp_path / "champion.wal"
        wal = WriteAheadLog(path, fsync="off")
        wal.append({"op": "a"})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"garbage bytes with a newline\n")
        records, torn = WriteAheadLog.read_records(path)
        assert [r["seq"] for r in records] == [1]
        assert torn > 0

    def test_corrupt_middle_record_is_a_hard_error(self, tmp_path):
        path = tmp_path / "champion.wal"
        lines = [
            json.dumps({"op": "a", "seq": 1}),
            "this is not json",
            json.dumps({"op": "c", "seq": 3}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="corrupt record"):
            WriteAheadLog.read_records(path)

    def test_sequence_gap_is_a_hard_error(self, tmp_path):
        path = tmp_path / "champion.wal"
        lines = [
            json.dumps({"op": "a", "seq": 1}),
            json.dumps({"op": "b", "seq": 3}),
            json.dumps({"op": "c", "seq": 4}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="sequence break"):
            WriteAheadLog.read_records(path)

    def test_missing_file_reads_as_empty(self, tmp_path):
        records, torn = WriteAheadLog.read_records(tmp_path / "nope.wal")
        assert records == [] and torn == 0


class TestFsyncPolicies:
    @pytest.fixture()
    def fsync_calls(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_always_fsyncs_every_append(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="always")
        wal.open_for_append()
        fsync_calls.clear()
        for i in range(5):
            wal.append({"op": "a", "i": i})
        assert len(fsync_calls) == 5

    def test_off_never_fsyncs_on_append(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="off")
        wal.open_for_append()
        fsync_calls.clear()
        for i in range(5):
            wal.append({"op": "a", "i": i})
        assert fsync_calls == []
        wal.sync()  # explicit sync works regardless of policy
        assert len(fsync_calls) == 1

    def test_interval_fsyncs_at_most_once_per_window(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(
            tmp_path / "w.wal", fsync="interval", fsync_interval_s=3600.0
        )
        wal.open_for_append()
        fsync_calls.clear()
        for i in range(10):
            wal.append({"op": "a", "i": i})
        assert fsync_calls == []  # the hour hasn't elapsed

    def test_interval_with_elapsed_window_fsyncs(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(
            tmp_path / "w.wal", fsync="interval", fsync_interval_s=1e-9
        )
        wal.open_for_append()
        fsync_calls.clear()
        wal.append({"op": "a"})
        assert len(fsync_calls) == 1


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshotStore:
    def test_round_trips_a_live_session(self, tmp_path, pois):
        session = ServiceSession("our-scheme", pois)
        session.ingest(1, make_photo(owner_id=1), 0.0)
        store = SnapshotStore(tmp_path / "champion.snapshot")
        store.save(7, session)
        loaded = store.load()
        assert loaded is not None
        seq, restored = loaded
        assert seq == 7
        assert restored.coverage().created_photos == 1

    def test_missing_snapshot_loads_as_none(self, tmp_path):
        assert SnapshotStore(tmp_path / "nope.snapshot").load() is None

    def test_corrupt_snapshot_loads_as_none(self, tmp_path):
        path = tmp_path / "champion.snapshot"
        path.write_bytes(b"not a pickle at all")
        assert SnapshotStore(path).load() is None

    def test_wrong_format_version_loads_as_none(self, tmp_path):
        path = tmp_path / "champion.snapshot"
        with open(path, "wb") as handle:
            pickle.dump({"format": 999, "seq": 1, "session": None}, handle)
        assert SnapshotStore(path).load() is None


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


class TestRecovery:
    def test_fresh_directory_recovers_to_an_empty_world(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path)
        ps = PersistentSession(session_factory(pois), config, "champion")
        assert ps.recovery.snapshot_seq == 0
        assert ps.recovery.replayed_records == 0
        assert ps.coverage().created_photos == 0
        ps.close()

    def test_journal_tail_replays_through_the_seam(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        ps.ingest(1, make_photo(owner_id=1), 0.0)
        ps.contact(1, COMMAND_CENTER_ID, 10.0, 600.0)
        before = ps.coverage()
        del ps  # abrupt death: no close, no flush beyond the fsync policy

        older_dir = tmp_path / "older"
        older_dir.mkdir()
        (older_dir / "champion.wal").write_bytes(OLDER_RELEASE_JOURNAL)
        older = PersistenceConfig(wal_dir=older_dir, fsync="always")

        for journal in (config, older):
            recovered = PersistentSession(session_factory(pois), journal, "champion")
            assert recovered.recovery.replayed_records == 2
            assert recovered.coverage() == before
            recovered.close()

    def test_torn_tail_is_truncated_and_appends_continue(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        ps.ingest(1, make_photo(owner_id=1), 0.0)
        ps.ingest(2, make_photo(owner_id=2), 1.0)
        ps.close()
        wal_path = tmp_path / "champion.wal"
        intact_size = wal_path.stat().st_size
        with open(wal_path, "ab") as handle:
            handle.write(b'{"op":"ingest","user":3,"ti')  # mid-record death

        recovered = PersistentSession(session_factory(pois), config, "champion")
        assert recovered.recovery.truncated_bytes > 0
        assert recovered.recovery.replayed_records == 2
        assert wal_path.stat().st_size == intact_size
        assert recovered.coverage().created_photos == 2
        # The next append takes the seq the torn record never committed.
        recovered.ingest(3, make_photo(owner_id=3), 2.0)
        records, torn = WriteAheadLog.read_records(wal_path)
        assert torn == 0
        assert [r["seq"] for r in records] == [1, 2, 3]
        recovered.close()

    def test_corrupt_middle_record_refuses_to_start(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        for i in range(1, 4):
            ps.ingest(i, make_photo(owner_id=i), float(i))
        ps.close()
        wal_path = tmp_path / "champion.wal"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        lines[1] = b"}}corrupted{{\n"
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(WalCorruptionError):
            PersistentSession(session_factory(pois), config, "champion")

    def test_compacted_journal_without_snapshot_refuses_to_start(
        self, tmp_path, pois
    ):
        config = PersistenceConfig(wal_dir=tmp_path)
        (tmp_path / "champion.wal").write_text(
            json.dumps({"op": "select", "user": 1, "time": 0.0,
                        "duration": 1.0, "seq": 5}) + "\n"
        )
        with pytest.raises(RecoveryError, match="already compacted"):
            PersistentSession(session_factory(pois), config, "champion")

    def test_snapshot_journal_seq_gap_refuses_to_start(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path)
        session = ServiceSession("our-scheme", pois)
        SnapshotStore(tmp_path / "champion.snapshot").save(5, session)
        (tmp_path / "champion.wal").write_text(
            json.dumps({"op": "select", "user": 1, "time": 0.0,
                        "duration": 1.0, "seq": 8}) + "\n"
        )
        with pytest.raises(RecoveryError, match="missing"):
            PersistentSession(session_factory(pois), config, "champion")

    def test_unknown_op_in_journal_refuses_to_start(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path)
        (tmp_path / "champion.wal").write_text(
            json.dumps({"op": "frobnicate", "seq": 1}) + "\n"
        )
        with pytest.raises(WalCorruptionError, match="unknown op"):
            PersistentSession(session_factory(pois), config, "champion")

    def test_failed_requests_replay_deterministically(self, tmp_path, pois):
        # A journaled request that *raised* (stale time) must not break
        # replay: the same error recurs and leaves state untouched.
        config = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        ps.ingest(1, make_photo(owner_id=1), 100.0)
        with pytest.raises(ValueError):
            ps.ingest(1, make_photo(owner_id=1), 50.0)  # stale: journaled, raised
        before = ps.coverage()
        del ps
        recovered = PersistentSession(session_factory(pois), config, "champion")
        assert recovered.recovery.replayed_records == 2
        assert recovered.coverage().created_photos == before.created_photos
        recovered.close()


class TestSnapshotCompaction:
    def test_snapshot_truncates_the_journal(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path, snapshot_every=3)
        ps = PersistentSession(session_factory(pois), config, "champion")
        for i in range(1, 5):
            ps.ingest(i, make_photo(owner_id=i), float(i))
        assert ps.snapshot_seq == 3
        records, _ = WriteAheadLog.read_records(tmp_path / "champion.wal")
        assert [r["seq"] for r in records] == [4]  # 1..3 compacted away
        ps.close()

    def test_recovery_from_snapshot_plus_tail(self, tmp_path, pois):
        config = PersistenceConfig(wal_dir=tmp_path, snapshot_every=3, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        for i in range(1, 6):
            ps.ingest(i, make_photo(owner_id=i), float(i))
        before = ps.coverage()
        del ps
        recovered = PersistentSession(session_factory(pois), config, "champion")
        assert recovered.recovery.snapshot_seq == 3
        assert recovered.recovery.replayed_records == 2
        assert recovered.coverage().created_photos == before.created_photos
        recovered.close()

    def test_crash_between_snapshot_and_truncation_recovers(self, tmp_path, pois):
        # Snapshot at seq N with the journal still holding 1..N (reset
        # never ran): the tail past N is empty and appends continue at
        # N+1 without tripping the contiguity check on the next boot.
        config = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        ps = PersistentSession(session_factory(pois), config, "champion")
        for i in range(1, 4):
            ps.ingest(i, make_photo(owner_id=i), float(i))
        ps.snapshots.save(3, ps.session)
        ps.close()  # journal still holds seq 1..3
        recovered = PersistentSession(session_factory(pois), config, "champion")
        assert recovered.recovery.snapshot_seq == 3
        assert recovered.recovery.replayed_records == 0
        recovered.ingest(4, make_photo(owner_id=4), 4.0)
        records, _ = WriteAheadLog.read_records(tmp_path / "champion.wal")
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        recovered.close()


# ----------------------------------------------------------------------
# Byte-identity: recovered world == uninterrupted Simulation.run()
# ----------------------------------------------------------------------


class TestRecoveryByteIdentity:
    def test_kill_and_recover_matches_simulation(self, tmp_path):
        scenario = ScenarioSpec(scale=0.05, seed=3).build()
        sim = Simulation(
            trace=scenario.trace,
            pois=scenario.pois,
            photo_arrivals=scenario.photo_arrivals,
            scheme=create_scheme("our-scheme"),
            config=scenario.config,
            gateway_ids=scenario.gateway_ids,
            end_time_s=scenario.end_time_s,
        )
        result = sim.run()

        def factory():
            return ServiceSession(
                "our-scheme", scenario.pois, scenario.config, variant="champion"
            )

        events = list(iter_scenario_events(scenario))
        half = len(events) // 2
        config = PersistenceConfig(
            wal_dir=tmp_path, snapshot_every=200, fsync="off"
        )
        first = PersistentSession(factory, config, "champion")
        feed_events(first, events[:half])
        del first  # death without close: journal survives via OS buffers

        second = PersistentSession(factory, config, "champion")
        assert second.recovery.replayed_records > 0
        feed_events(second, events[half:])
        report = second.coverage()
        assert report.point_coverage == result.final_point_coverage
        assert report.aspect_coverage_deg == result.final_aspect_coverage_deg
        assert report.delivered_photos == result.delivered_photos
        second.close()


# ----------------------------------------------------------------------
# Server integration: sockets, metrics, manifest
# ----------------------------------------------------------------------


@contextmanager
def running_server(**kwargs):
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


class TestServerPersistenceIntegration:
    def test_server_journals_and_recovers_across_restarts(self, tmp_path, pois):
        persistence = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        with running_server(pois=pois, persistence=persistence) as server:
            with ServiceClient(*server.address) as client:
                photo = make_photo(owner_id=1)
                client.ingest(1, photo, now=0.0)
                response = client.contact(
                    1, COMMAND_CENTER_ID, now=10.0, duration=600.0
                )
                assert response["delivered"] == [photo.photo_id]
                first_coverage = client.coverage()["variants"]["champion"]

        with running_server(pois=pois, persistence=persistence) as server:
            assert server.recoveries["champion"].replayed_records == 2
            with ServiceClient(*server.address) as client:
                recovered = client.coverage()["variants"]["champion"]
        assert recovered == first_coverage

    def test_wal_metrics_and_manifest_recovery_block(self, tmp_path, pois):
        persistence = PersistenceConfig(wal_dir=tmp_path, fsync="off")
        with running_server(pois=pois, persistence=persistence) as server:
            with ServiceClient(*server.address) as client:
                client.ingest(1, make_photo(owner_id=1), now=0.0)
                text = client.request("metrics")["text"]
        assert 'repro_service_wal_appends_total{variant="champion"} 1' in text
        assert "repro_service_wal_bytes_total" in text
        assert "repro_service_recovery_seconds" in text

        manifest = server.last_manifest
        assert validate_manifest(manifest) == []
        block = manifest["variants"]["champion"]["persistence"]
        assert block["fsync"] == "off"
        assert block["wal_records"] == 1
        assert block["recovery"]["replayed_records"] == 0

    def test_manifest_validator_rejects_broken_persistence_block(
        self, tmp_path, pois
    ):
        persistence = PersistenceConfig(wal_dir=tmp_path)
        with running_server(pois=pois, persistence=persistence) as server:
            pass
        manifest = server.last_manifest
        del manifest["variants"]["champion"]["persistence"]["recovery"]
        errors = validate_manifest(manifest)
        assert any("persistence missing 'recovery'" in error for error in errors)

    def test_challenger_journals_independently(self, tmp_path, pois):
        from repro.service.router import RoutingConfig

        persistence = PersistenceConfig(wal_dir=tmp_path, fsync="always")
        routing = RoutingConfig(
            champion="our-scheme",
            challenger="spray-and-wait",
            challenger_pct=100.0,
        )
        with running_server(
            pois=pois, routing=routing, persistence=persistence
        ) as server:
            with ServiceClient(*server.address) as client:
                client.ingest(1, make_photo(owner_id=1), now=0.0)
        assert (tmp_path / "challenger.wal").exists()
        records, _ = WriteAheadLog.read_records(tmp_path / "challenger.wal")
        assert len(records) == 1
        # The champion world saw no traffic: its journal is empty.
        champion_records, _ = WriteAheadLog.read_records(tmp_path / "champion.wal")
        assert champion_records == []

"""Durable service mode: write-ahead journal, snapshots, and recovery.

A :class:`~repro.service.session.ServiceSession` is a deterministic
function of its event stream -- that is the whole byte-identity contract
of service mode.  Persistence exploits it directly: instead of trying to
serialize world state on every request, each variant appends its
mutating requests (ingest / contact / select) to an append-only
**JSON-lines write-ahead log** before applying them, and recovery simply
replays the journal through the same ``ensure_node`` /
``handle_photo_created`` / ``handle_contact`` seam the live server and
the simulator share.  A recovered world is therefore not "close to" the
lost one -- it produces exactly the same coverage floats, delivered ids,
and counters an uninterrupted server would have.

Replay cost grows with the journal, so the log is periodically
**compacted into a snapshot**: the full session object graph is pickled
atomically (write-temp + fsync + rename) and the journal restarts empty.
Startup recovery loads the latest valid snapshot and replays only the
journal tail past its sequence number.

Failure semantics, from strictest to loosest:

* A **torn final record** (the process died mid-``write``) is expected:
  recovery truncates the file back to the last complete record.  The op
  was never acknowledged to any client, so dropping it preserves
  exactly-once semantics for acknowledged requests.
* A **corrupt or missing record anywhere before the tail** is a hard
  :class:`WalCorruptionError` -- silently skipping an interior record
  would replay a *different* event stream and quietly diverge from the
  lost world, which is worse than refusing to start.
* A **snapshot/journal sequence gap** (snapshot at seq N, journal
  starting past N+1) is likewise a hard :class:`RecoveryError`.
* An unreadable snapshot falls back to a full-journal replay when the
  journal still covers history from the first record; otherwise it is a
  :class:`RecoveryError`.

Durability is the ``fsync`` policy's call: ``always`` fsyncs every
append (survives OS crash and power loss), ``interval`` fsyncs at most
every ``fsync_interval_s`` seconds (bounded loss of *unacknowledged
durability*, still torn-tail safe against process ``SIGKILL`` because
writes are line-atomic in practice and truncation handles the rest),
``off`` leaves flushing to the OS (survives process death, not host
death).  See docs/SERVICE.md for the trade-off table.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .protocol import photo_from_wire, photo_to_wire
from .session import ServiceSession

__all__ = [
    "FSYNC_POLICIES",
    "WAL_FORMAT_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "WalCorruptionError",
    "RecoveryError",
    "PersistenceConfig",
    "WalRecovery",
    "WriteAheadLog",
    "SnapshotStore",
    "PersistentSession",
]

#: When each append is made durable: every record, on a timer, or never.
FSYNC_POLICIES = ("always", "interval", "off")

#: Bumped when the journal record shape changes incompatibly.
WAL_FORMAT_VERSION = 1

#: Bumped when the snapshot payload shape changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1


class WalCorruptionError(ValueError):
    """The journal is damaged somewhere replay cannot tolerate."""


class RecoveryError(ValueError):
    """Snapshot and journal disagree; the world cannot be rebuilt."""


@dataclass(frozen=True)
class PersistenceConfig:
    """How one server journals and recovers its variant worlds.

    ``wal_dir`` holds one ``<variant>.wal`` journal and one
    ``<variant>.snapshot`` per scheme variant -- champion and challenger
    journal and recover independently.  ``snapshot_every`` compacts the
    journal after that many appends (0 disables snapshots; recovery then
    replays the full journal).  ``fsync`` picks the durability policy
    described in the module docstring.
    """

    wal_dir: Union[str, Path]
    snapshot_every: int = 0
    fsync: str = "interval"
    fsync_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.fsync_interval_s <= 0.0:
            raise ValueError(
                f"fsync_interval_s must be positive, got {self.fsync_interval_s}"
            )

    @property
    def root(self) -> Path:
        return Path(self.wal_dir)

    def describe(self) -> Dict[str, Any]:
        return {
            "wal_dir": str(self.wal_dir),
            "snapshot_every": self.snapshot_every,
            "fsync": self.fsync,
            "fsync_interval_s": self.fsync_interval_s,
        }


@dataclass(frozen=True)
class WalRecovery:
    """What one startup recovery did (the manifest's recovery block)."""

    snapshot_seq: int  # 0 = no snapshot was used
    replayed_records: int
    truncated_bytes: int  # torn tail removed from the journal, if any
    duration_s: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_seq": self.snapshot_seq,
            "replayed_records": self.replayed_records,
            "truncated_bytes": self.truncated_bytes,
            "duration_s": self.duration_s,
        }


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


class WriteAheadLog:
    """One variant's append-only JSON-lines journal.

    Every record is one compact JSON object terminated by ``\\n``
    carrying a contiguous 1-based ``seq``.  JSON is the right codec for
    the same reason the wire protocol uses it: Python round-trips floats
    exactly through ``repr``, so a replayed photo is bit-identical to
    the ingested one.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        on_append: Optional[Callable[[int], None]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = Path(path)
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        #: Called with the encoded byte length after each append (metrics).
        self.on_append = on_append
        self.last_seq = 0
        self.bytes_written = 0
        self._last_fsync = time.monotonic()
        self._file: Optional[io.BufferedWriter] = None

    # -- reading -------------------------------------------------------

    @staticmethod
    def read_records(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
        """All complete records in *path*, plus torn-tail bytes to drop.

        Tolerates exactly one damage mode: an incomplete or undecodable
        *final* line (the append that was in flight when the process was
        killed).  Anything wrong earlier -- undecodable JSON, a non-object
        record, a missing/backwards ``seq`` -- raises
        :class:`WalCorruptionError`, because skipping it would replay a
        different history than the one the clients were acknowledged.
        """
        path = Path(path)
        if not path.exists():
            return [], 0
        raw = path.read_bytes()
        records: List[Dict[str, Any]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                # Torn tail: the final record never got its newline.
                return records, len(raw) - offset
            line = raw[offset:newline]
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError(f"record is {type(record).__name__}, not object")
                seq = record["seq"]
                if not isinstance(seq, int) or isinstance(seq, bool):
                    raise ValueError(f"seq is {seq!r}, not an integer")
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                if newline == len(raw) - 1:
                    # A damaged *final* record is a torn tail with a
                    # coincidental newline in the garbage: truncate it.
                    return records, len(raw) - offset
                raise WalCorruptionError(
                    f"{path}: corrupt record at byte {offset}: {exc}"
                ) from None
            expected = records[-1]["seq"] + 1 if records else None
            if expected is not None and seq != expected:
                raise WalCorruptionError(
                    f"{path}: sequence break at byte {offset}: "
                    f"expected seq {expected}, found {seq}"
                )
            records.append(record)
            offset = newline + 1
        return records, 0

    def open_for_append(self, truncate_to: Optional[int] = None) -> None:
        """Open the journal file, optionally truncating a torn tail first."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if truncate_to is not None and self.path.exists():
            with open(self.path, "r+b") as handle:
                handle.truncate(truncate_to)
                handle.flush()
                os.fsync(handle.fileno())
        self._file = open(self.path, "ab")

    # -- writing -------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> int:
        """Durably (per policy) append *record*; returns its ``seq``.

        The ``seq`` key is assigned here -- callers never number records
        themselves.
        """
        if self._file is None:
            self.open_for_append()
        assert self._file is not None
        seq = self.last_seq + 1
        payload = dict(record)
        payload["seq"] = seq
        line = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        self._file.write(line)
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
            self._last_fsync = time.monotonic()
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_fsync >= self.fsync_interval_s:
                os.fsync(self._file.fileno())
                self._last_fsync = now
        self.last_seq = seq
        self.bytes_written += len(line)
        if self.on_append is not None:
            self.on_append(len(line))
        return seq

    def sync(self) -> None:
        """Force the journal to disk regardless of policy."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._last_fsync = time.monotonic()

    def reset(self, next_seq: int) -> None:
        """Restart the journal empty (snapshot compaction).

        The old file is atomically replaced by an empty one, so a crash
        at any instant leaves either the full old journal (whose records
        the fresh snapshot makes redundant) or the new empty one.
        """
        if self._file is not None:
            self._file.close()
            self._file = None
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self.last_seq = next_seq - 1
        self.open_for_append()

    def close(self) -> None:
        if self._file is not None:
            try:
                self.sync()
            finally:
                self._file.close()
                self._file = None


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class SnapshotStore:
    """One variant's compacted world state, atomically replaced.

    The payload is the pickled :class:`ServiceSession` object graph --
    the same structures the live server mutates, so a loaded snapshot
    continues bit-for-bit where the saved one stopped (pickling a live
    session and resuming it is regression-tested against an undisturbed
    twin).  There is always at most one snapshot per variant; "latest
    valid" is enforced by the write-temp + fsync + rename dance, not by
    keeping generations around.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def save(self, seq: int, session: ServiceSession) -> int:
        """Persist *session* as the state after journal record *seq*."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": SNAPSHOT_FORMAT_VERSION,
            "seq": seq,
            "session": session,
        }
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return self.path.stat().st_size

    def load(self) -> Optional[Tuple[int, ServiceSession]]:
        """The stored ``(seq, session)``; ``None`` when absent or unreadable.

        An unreadable snapshot is reported as missing rather than fatal:
        whether recovery can proceed without it depends on how far back
        the journal reaches, which is the caller's call.
        """
        if not self.path.exists():
            return None
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != SNAPSHOT_FORMAT_VERSION
            ):
                return None
            return int(payload["seq"]), payload["session"]
        except Exception:  # noqa: BLE001 - any damage means "no snapshot"
            return None


# ----------------------------------------------------------------------
# The persistent session wrapper
# ----------------------------------------------------------------------


class PersistentSession:
    """A :class:`ServiceSession` that journals every mutating request.

    Construction *is* recovery: the wrapper loads the variant's snapshot
    (or builds a fresh world via *session_factory*), replays the journal
    tail through the live seam, truncates any torn final record, and
    only then starts accepting traffic.  ``self.recovery`` records what
    happened for the manifest's recovery block.

    Mutating calls follow strict write-ahead order -- append (durable per
    policy), then apply.  A handler that raises after its record was
    journaled is *still* deterministic: replay applies the same op to
    the same state and swallows the identical error, so recovered and
    uninterrupted worlds agree even about failed requests.
    """

    #: Errors a replayed record may raise without breaking determinism --
    #: the live request raised (and was answered with) the same error.
    _REPLAY_TOLERATED = (ValueError,)

    def __init__(
        self,
        session_factory: Callable[[], ServiceSession],
        config: PersistenceConfig,
        variant: str,
        on_append: Optional[Callable[[int], None]] = None,
        on_recovery: Optional[Callable[[WalRecovery], None]] = None,
        on_snapshot: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config
        self.variant = variant
        self._on_snapshot = on_snapshot
        root = config.root
        self.wal = WriteAheadLog(
            root / f"{variant}.wal",
            fsync=config.fsync,
            fsync_interval_s=config.fsync_interval_s,
            on_append=on_append,
        )
        self.snapshots = SnapshotStore(root / f"{variant}.snapshot")
        self.snapshot_seq = 0
        self.session = self._recover(session_factory)
        if on_recovery is not None:
            on_recovery(self.recovery)

    # -- recovery ------------------------------------------------------

    def _recover(self, session_factory: Callable[[], ServiceSession]) -> ServiceSession:
        started = time.perf_counter()
        records, torn_bytes = WriteAheadLog.read_records(self.wal.path)
        loaded = self.snapshots.load()
        if loaded is not None:
            self.snapshot_seq, session = loaded
        else:
            if records and records[0]["seq"] != 1:
                raise RecoveryError(
                    f"{self.wal.path}: no usable snapshot, but the journal "
                    f"starts at seq {records[0]['seq']} (already compacted); "
                    "the world cannot be rebuilt"
                )
            self.snapshot_seq, session = 0, session_factory()
        tail = [r for r in records if r["seq"] > self.snapshot_seq]
        if tail and tail[0]["seq"] != self.snapshot_seq + 1:
            raise RecoveryError(
                f"{self.wal.path}: snapshot is at seq {self.snapshot_seq} but "
                f"the journal tail starts at seq {tail[0]['seq']}; "
                f"records {self.snapshot_seq + 1}..{tail[0]['seq'] - 1} are missing"
            )
        for record in tail:
            try:
                self._apply(session, record)
            except (WalCorruptionError, RecoveryError):
                raise  # structural damage, not a replayed request error
            except self._REPLAY_TOLERATED:
                # The live request failed the same way and was answered
                # with that error; state-wise this is a faithful replay.
                pass
        # max() guards a journal strictly older than the snapshot (a crash
        # between snapshot write and journal truncation): appends must
        # continue from the snapshot's seq, never rewind behind it.
        last_seq = records[-1]["seq"] if records else 0
        self.wal.last_seq = max(last_seq, self.snapshot_seq)
        if torn_bytes:
            size = self.wal.path.stat().st_size
            self.wal.open_for_append(truncate_to=size - torn_bytes)
        else:
            self.wal.open_for_append()
        self.recovery = WalRecovery(
            snapshot_seq=self.snapshot_seq,
            replayed_records=len(tail),
            truncated_bytes=torn_bytes,
            duration_s=time.perf_counter() - started,
        )
        return session

    @staticmethod
    def _apply(session: ServiceSession, record: Dict[str, Any]) -> Any:
        op = record.get("op")
        if op == "ingest":
            return session.ingest(
                record["user"], photo_from_wire(record["photo"]), record["time"]
            )
        if op == "contact":
            return session.contact(
                record["a"], record["b"], record["time"], record["duration"]
            )
        if op == "select":
            return session.select_on_contact(
                record["user"], record["time"], record["duration"]
            )
        raise WalCorruptionError(f"journal record {record.get('seq')}: unknown op {op!r}")

    # -- the mutating operations (journal, then apply) -----------------

    def ingest(self, owner_id: int, photo, now: float):
        self.wal.append(
            {"op": "ingest", "user": owner_id, "time": now, "photo": photo_to_wire(photo)}
        )
        try:
            return self.session.ingest(owner_id, photo, now)
        finally:
            self._maybe_snapshot()

    def contact(self, node_a_id: int, node_b_id: int, now: float, duration: float):
        self.wal.append(
            {"op": "contact", "a": node_a_id, "b": node_b_id, "time": now, "duration": duration}
        )
        try:
            return self.session.contact(node_a_id, node_b_id, now, duration)
        finally:
            self._maybe_snapshot()

    def select_on_contact(self, node_id: int, now: float, duration: float):
        self.wal.append(
            {"op": "select", "user": node_id, "time": now, "duration": duration}
        )
        try:
            return self.session.select_on_contact(node_id, now, duration)
        finally:
            self._maybe_snapshot()

    def _maybe_snapshot(self) -> None:
        every = self.config.snapshot_every
        if every <= 0 or self.wal.last_seq - self.snapshot_seq < every:
            return
        seq = self.wal.last_seq
        self.snapshots.save(seq, self.session)
        self.snapshot_seq = seq
        self.wal.reset(next_seq=seq + 1)
        if self._on_snapshot is not None:
            self._on_snapshot(seq)

    # -- read-only delegation ------------------------------------------

    @property
    def scheme_spec(self) -> str:
        return self.session.scheme_spec

    @property
    def simulation(self):
        return self.session.simulation

    @property
    def requests(self) -> int:
        return self.session.requests

    def coverage(self):
        return self.session.coverage()

    def describe(self) -> Dict[str, object]:
        summary = self.session.describe()
        summary["persistence"] = {
            **self.config.describe(),
            "wal_records": self.wal.last_seq - self.snapshot_seq,
            "wal_bytes": self.wal.bytes_written,
            "snapshot_seq": self.snapshot_seq,
            "recovery": self.recovery.as_dict(),
        }
        return summary

    def close(self) -> None:
        """Flush and close the journal (graceful server shutdown)."""
        self.wal.close()

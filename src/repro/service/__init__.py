"""Always-on service mode: the command center as a long-lived server.

The paper's command center is a batch abstraction -- the simulator plays
a recorded contact trace against it.  This package turns it into a live
asyncio service speaking newline-delimited JSON (plus a hand-rolled
``GET /metrics`` scrape endpoint) with:

* :mod:`~repro.service.session` -- one scheme variant's world, driven
  through the simulator's contact-handling seam so live selections are
  byte-identical to simulated ones;
* :mod:`~repro.service.router` -- deterministic champion/challenger
  traffic splitting with automatic fallback;
* :mod:`~repro.service.server` -- the asyncio server, instrumented with
  :mod:`repro.obs` metrics and emitting a session manifest on shutdown;
* :mod:`~repro.service.client` -- a blocking client and the
  trace-replay harness (``repro replay``);
* :mod:`~repro.service.persistence` -- durable mode: a per-variant
  write-ahead journal with snapshot compaction and byte-identical
  startup recovery (``repro serve --wal-dir``).

Everything is standard library only; see ``docs/SERVICE.md``.
"""

from .client import (
    ReplayReport,
    ServiceClient,
    ServiceError,
    ServiceTimeoutError,
    http_get,
    iter_scenario_events,
    replay_scenario,
    scenario_requests,
)
from .persistence import (
    FSYNC_POLICIES,
    PersistenceConfig,
    PersistentSession,
    RecoveryError,
    SnapshotStore,
    WalCorruptionError,
    WalRecovery,
    WriteAheadLog,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    photo_from_wire,
    photo_to_wire,
)
from .router import CHALLENGER, CHAMPION, RouteDecision, RoutingConfig, SchemeRouter
from .server import CommandCenterServer, ServiceMetrics
from .session import (
    TIME_POLICIES,
    ContactOutcome,
    CoverageReport,
    IngestOutcome,
    SelectionOutcome,
    ServiceSession,
    StaleRequestError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "photo_to_wire",
    "photo_from_wire",
    "TIME_POLICIES",
    "ServiceSession",
    "StaleRequestError",
    "IngestOutcome",
    "ContactOutcome",
    "SelectionOutcome",
    "CoverageReport",
    "CHAMPION",
    "CHALLENGER",
    "RoutingConfig",
    "RouteDecision",
    "SchemeRouter",
    "CommandCenterServer",
    "ServiceMetrics",
    "FSYNC_POLICIES",
    "PersistenceConfig",
    "PersistentSession",
    "WalRecovery",
    "WriteAheadLog",
    "SnapshotStore",
    "WalCorruptionError",
    "RecoveryError",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeoutError",
    "ReplayReport",
    "http_get",
    "iter_scenario_events",
    "replay_scenario",
    "scenario_requests",
]

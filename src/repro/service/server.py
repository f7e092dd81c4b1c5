"""The always-on command-center server.

One asyncio TCP listener, two protocols on the same port:

* **JSON lines** -- the request/response protocol of
  :mod:`repro.service.protocol` (ingest, contact, select, coverage,
  stats, metrics, shutdown).  Connections are long-lived; requests on a
  connection are answered in order.
* **HTTP/1.1 (hand-rolled)** -- a connection whose first line is a
  ``GET``/``HEAD`` request is served as a one-shot scrape endpoint:
  ``/metrics`` answers with the Prometheus text exposition format from
  the server's :class:`~repro.obs.registry.MetricsRegistry`, ``/healthz``
  with ``ok``.  This keeps ``curl`` and a Prometheus scraper working
  without any HTTP dependency.

State mutation is single-threaded by construction: request processing is
synchronous inside the event loop, so two connections can never
interleave inside a selection.  Every state-changing request routes
through the :class:`~repro.service.router.SchemeRouter` -- each variant
owns an independent :class:`~repro.service.session.ServiceSession`
world, and a user's requests deterministically stick to one variant.

On shutdown the server writes a service-session run manifest
(:func:`repro.obs.manifest.build_service_manifest`) recording the
routing summary, per-variant outcomes and latency quantiles, and the
full metric snapshot.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .. import __version__
from ..core.poi import PoIList
from ..dtn.simulator import SimulationConfig
from ..obs.manifest import build_service_manifest, write_manifest
from ..obs.registry import MetricsRegistry
from ..traces.model import COMMAND_CENTER_ID
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    photo_from_wire,
    require_field,
    require_int,
    require_number,
)
from .persistence import PersistenceConfig, PersistentSession, WalRecovery
from .router import RoutingConfig, SchemeRouter
from .session import ServiceSession, StaleRequestError

__all__ = ["REQUEST_LATENCY_BUCKETS", "ServiceMetrics", "CommandCenterServer"]

#: Request-latency buckets, sub-millisecond to seconds (selection on a
#: loaded buffer is the slow path worth resolving).
REQUEST_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class ServiceMetrics:
    """The server's metric families, on one :class:`MetricsRegistry`."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.connections = self.registry.counter(
            "repro_service_connections_total", "TCP connections accepted"
        )
        self.requests = self.registry.counter(
            "repro_service_requests_total",
            "requests handled, by op, serving variant, and status",
        )
        self.request_seconds = self.registry.histogram(
            "repro_service_request_seconds",
            "request handling latency by serving variant",
            buckets=REQUEST_LATENCY_BUCKETS,
        )
        self.fallbacks = self.registry.counter(
            "repro_service_router_fallbacks_total",
            "requests that fell back from the challenger to the champion",
        )
        self.internal_errors = self.registry.counter(
            "repro_service_internal_errors_total",
            "requests that raised an unhandled exception inside a handler",
        )
        self.photos_ingested = self.registry.counter(
            "repro_service_photos_ingested_total", "photos ingested by variant"
        )
        self.photos_delivered = self.registry.counter(
            "repro_service_photos_delivered_total",
            "photos delivered to the command center by variant",
        )
        self.coverage_point = self.registry.gauge(
            "repro_service_coverage_point",
            "command-center normalized point coverage by variant",
        )
        self.coverage_aspect = self.registry.gauge(
            "repro_service_coverage_aspect_deg",
            "command-center aspect coverage (degrees) by variant",
        )
        self.wal_appends = self.registry.counter(
            "repro_service_wal_appends_total",
            "write-ahead journal records appended by variant",
        )
        self.wal_bytes = self.registry.counter(
            "repro_service_wal_bytes_total",
            "write-ahead journal bytes written by variant",
        )
        self.wal_snapshots = self.registry.counter(
            "repro_service_wal_snapshots_total",
            "snapshot compactions taken by variant",
        )
        self.recovery_seconds = self.registry.timer(
            "repro_service_recovery_seconds",
            "startup recovery duration (snapshot load + journal replay) by variant",
        )

    def observe_request(
        self, op: str, variant: str, status: str, seconds: float
    ) -> None:
        self.requests.labels(op=op, variant=variant, status=status).inc()
        self.request_seconds.labels(variant=variant).observe(seconds)

    def latency_quantiles(self, variant: str) -> Dict[str, float]:
        return self.request_seconds.labels(variant=variant).latency_summary()


class CommandCenterServer:
    """The live photo-crowdsourcing command center.

    Construction needs the same world parameters a simulation does -- a
    PoI list and a :class:`SimulationConfig` -- plus the routing split.
    ``port=0`` binds an ephemeral port; ``address`` carries the bound
    ``(host, port)`` once ``ready`` is set, which is how tests and the
    replay client rendezvous with a server running on another thread.
    """

    def __init__(
        self,
        pois: PoIList,
        config: Optional[SimulationConfig] = None,
        routing: Optional[RoutingConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        manifest_path: Optional[str] = None,
        ready_callback: Optional[Callable[[str, int], None]] = None,
        time_policy: str = "strict",
        persistence: Optional[PersistenceConfig] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.manifest_path = manifest_path
        self.routing = routing if routing is not None else RoutingConfig()
        self.metrics = ServiceMetrics()
        self.persistence = persistence
        self.recoveries: Dict[str, WalRecovery] = {}
        sim_config = config if config is not None else SimulationConfig()

        def build_backend(spec: str, variant: str) -> Any:
            def make_session() -> ServiceSession:
                return ServiceSession(
                    spec, pois, sim_config, variant=variant, time_policy=time_policy
                )

            if persistence is None:
                return make_session()
            return PersistentSession(
                make_session,
                persistence,
                variant,
                on_append=lambda nbytes: self._on_wal_append(variant, nbytes),
                on_recovery=lambda rec: self._on_recovery(variant, rec),
                on_snapshot=lambda seq: self.metrics.wal_snapshots.labels(
                    variant=variant
                ).inc(),
            )

        self.router = SchemeRouter(self.routing, backend_factory=build_backend)
        self._ready_callback = ready_callback
        self.ready = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self.last_manifest: Optional[Dict[str, Any]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _on_wal_append(self, variant: str, nbytes: int) -> None:
        self.metrics.wal_appends.labels(variant=variant).inc()
        self.metrics.wal_bytes.labels(variant=variant).inc(nbytes)

    def _on_recovery(self, variant: str, recovery: WalRecovery) -> None:
        self.recoveries[variant] = recovery
        self.metrics.recovery_seconds.labels(variant=variant).observe(
            recovery.duration_s
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Serve until a ``shutdown`` request; returns the session manifest.

        Blocking entry point -- what ``repro serve`` calls, and what tests
        run on a background thread.
        """
        return asyncio.run(self.run_async())

    async def run_async(self) -> Dict[str, Any]:
        await self.start()
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        return await self.stop()

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)``."""
        # Created here, not in __init__: on 3.9 an asyncio.Event binds the
        # event loop current at construction time.
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self.port = self.address[1]
        if self._ready_callback is not None:
            self._ready_callback(*self.address)
        self.ready.set()
        return self.address

    async def stop(self) -> Dict[str, Any]:
        """Close the listener and write/return the session manifest."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in self.router.backends().values():
            close = getattr(session, "close", None)
            if close is not None:
                close()
        manifest = self.build_manifest()
        self.last_manifest = manifest
        if self.manifest_path is not None:
            write_manifest(self.manifest_path, manifest)
        return manifest

    def request_shutdown(self) -> None:
        """Ask the server to stop; safe to call from any thread.

        A no-op once the server has stopped: a client ``shutdown`` request
        may already have ended :meth:`run` and closed its event loop.
        """
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            # The loop can close between any check and this call.
            if not loop.is_closed():
                raise

    def build_manifest(self) -> Dict[str, Any]:
        """The service-session manifest for the current state."""
        variants: Dict[str, Dict[str, Any]] = {}
        for name, session in self.router.backends().items():
            summary = session.describe()
            summary["latency"] = self.metrics.latency_quantiles(name)
            variants[name] = summary
        return build_service_manifest(
            routing=self.router.describe(),
            variants=variants,
            metrics=self.metrics.registry.snapshot(),
            extra={"protocol_version": PROTOCOL_VERSION, "version": __version__},
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections.inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"GET ") or stripped.startswith(b"HEAD "):
                    await self._serve_http(stripped, reader, writer)
                    break
                response = self._process_line(stripped)
                writer.write(encode_message(response))
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    assert self._shutdown_event is not None
                    self._shutdown_event.set()
                    break
        except asyncio.CancelledError:
            # Loop teardown with the connection still open (a load client
            # lingering past shutdown): finish cleanly so the streams
            # done-callback doesn't log the cancellation as an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot HTTP/1.1 exchange for scrapers (``Connection: close``)."""
        # Drain the header block; we only care about the request line.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        parts = request_line.split()
        method = parts[0].decode("latin-1") if parts else "GET"
        path = parts[1].decode("latin-1") if len(parts) > 1 else "/"
        path = path.split("?", 1)[0]
        if path == "/metrics":
            status, body = "200 OK", self.metrics.registry.to_prometheus()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            status, body = "200 OK", "ok\n"
            content_type = "text/plain; charset=utf-8"
        else:
            status, body = "404 Not Found", f"no such path: {path}\n"
            content_type = "text/plain; charset=utf-8"
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head if method == "HEAD" else head + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Request processing (synchronous: one request at a time, ever)
    # ------------------------------------------------------------------

    def _process_line(self, line: bytes) -> Dict[str, Any]:
        started = time.perf_counter()
        op = "?"
        request_id: Any = None
        try:
            payload = decode_message(line)
            request_id = payload.get("id")
            op_field = payload.get("op")
            if not isinstance(op_field, str):
                raise ProtocolError("missing or non-string 'op'")
            op = op_field
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r}; known: {sorted(self._HANDLERS)}"
                )
            response = handler(self, payload)
        except ProtocolError as exc:
            response = error_response("bad-request", str(exc), op=op)
        except StaleRequestError as exc:
            response = error_response("stale-time", str(exc), op=op)
        except ValueError as exc:
            response = error_response("bad-request", str(exc), op=op)
        except Exception as exc:  # noqa: BLE001 - a request never kills the server
            self.metrics.internal_errors.inc()
            response = error_response(
                "internal", f"{type(exc).__name__}: {exc}", op=op
            )
        variant = response.pop("_variant", "-")
        status = "ok" if response.get("ok") else "error"
        self.metrics.observe_request(op, variant, status, time.perf_counter() - started)
        if request_id is not None:
            response["id"] = request_id
        return response

    # -- op handlers ---------------------------------------------------

    def _op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            "ping",
            protocol=PROTOCOL_VERSION,
            server="repro.service",
            version=__version__,
        )

    def _op_ingest(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        user = require_int(payload, "user")
        now = require_number(payload, "time")
        photo = photo_from_wire(require_field(payload, "photo"))
        decision, outcome = self.router.dispatch(
            user, lambda session: session.ingest(user, photo, now)
        )
        self.metrics.photos_ingested.labels(variant=decision.variant).inc()
        return ok_response(
            "ingest",
            variant=decision.variant,
            requested_variant=decision.requested,
            fell_back=decision.fell_back,
            dispatched=outcome.dispatched,
            stored=outcome.stored,
            buffered=outcome.buffered,
            _variant=decision.variant,
        )

    def _op_contact(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        node_a = require_int(payload, "a")
        node_b = require_int(payload, "b")
        now = require_number(payload, "time")
        duration = require_number(payload, "duration")
        user = payload.get("user")
        if user is None:
            # Route by the non-center participant (uplinks), else node a.
            user = node_b if node_a == COMMAND_CENTER_ID else node_a
        elif isinstance(user, bool) or not isinstance(user, int):
            raise ProtocolError(f"field 'user' must be an integer, got {user!r}")
        decision, outcome = self.router.dispatch(
            user, lambda session: session.contact(node_a, node_b, now, duration)
        )
        return self._contact_response("contact", decision, outcome)

    def _op_select(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        user = require_int(payload, "user")
        now = require_number(payload, "time")
        duration = require_number(payload, "duration")
        decision, outcome = self.router.dispatch(
            user,
            lambda session: session.select_on_contact(user, now, duration),
        )
        return self._contact_response("select", decision, outcome)

    def _contact_response(
        self, op: str, decision: Any, outcome: Any
    ) -> Dict[str, Any]:
        common = dict(
            variant=decision.variant,
            requested_variant=decision.requested,
            fell_back=decision.fell_back,
            _variant=decision.variant,
        )
        if hasattr(outcome, "delivered_photo_ids"):
            self._observe_selection(decision.variant, outcome)
            return ok_response(
                op,
                kind="selection",
                processed=outcome.processed,
                delivered=list(outcome.delivered_photo_ids),
                kept=list(outcome.kept_photo_ids),
                delivered_total=outcome.delivered_total,
                point_coverage=outcome.point_coverage,
                aspect_coverage_deg=outcome.aspect_coverage_deg,
                **common,
            )
        return ok_response(op, kind="contact", processed=outcome.processed, **common)

    def _observe_selection(self, variant: str, outcome: Any) -> None:
        if outcome.delivered_photo_ids:
            self.metrics.photos_delivered.labels(variant=variant).inc(
                len(outcome.delivered_photo_ids)
            )
        self.metrics.coverage_point.labels(variant=variant).set(
            outcome.point_coverage
        )
        self.metrics.coverage_aspect.labels(variant=variant).set(
            outcome.aspect_coverage_deg
        )

    def _op_coverage(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        variants = {}
        for name, session in self.router.backends().items():
            report = session.coverage()
            variants[name] = {
                "scheme": session.scheme_spec,
                "point_coverage": report.point_coverage,
                "aspect_coverage_deg": report.aspect_coverage_deg,
                "delivered_photos": report.delivered_photos,
                "created_photos": report.created_photos,
                "contacts_processed": report.contacts_processed,
                "center_contacts": report.center_contacts,
                "nodes": report.nodes,
            }
        return ok_response("coverage", variants=variants)

    def _op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        variants = {}
        for name, session in self.router.backends().items():
            summary = session.describe()
            summary["latency"] = self.metrics.latency_quantiles(name)
            variants[name] = summary
        return ok_response(
            "stats",
            router=self.router.describe(),
            variants=variants,
            connections=self.metrics.connections.value,
        )

    def _op_metrics(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response("metrics", text=self.metrics.registry.to_prometheus())

    def _op_shutdown(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response("shutdown")

    _HANDLERS: Dict[str, Callable[..., Dict[str, Any]]] = {
        "ping": _op_ping,
        "ingest": _op_ingest,
        "contact": _op_contact,
        "select": _op_select,
        "coverage": _op_coverage,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "shutdown": _op_shutdown,
    }

"""Synchronous client and the scenario replay harness.

:class:`ServiceClient` is a blocking JSON-lines client (plain sockets,
connect-with-retry so it can race a server that is still booting);
:func:`replay_scenario` feeds a built
:class:`~repro.experiments.config.Scenario` through a live server in
**simulator event order** -- :func:`iter_scenario_events` builds the
:class:`~repro.dtn.events.EventQueue` ``Simulation`` would use (photo
arrivals as its lane, contacts pushed in trace order with the duration
cap applied; ties break by event-kind priority then push sequence), and
:func:`scenario_requests` turns those events into the wire requests, so
the server's world receives the same event stream ``Simulation.run()``
processes and its selections are byte-identical to the simulator's.
"""

from __future__ import annotations

import itertools
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..dtn.events import Event, EventKind, EventQueue
from .protocol import decode_message, encode_message, photo_to_wire

__all__ = [
    "ServiceError",
    "ServiceTimeoutError",
    "ServiceClient",
    "http_get",
    "iter_scenario_events",
    "scenario_requests",
    "ReplayReport",
    "replay_scenario",
]


class ServiceError(RuntimeError):
    """The server answered ``ok: false``."""

    def __init__(self, response: Dict[str, Any]) -> None:
        error = response.get("error", {})
        self.code = error.get("code", "unknown")
        self.response = response
        super().__init__(f"{self.code}: {error.get('message', response)}")


class ServiceTimeoutError(RuntimeError):
    """A request did not complete within its timeout.

    Raised instead of hanging on a stalled socket; the connection is
    closed (a late response would desynchronize the request/response
    pairing), so the client must reconnect before issuing more requests.
    The load generator counts these as errors against the SLO budget.
    """

    def __init__(self, op: str, timeout: float) -> None:
        self.op = op
        self.timeout = timeout
        super().__init__(f"request {op!r} timed out after {timeout:g}s")


class ServiceClient:
    """A blocking JSON-lines client for the command-center service.

    Connection establishment retries until *connect_timeout* elapses,
    which lets a replay start while ``repro serve`` is still binding its
    socket (the CI smoke job does exactly this).

    *timeout* bounds every request round trip (None waits forever);
    :meth:`request` takes a per-request override.  A request that times
    out raises :class:`ServiceTimeoutError` and closes the connection --
    a late response arriving after the caller moved on would be paired
    with the wrong request.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7616,
        timeout: Optional[float] = 30.0,
        connect_timeout: float = 10.0,
        retry_interval_s: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        deadline = time.monotonic() + connect_timeout
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(retry_interval_s)
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------------

    def request(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One request/response round trip.

        Raises :class:`ServiceError` when the server reports a failure
        and :class:`ServiceTimeoutError` when the round trip exceeds
        *timeout* (default: the client's constructor timeout).  The
        reserved *timeout* keyword never travels on the wire.
        """
        effective = self.timeout if timeout is None else timeout
        if effective != self._sock.gettimeout():
            self._sock.settimeout(effective)
        payload = {"op": op}
        payload.update(fields)
        try:
            self._file.write(encode_message(payload))
            self._file.flush()
            line = self._file.readline()
        except socket.timeout:
            self.close()
            raise ServiceTimeoutError(op, effective) from None
        if not line:
            raise ConnectionError("server closed the connection")
        response = decode_message(line)
        if not response.get("ok"):
            raise ServiceError(response)
        return response

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def ingest(self, owner_id: int, photo, now: float) -> Dict[str, Any]:
        return self.request(
            "ingest", user=owner_id, time=now, photo=photo_to_wire(photo)
        )

    def contact(
        self, node_a_id: int, node_b_id: int, now: float, duration: float
    ) -> Dict[str, Any]:
        return self.request(
            "contact", a=node_a_id, b=node_b_id, time=now, duration=duration
        )

    def select(self, user_id: int, now: float, duration: float) -> Dict[str, Any]:
        return self.request("select", user=user_id, time=now, duration=duration)

    def coverage(self) -> Dict[str, Any]:
        return self.request("coverage")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def http_get(
    host: str, port: int, path: str = "/metrics", timeout: float = 10.0
) -> tuple:
    """Minimal HTTP GET against the server's scrape port.

    Returns ``(status_code, body)``; exists so tests and scripts can
    exercise the Prometheus endpoint without an HTTP library.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
        )
        sock.sendall(request.encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) > 1 else 0
    return status, body.decode("utf-8")


# ----------------------------------------------------------------------
# Scenario replay
# ----------------------------------------------------------------------


def iter_scenario_events(scenario) -> Iterator[Event]:
    """The scenario's photo/contact events in simulator order.

    Builds the queue ``Simulation.__init__`` builds -- the arrivals as an
    :class:`EventQueue` lane, then the contacts (duration cap applied)
    pushed in trace order -- so the ``(time, kind, sequence)`` order
    matches the simulator's exactly.  Crash/sample/end events are the
    simulator's own; a live server has no trace-driven faults or
    sampling, so replay covers fault-free scenarios.
    """
    queue = EventQueue(scenario.photo_arrivals)
    cap = scenario.config.contact_duration_cap_s
    for contact in scenario.trace:
        duration = contact.duration
        if cap is not None:
            duration = min(duration, cap)
        queue.push(
            Event(
                contact.start,
                EventKind.CONTACT,
                (contact.node_a, contact.node_b, duration),
            )
        )
    while queue:
        yield queue.pop()


def scenario_requests(scenario) -> Iterator[Dict[str, Any]]:
    """The scenario's ``ingest``/``contact`` requests, in simulator order.

    One wire-ready request dict per :func:`iter_scenario_events` event;
    :func:`replay_scenario` sends exactly these.
    """
    for event in iter_scenario_events(scenario):
        if event.kind == EventKind.PHOTO_CREATED:
            owner_id, photo = event.payload
            yield {
                "op": "ingest",
                "user": owner_id,
                "time": event.time,
                "photo": photo_to_wire(photo),
            }
        else:
            node_a, node_b, duration = event.payload[:3]
            yield {
                "op": "contact",
                "a": node_a,
                "b": node_b,
                "time": event.time,
                "duration": duration,
            }


def _format_ms(seconds: Optional[float]) -> str:
    """A latency quantile in ms; ``n/a`` for the ``None`` of an empty series."""
    return "n/a" if seconds is None else f"{seconds * 1000.0:.2f}ms"


@dataclass
class ReplayReport:
    """What one replay produced, plus the server's closing stats."""

    events: int = 0
    photos: int = 0
    contacts: int = 0
    selections: int = 0
    delivered_photo_ids: List[int] = field(default_factory=list)
    coverage: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def delivered_total(self) -> int:
        return len(self.delivered_photo_ids)

    def describe(self) -> str:
        lines = [
            f"replayed {self.events} events "
            f"({self.photos} photos, {self.contacts} contacts, "
            f"{self.selections} uplink selections)",
            f"delivered {self.delivered_total} photos to the command center",
        ]
        for name, report in sorted(self.coverage.items()):
            lines.append(
                f"  {name:10s} [{report.get('scheme', '?')}] "
                f"point {report.get('point_coverage', 0.0):.3f}  "
                f"aspect {report.get('aspect_coverage_deg', 0.0):.1f} deg  "
                f"delivered {report.get('delivered_photos', 0)}"
            )
        for name, summary in sorted(self.stats.get("variants", {}).items()):
            latency = summary.get("latency", {})
            p50, p95, p99 = (
                _format_ms(latency.get(key)) for key in ("p50_s", "p95_s", "p99_s")
            )
            lines.append(
                f"  {name:10s} latency p50 {p50}  p95 {p95}  p99 {p99}  "
                f"({summary.get('requests', 0)} requests)"
            )
        router = self.stats.get("router", {})
        if router.get("challenger"):
            lines.append(
                f"  routing: champion {router.get('champion_pct', 0):g}% / "
                f"challenger {router.get('challenger_pct', 0):g}%  "
                f"fallbacks {router.get('fallbacks', 0)}"
            )
        return "\n".join(lines)


def replay_scenario(
    client: ServiceClient,
    scenario,
    limit: Optional[int] = None,
    skip: int = 0,
    shutdown: bool = False,
    progress: Optional[Any] = None,
) -> ReplayReport:
    """Send *scenario*'s :func:`scenario_requests` through a live server.

    The requests sent are the slice ``[skip, skip + limit)`` of the
    stream.  *limit* truncates it (CI smoke uses a short prefix); *skip*
    drops the first N events without sending them -- how a replay resumes
    against a durable server that already recovered those events from
    its write-ahead log (``--limit N`` then, after the restart,
    ``--skip N``).  *shutdown* asks the server to exit -- and write its
    manifest -- after the closing ``coverage``/``stats`` reads.
    *progress*, if given, is called with the running event count every
    500 events.
    """
    if skip < 0 or (limit is not None and limit < 0):
        raise ValueError(f"skip and limit must be non-negative, got {skip} and {limit}")
    report = ReplayReport()
    stop = None if limit is None else skip + limit
    for request in itertools.islice(scenario_requests(scenario), skip, stop):
        response = client.request(**request)
        report.events += 1
        if request["op"] == "ingest":
            report.photos += 1
        elif response.get("kind") == "selection":
            report.selections += 1
            report.delivered_photo_ids.extend(response.get("delivered", ()))
        else:
            report.contacts += 1
        if progress is not None and report.events % 500 == 0:
            progress(report.events)
    report.coverage = client.coverage()["variants"]
    report.stats = client.stats()
    if shutdown:
        client.shutdown()
    return report

"""The open-loop async load driver.

One :func:`run_load` call executes a :class:`~repro.loadgen.plan.LoadPlan`
against a live ``repro serve`` instance:

* a **producer** task paces the stage's pre-drawn arrival schedule on the
  wall clock and enqueues wire-ready ops (open loop: the queue absorbs
  server slowness instead of back-pressuring the arrival process);
* ``stage.concurrency`` **worker** tasks each own one JSON-lines
  connection, pull ops, and measure the request round trip under
  ``asyncio.wait_for`` timeouts;
* a **sampler** task snapshots offered/completed counts every second, so
  the report can show achieved-vs-offered rate over time;
* optional client-side **chaos** tears worker connections down right
  after a request is written (before the response is read), then
  reconnects -- the half-closed-connection path servers get wrong.

Latencies land in a :mod:`repro.obs` histogram labelled by op kind;
accounting is exact: every scheduled op ends in exactly one of
``ok`` / ``service_error`` / ``timeout`` / ``connection_error`` /
``killed``, and the chaos-soak test asserts that identity.

Everything runs on one event loop, so counters need no locks.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.registry import MetricsRegistry
from ..service.protocol import decode_message, encode_message
from ..service.server import REQUEST_LATENCY_BUCKETS
from .arrivals import stage_arrivals
from .plan import LoadPlan, LoadStage
from .workload import make_workload

__all__ = ["Accounting", "StageResult", "LoadResult", "run_load"]

OP_KINDS = ("ingest", "contact", "select")

#: Outcome categories; every attempted op lands in exactly one.
OUTCOMES = ("ok", "service_error", "timeout", "connection_error", "killed")


@dataclass
class Accounting:
    """Exact op accounting for one run (or one stage)."""

    sent: int = 0
    ok: int = 0
    service_error: int = 0
    timeout: int = 0
    connection_error: int = 0
    killed: int = 0
    reconnects: int = 0
    errors_by_code: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.service_error + self.timeout + self.connection_error + self.killed

    @property
    def error_rate(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    def consistent(self) -> bool:
        """The accounting identity the chaos-soak test asserts."""
        return self.sent == self.ok + self.failed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "service_error": self.service_error,
            "timeout": self.timeout,
            "connection_error": self.connection_error,
            "killed": self.killed,
            "reconnects": self.reconnects,
            "error_rate": self.error_rate,
            "errors_by_code": dict(sorted(self.errors_by_code.items())),
        }


@dataclass
class StageResult:
    """What one stage offered and what the server absorbed."""

    name: str
    process: str
    gate_rate: bool
    offered: int = 0
    completed: int = 0
    ok: int = 0
    duration_s: float = 0.0
    planned_duration_s: float = 0.0
    max_lag_s: float = 0.0  # worst (send start - scheduled deadline)
    samples: List[Dict[str, float]] = field(default_factory=list)

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def achieved_rate(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def attainment(self) -> float:
        """Completed-ok fraction of offered load (1.0 when nothing offered)."""
        return self.ok / self.offered if self.offered else 1.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "process": self.process,
            "gate_rate": self.gate_rate,
            "offered": self.offered,
            "completed": self.completed,
            "ok": self.ok,
            "duration_s": self.duration_s,
            "planned_duration_s": self.planned_duration_s,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "attainment": self.attainment,
            "max_lag_s": self.max_lag_s,
            "samples": list(self.samples),
        }


@dataclass
class LoadResult:
    """Everything one plan execution produced."""

    plan: LoadPlan
    host: str
    port: int
    stages: List[StageResult] = field(default_factory=list)
    accounting: Accounting = field(default_factory=Accounting)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    server_stats: Optional[Dict[str, Any]] = None
    wall_duration_s: float = 0.0

    def __post_init__(self) -> None:
        self.op_latency = self.registry.histogram(
            "repro_loadgen_op_latency_seconds",
            "client-measured request round-trip time",
            buckets=REQUEST_LATENCY_BUCKETS,
        )

    def observe(self, kind: str, seconds: float) -> None:
        self.op_latency.labels(op=kind).observe(seconds)

    def op_quantiles(self) -> Dict[str, Dict[str, float]]:
        """Per-op-kind p50/p95/p99 over the whole run."""
        out: Dict[str, Dict[str, float]] = {}
        for kind in OP_KINDS:
            series = self.op_latency.labels(op=kind)
            if series.count:
                out[kind] = series.latency_summary()
        return out


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------


class _Conn:
    """One worker's JSON-lines connection (reconnects on demand)."""

    def __init__(self, host: str, port: int, connect_timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.ever_connected = False

    async def ensure(self) -> bool:
        """Connect if needed; True for a RE-connect (not the first one)."""
        if self.writer is not None:
            return False
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.connect_timeout
        )
        was_connected, self.ever_connected = self.ever_connected, True
        return was_connected

    def abort(self) -> None:
        """Tear the connection down without ceremony (chaos + error path)."""
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    async def send(self, payload: Dict[str, Any], timeout: float) -> None:
        assert self.writer is not None
        self.writer.write(encode_message(payload))
        await asyncio.wait_for(self.writer.drain(), timeout)

    async def roundtrip(self, payload: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        assert self.reader is not None
        await self.send(payload, timeout)
        raw = await asyncio.wait_for(self.reader.readline(), timeout)
        if not raw:
            raise ConnectionError("server closed the connection")
        return decode_message(raw)


class _KillSchedule:
    """Per-worker exponential connection-kill instants (None = disabled)."""

    def __init__(self, plan: LoadPlan, worker_index: int) -> None:
        chaos = plan.chaos
        self.mean = chaos.kill_every_s
        self.reconnect_delay_s = chaos.reconnect_delay_s
        self.rng = random.Random(f"{plan.seed}:chaos:{worker_index}")
        self.next_kill: Optional[float] = None

    def arm(self, now: float) -> None:
        if self.mean is not None and self.next_kill is None:
            self.next_kill = now + self.rng.expovariate(1.0 / self.mean)

    def due(self, now: float) -> bool:
        return self.next_kill is not None and now >= self.next_kill

    def rearm(self, now: float) -> None:
        assert self.mean is not None
        self.next_kill = now + self.rng.expovariate(1.0 / self.mean)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

_SENTINEL = object()


class _Driver:
    def __init__(
        self,
        plan: LoadPlan,
        host: str,
        port: int,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.plan = plan
        self.host = host
        self.port = port
        self.progress = progress or (lambda message: None)
        self.result = LoadResult(plan=plan, host=host, port=port)
        self.workload = make_workload(plan)
        self.conns: List[_Conn] = []
        self.kills: List[_KillSchedule] = []
        self.virtual_base = 0.0

    def _conn(self, index: int) -> Tuple[_Conn, _KillSchedule]:
        """Worker *index*'s connection and kill schedule (persist across stages)."""
        while len(self.conns) <= index:
            self.conns.append(_Conn(self.host, self.port))
            self.kills.append(_KillSchedule(self.plan, len(self.kills)))
        return self.conns[index], self.kills[index]

    async def run(self) -> LoadResult:
        started = time.perf_counter()
        try:
            for stage in self.plan.stages:
                self.progress(
                    f"stage {stage.name}: {stage.process} "
                    f"{stage.rate:g}/s x {stage.duration_s:g}s "
                    f"({stage.concurrency} workers)"
                )
                stage_result = await self._run_stage(stage)
                self.result.stages.append(stage_result)
                self.progress(
                    f"stage {stage.name}: offered {stage_result.offered} "
                    f"ok {stage_result.ok} "
                    f"({stage_result.achieved_rate:.1f}/s achieved "
                    f"vs {stage_result.offered_rate:.1f}/s offered)"
                )
                self.virtual_base += stage.duration_s * self.plan.time_scale
            self.result.server_stats = await self._fetch_server_stats()
        finally:
            for conn in self.conns:
                conn.abort()
        self.result.wall_duration_s = time.perf_counter() - started
        return self.result

    async def _run_stage(self, stage: LoadStage) -> StageResult:
        arrivals = stage_arrivals(stage, self.plan.seed)
        stage_result = StageResult(
            name=stage.name,
            process=stage.process,
            gate_rate=stage.gate_rate,
            planned_duration_s=stage.duration_s,
        )
        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        stage_start = loop.time()

        async def producer() -> None:
            for arrival in arrivals:
                deadline = stage_start + arrival.offset_s
                delay = deadline - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                virtual_now = (
                    self.virtual_base + arrival.offset_s * self.plan.time_scale
                )
                op = self.workload.make_op(arrival, virtual_now, stage.mix)
                stage_result.offered += 1
                queue.put_nowait((op, deadline))
            queue.put_nowait(_SENTINEL)

        async def worker(index: int) -> None:
            conn, kill = self._conn(index)
            kill.arm(loop.time())
            while True:
                item = await queue.get()
                if item is _SENTINEL:
                    queue.put_nowait(_SENTINEL)  # release the next worker
                    return
                op, deadline = item
                await self._execute(conn, kill, op, deadline, stage_result, loop)

        async def sampler() -> None:
            while True:
                await asyncio.sleep(1.0)
                stage_result.samples.append(
                    {
                        "t_s": loop.time() - stage_start,
                        "offered": stage_result.offered,
                        "completed": stage_result.completed,
                        "ok": stage_result.ok,
                    }
                )

        sample_task = asyncio.create_task(sampler())
        try:
            await asyncio.gather(
                producer(),
                *(worker(index) for index in range(stage.concurrency)),
            )
        finally:
            sample_task.cancel()
        stage_result.duration_s = loop.time() - stage_start
        stage_result.samples.append(
            {
                "t_s": stage_result.duration_s,
                "offered": stage_result.offered,
                "completed": stage_result.completed,
                "ok": stage_result.ok,
            }
        )
        return stage_result

    async def _execute(
        self,
        conn: _Conn,
        kill: _KillSchedule,
        op: Dict[str, Any],
        deadline: float,
        stage_result: StageResult,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        acct = self.result.accounting
        timeout = self.plan.op_timeout_s
        kind = op.get("op", "?")
        now = loop.time()
        stage_result.max_lag_s = max(stage_result.max_lag_s, now - deadline)
        acct.sent += 1
        stage_result.completed += 1  # every branch below resolves the op
        try:
            if conn.writer is None and conn.ever_connected and kill.reconnect_delay_s > 0:
                await asyncio.sleep(kill.reconnect_delay_s)
            if await conn.ensure():
                acct.reconnects += 1
            if kill.due(now):
                # Chaos: write the request, then slam the connection shut
                # before reading -- the server sees a half-closed peer
                # mid-response.  The op resolves as 'killed'.
                await conn.send(op, timeout)
                conn.abort()
                acct.killed += 1
                kill.rearm(loop.time())
                return
            began = time.perf_counter()
            response = await conn.roundtrip(op, timeout)
            elapsed = time.perf_counter() - began
            if response.get("ok"):
                acct.ok += 1
                stage_result.ok += 1
                self.result.observe(kind, elapsed)
            else:
                acct.service_error += 1
                code = response.get("error", {}).get("code", "unknown")
                acct.errors_by_code[code] = acct.errors_by_code.get(code, 0) + 1
                self.result.observe(kind, elapsed)
        except asyncio.TimeoutError:
            acct.timeout += 1
            conn.abort()
        except (ConnectionError, OSError, ValueError):
            # ValueError covers protocol decode errors on a torn stream.
            acct.connection_error += 1
            conn.abort()

    async def _fetch_server_stats(self) -> Optional[Dict[str, Any]]:
        """Closing 'stats' snapshot over a fresh connection (best effort)."""
        conn = _Conn(self.host, self.port)
        try:
            await conn.ensure()
            response = await conn.roundtrip({"op": "stats"}, self.plan.op_timeout_s)
            return response
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError):
            return None
        finally:
            conn.abort()


def run_load(
    plan: LoadPlan,
    host: str,
    port: int,
    progress: Optional[Callable[[str], None]] = None,
) -> LoadResult:
    """Execute *plan* against ``host:port`` and return the full result."""
    return asyncio.run(_Driver(plan, host, port, progress).run())

"""Open-loop replay of a scenario's event stream over one connection.

The stream is sent in simulator order (:func:`repro.service.client.
iter_scenario_events`) on a single JSON-lines connection, which keeps the
order the byte-identity check needs.  Request *i* is due at a seeded
Poisson instant: the first half of the stream at the ``low`` rate, the
second half at ``high``.  A sender thread writes each request when it is
due, whether or not earlier replies have arrived; the calling thread
reads replies.  Every request is timed from when it was *due*, so a
request queued behind a slow contact selection is charged the whole wait.
"""

from __future__ import annotations

import gc
import json
import random
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

STAGES = ("low", "high")
#: Offered request rates (requests per second) of the two stages.
STAGE_RATES = {"low": 300.0, "high": 600.0}
#: A replay gives up on a server that answers nothing for this long.
SILENCE_S = 20.0


def scenario_requests(scenario) -> List[bytes]:
    """The scenario's ingest/contact requests as wire frames, in event order."""
    from repro.dtn.events import EventKind
    from repro.service.client import iter_scenario_events
    from repro.service.protocol import encode_message, photo_to_wire

    frames = []
    for i, event in enumerate(iter_scenario_events(scenario)):
        if event.kind == EventKind.PHOTO_CREATED:
            owner_id, photo = event.payload
            payload = {
                "op": "ingest", "user": owner_id, "time": event.time,
                "photo": photo_to_wire(photo), "id": i,
            }
        else:
            node_a, node_b, duration = event.payload[:3]
            payload = {
                "op": "contact", "a": node_a, "b": node_b,
                "time": event.time, "duration": duration, "id": i,
            }
        frames.append(encode_message(payload))
    return frames


def stage_of(index: int, total: int) -> str:
    return STAGES[0] if index < total // 2 else STAGES[1]


def due_schedule(total: int, seed: int) -> List[float]:
    """Seeded due offsets (seconds from the start of the replay).

    Request *i* owns a slot of ``1 / rate`` seconds and is due at a uniform
    random instant inside it.  Unlike Poisson gaps, the number of requests
    that land inside any stall then varies by at most one, so the tail
    percentiles measure the server, not the draw.
    """
    rng = random.Random(f"perfbench-arrivals:{seed}")
    due, slot_start = [], 0.0
    for i in range(total):
        width = 1.0 / STAGE_RATES[stage_of(i, total)]
        due.append(slot_start + rng.random() * width)
        slot_start += width
    return due


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Per request, completion minus due instant (same clock, seconds)."""
    return [finish - start for start, finish in zip(due, done)]


@dataclass
class ReplayRun:
    """What one open-loop replay observed (times relative to its start).

    A replay that lost its server ends early: ``written`` frames went out,
    and requests without a reply keep an empty ``replies`` entry.
    """

    due: List[float]
    sent: List[float]
    done: List[float]
    replies: List[bytes]
    written: int
    backlog_max: int = 0
    error: str = ""

    def latencies(self) -> List[float]:
        return due_latencies(self.due, self.done)

    def lag_max(self) -> float:
        return max((s - d for s, d in zip(self.sent[: self.written], self.due)), default=0.0)


def replay(host: str, port: int, frames: Sequence[bytes], due: Sequence[float]) -> ReplayRun:
    """Send *frames* open loop at *due* offsets; collect the replies until
    every request has one, or the connection fails or goes silent for
    :data:`SILENCE_S`."""
    total = len(frames)
    sock = socket.create_connection((host, port), timeout=SILENCE_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    sent = [0.0] * total
    done = [0.0] * total
    replies: List[bytes] = [b""] * total
    outstanding = [0, 0]  # sent, received (each written by one thread only)
    backlog = [0]
    errors: List[str] = []
    clock = time.perf_counter
    origin = clock() + 0.05

    def send_all() -> None:
        try:
            for i, frame in enumerate(frames):
                wait = origin + due[i] - clock()
                if wait > 0.0:
                    time.sleep(wait)
                sent[i] = clock() - origin
                sock.sendall(frame)
                outstanding[0] = i + 1
                queued = outstanding[0] - outstanding[1]
                if queued > backlog[0]:
                    backlog[0] = queued
        except OSError as exc:
            errors.append(f"send: {exc!r}")

    # The client must not add its own stalls: no collector pauses, and a
    # short switch interval so a burst of replies cannot hold the sender
    # off its due instants for the default 5 ms.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    gc.disable()
    sender = threading.Thread(target=send_all, daemon=True)
    sender.start()
    try:
        for i in range(total):
            try:
                line = reader.readline()
            except OSError as exc:
                errors.append(f"receive: {exc!r}")
                break
            if not line:
                errors.append(f"server closed the connection after {i} replies")
                break
            done[i] = clock() - origin
            replies[i] = line
            outstanding[1] = i + 1
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)  # unblocks a sender still writing
        except OSError:
            pass
        sender.join(timeout=SILENCE_S)
        gc.enable()
        sys.setswitchinterval(switch_interval)
        reader.close()
        sock.close()
    return ReplayRun(
        due=list(due), sent=sent, done=done, replies=replies,
        written=outstanding[0], backlog_max=backlog[0], error="; ".join(errors),
    )


def request(host: str, port: int, op: str) -> Dict[str, object]:
    """One closed-loop request on a fresh connection (coverage reads)."""
    with socket.create_connection((host, port), timeout=SILENCE_S) as sock:
        sock.sendall(json.dumps({"op": op}).encode("utf-8") + b"\n")
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


def decode_replies(run: ReplayRun) -> Tuple[List[Optional[bool]], List[int]]:
    """Per request: True for an ok reply carrying its id, False for any
    other reply, None for no reply; and the photo ids delivered to the
    command center, in delivery order."""
    oks: List[Optional[bool]] = []
    delivered: List[int] = []
    for i, raw in enumerate(run.replies):
        if not raw:
            oks.append(None)
            continue
        reply = json.loads(raw)
        oks.append(reply.get("ok") is True and reply.get("id") == i)
        if oks[-1]:
            delivered.extend(reply.get("delivered", ()))
    return oks, delivered

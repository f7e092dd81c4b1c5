"""Event queue for the discrete-event DTN simulator.

The simulation is driven by three event families: node contacts (from a
contact trace, including gateway contacts with the command center), photo
creations (from the workload generator), and metric samples.  Events are
processed in time order; ties break by a fixed kind priority (photo
creations land before contacts at the same instant so a just-taken photo
can ride the simultaneous contact) and then by a monotone sequence number
so insertion order is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind:
    """Tie-break priorities for simultaneous events (lower runs first).

    Crash/restart sit between photo creation and contacts so that a node
    failing at instant *t* misses the contact scheduled at *t* (the crash
    preempts the link), while a node restarting at *t* catches it.
    Restarts run before crashes at the same instant so a back-to-back
    downtime window closes before the next failure opens.
    """

    PHOTO_CREATED = 0
    NODE_RESTART = 1
    NODE_CRASH = 2
    CONTACT = 3
    SAMPLE = 4
    END = 5


@dataclass(frozen=True)
class Event:
    """A scheduled simulation event.

    ``payload`` is interpreted by kind:

    * ``PHOTO_CREATED`` -- ``(owner_id, Photo)``
    * ``NODE_RESTART``  -- ``node_id``
    * ``NODE_CRASH``    -- ``(node_id, restart_time_seconds)``
    * ``CONTACT``       -- ``(node_a, node_b, duration_seconds)`` or
      ``(node_a, node_b, duration_seconds, bandwidth_multiplier)`` when
      fault injection jitters the link
    * ``SAMPLE``        -- ``None``
    * ``END``           -- ``None``
    """

    time: float
    kind: int
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"event time must be non-negative, got {self.time}")


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects, plus an arrival lane.

    Photo arrivals are known before the run starts, so they are not pushed:
    the queue takes them at construction as a *lane*, stably sorted by time.
    The lane head is served while its time is ``<=`` the heap top; that one
    rule lives in :meth:`arrivals_due`.  It is the heap's own ``(time, kind,
    sequence)`` order, because arrivals have the lowest kind and come before
    every later push.  Only contacts, crashes, restarts, samples and the end
    -- a few thousand entries at Table-I scale, not some eighty thousand --
    live in the heap.

    The simulator's loop drains :meth:`arrivals_due` itself and pops only
    heap events, so no :class:`Event` is built for an arrival there;
    :meth:`pop` builds a ``PHOTO_CREATED`` event for callers that want one
    stream of events.
    """

    # A class-level default: a queue pickled before the lane existed (a
    # service snapshot) unpickles with an empty lane.
    _lane: Sequence[Any] = ()

    def __init__(self, arrivals: Iterable[Any] = ()) -> None:
        """*arrivals* have ``time``, ``owner_id`` and ``photo`` attributes
        (:class:`~repro.workload.photos.PhotoArrival`), in any order; equal
        times keep the given order."""
        self._heap: list = []
        self._sequence = itertools.count()
        lane = sorted(arrivals, key=attrgetter("time"))
        if lane and lane[0].time < 0.0:
            raise ValueError(f"event time must be non-negative, got {lane[0].time}")
        lane.reverse()  # the next arrival is popped off the end
        self._lane = lane

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.kind, next(self._sequence), event))

    def arrivals_due(self) -> Iterator[Any]:
        """Take the arrivals due before the heap top off the lane, in order.

        Each arrival leaves the lane as it is yielded, and the heap top is
        read again before the next one, so the caller may push meanwhile.
        """
        lane, heap = self._lane, self._heap
        while lane and (not heap or lane[-1].time <= heap[0][0]):
            yield lane.pop()

    def pop(self) -> Event:
        for arrival in self.arrivals_due():
            return Event(arrival.time, EventKind.PHOTO_CREATED, (arrival.owner_id, arrival.photo))
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap) + len(self._lane)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._lane)

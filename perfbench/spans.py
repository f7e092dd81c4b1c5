"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``: :func:`install_sim_tracing` and
:func:`install_service_tracing` replace public functions and methods with
timing wrappers *where they are looked up*.  Names imported with
``from x import f`` are looked up in the importing module, so those
modules are patched too -- ``repro.routing.coverage_scheme`` binds
``greedy_reallocate``, ``greedy_select``, ``build_node_profile`` and the
transfer functions at import time, and wrapping ``repro.core`` alone
would miss every call it makes.

A span is ``(name, parent, start, end, request)`` in five flat arrays, so
a million spans cost tens of MiB, not hundreds.  A layer's self time is
its spans' durations minus the time their child spans cover
(:func:`self_times`); counters record work done at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = array("i")
        self.stack: List[int] = []
        #: Id stamped on every span opened while it is set (-1: none).
        self.request_id = -1
        self.counters: Dict[str, float] = {}
        self.keys: Dict[str, set] = {}
        #: Distinct-key counts read back by :meth:`load` (keys are not dumped).
        self.distinct: Dict[str, int] = {}
        #: ``<path>.<attr>`` of every wrap target that was not found.
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recording one span per call."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def note_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(hash(key))

    def innermost(self) -> str:
        """Name of the innermost open span ('' outside every span)."""
        return self.names[self.span_name[self.stack[-1]]] if self.stack else ""

    # -- export ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans (binary arrays) and counters (JSON) next to *path*."""
        with open(path + ".spans", "wb") as handle:
            for column in (self.span_name, self.parent, self.request, self.start, self.end):
                column.tofile(handle)
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "missing": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with open(path + ".json", encoding="utf-8") as handle:
            meta = json.load(handle)
        tracer = cls()
        for name in meta["names"]:
            tracer.name_id(name)
        count = meta["spans"]
        with open(path + ".spans", "rb") as handle:
            for column in (tracer.span_name, tracer.parent, tracer.request, tracer.start, tracer.end):
                column.fromfile(handle, count)
        tracer.counters = meta["counters"]
        tracer.distinct = meta["distinct"]
        tracer.missing = meta["missing"]
        return tracer

    def distinct_count(self, name: str) -> int:
        return len(self.keys[name]) if name in self.keys else self.distinct.get(name, 0)


def self_times(tracer: Tracer) -> Dict[str, float]:
    """Total self time per span name: duration minus child-span coverage.

    Children of one span never overlap (one thread, nested calls), so the
    time they cover is the sum of their durations.
    """
    n = len(tracer.start)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    totals: Dict[str, float] = {}
    names = tracer.names
    span_name = tracer.span_name
    for i in range(n):
        name = names[span_name[i]]
        totals[name] = totals.get(name, 0.0) + (end[i] - start[i]) - covered[i]
    return totals


def span_totals(tracer: Tracer, name: str) -> Tuple[int, float]:
    """``(count, total duration)`` of spans called *name*."""
    nid = tracer._name_ids.get(name)
    if nid is None:
        return 0, 0.0
    count, total = 0, 0.0
    for i in range(len(tracer.start)):
        if tracer.span_name[i] == nid:
            count += 1
            total += tracer.end[i] - tracer.start[i]
    return count, total


def request_spans(tracer: Tracer, names: Iterable[str]) -> Dict[int, float]:
    """Per request id, the summed duration of its spans named in *names*."""
    wanted = {tracer._name_ids[name] for name in names if name in tracer._name_ids}
    per_request: Dict[int, float] = {}
    for i in range(len(tracer.start)):
        if tracer.span_name[i] in wanted and tracer.request[i] >= 0:
            rid = tracer.request[i]
            per_request[rid] = per_request.get(rid, 0.0) + tracer.end[i] - tracer.start[i]
    return per_request


# ----------------------------------------------------------------------
# Installing the wrappers
#
# A wrap target that no longer exists is recorded in ``Tracer.missing``
# instead of stopping the run; the benchmark reports it and fails its
# checks, so a renamed function never reads as a layer doing no work.
# ----------------------------------------------------------------------


def _lookup(path: str):
    """The module ``repro.<module>`` or the class ``<module>:<Class>`` in it
    (None when it is gone).  ``import_module``, because package namespaces
    re-export functions under their modules' names
    (``repro.core.expected_coverage`` is both)."""
    module_name, _, class_name = path.partition(":")
    try:
        module = importlib.import_module(f"repro.{module_name}")
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


def _patch(tracer: Tracer, path: str, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    owner = _lookup(path)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        tracer.missing.append(f"{path}.{attr}")
        return
    setattr(owner, attr, wrapper_factory(original))


def _counted(tracer: Tracer, name: str, amount: Callable = lambda *args: 1) -> Callable:
    """Factory: *fn* adding ``amount(*args)`` to counter *name* per call."""

    def factory(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            tracer.add(name, amount(*args))
            return fn(*args, **kwargs)

        return counted

    return factory


def _spanned(tracer: Tracer, name: str) -> Callable:
    return lambda fn: tracer.wrap(name, fn)


def install_sim_tracing(tracer: Tracer) -> None:
    """Wrap the simulator-stack layers (dtn, routing, core, metadata_mgmt)."""
    _patch(tracer, "dtn.simulator:Simulation", "run", _spanned(tracer, "dtn.simulator.run"))
    _patch(tracer, "dtn.events:EventQueue", "pop", _counted(tracer, "dtn.simulator.events"))

    for scheme in (
        "routing.coverage_scheme:CoverageSelectionScheme",
        "routing.spray_and_wait:SprayAndWaitScheme",
        "routing.best_possible:BestPossibleScheme",
    ):
        _patch(tracer, scheme, "on_photo_created", _spanned(tracer, "routing.photo_created"))
        _patch(tracer, scheme, "on_photo_created", _counted(tracer, "routing.photo_created_calls"))
        for attr in ("on_contact", "on_command_center_contact"):
            _patch(tracer, scheme, attr, lambda fn: _contact(tracer, fn))

    def eviction(store, *args):
        return 1 if tracer.innermost() == "routing.photo_created" else 0

    _patch(tracer, "dtn.storage:NodeStorage", "remove", _counted(tracer, "dtn.storage.evictions", eviction))
    _patch(
        tracer, "core.coverage_index:CoverageIndex", "incidences",
        _spanned(tracer, "core.coverage_index.incidences"),
    )
    for attr in ("merge_from", "store", "purge_stale", "valid_entries"):
        _patch(tracer, "metadata_mgmt.cache:MetadataCache", attr, _spanned(tracer, "metadata_mgmt.cache"))

    # Wrap each function once in its home module, then bind the wrapper
    # under every other name the program looks it up by.
    wrapped: Dict[str, Callable] = {}
    for home, attr, factory in (
        ("core.expected_coverage", "build_node_profile", lambda fn: _profile_build(tracer, fn)),
        ("core.selection", "greedy_select", lambda fn: _select(tracer, fn)),
        ("core.selection", "greedy_reallocate", _spanned(tracer, "core.selection")),
        ("core.transfer", "build_transfer_plan", _spanned(tracer, "core.transfer")),
        ("core.transfer", "execute_transfer_plan", lambda fn: _execute_transfer(tracer, fn)),
    ):
        _patch(tracer, home, attr, factory)
        wrapper = getattr(_lookup(home), attr, None)
        if wrapper is not None:
            wrapped[attr] = wrapper
    for site in ("core.expected_coverage", "core.selection", "core.transfer", "routing.coverage_scheme"):
        module = _lookup(site)
        for attr, wrapper in wrapped.items():
            if module is not None and hasattr(module, attr):
                setattr(module, attr, wrapper)

    # gain_of_batch may evaluate through gain_of: count each photo once.
    in_batch = [0]

    def single(self, photo):
        return 0 if in_batch[0] else 1

    def batch(fn: Callable) -> Callable:
        def gain_of_batch(self, photos):
            tracer.add("core.expected_coverage.gain_evals", len(photos))
            in_batch[0] += 1
            try:
                return fn(self, photos)
            finally:
                in_batch[0] -= 1

        return gain_of_batch

    evaluator = "core.expected_coverage:SelectionEvaluator"
    _patch(tracer, evaluator, "gain_of", _counted(tracer, "core.expected_coverage.gain_evals", single))
    _patch(tracer, evaluator, "gain_of_batch", batch)


def _contact(tracer: Tracer, fn: Callable) -> Callable:
    """One span per contact, named after the scheme instance handling it."""

    def on_contact(scheme, *args, **kwargs):
        idx = tracer.open(f"routing.contact.{scheme.name}")
        try:
            return fn(scheme, *args, **kwargs)
        finally:
            tracer.close(idx)

    return on_contact


def _profile_build(tracer: Tracer, fn: Callable) -> Callable:
    traced = tracer.wrap("core.expected_coverage.profile_build", fn)

    def build_node_profile(index, node_id, photos, delivery_probability):
        photos = tuple(photos)
        tracer.add("core.expected_coverage.profile_builds")
        tracer.note_key(
            "core.expected_coverage.profile_build",
            (node_id, tuple(p.photo_id for p in photos), delivery_probability),
        )
        return traced(index, node_id, photos, delivery_probability)

    return build_node_profile


def _select(tracer: Tracer, fn: Callable) -> Callable:
    traced = tracer.wrap("core.selection", fn)

    def greedy_select(index, pool, *args, **kwargs):
        tracer.add("core.selection.calls")
        tracer.add("core.selection.pool_photos", len(pool))
        return traced(index, pool, *args, **kwargs)

    return greedy_select


def _execute_transfer(tracer: Tracer, fn: Callable) -> Callable:
    traced = tracer.wrap("core.transfer", fn)

    def execute_transfer_plan(plan, result, holdings, capacities, byte_budget=None, **kwargs):
        outcome = traced(plan, result, holdings, capacities, byte_budget=byte_budget, **kwargs)
        tracer.add("core.transfer.bytes", outcome.bytes_used)
        if byte_budget is not None:
            tracer.add("core.transfer.budget_bytes", byte_budget)
            tracer.add("core.transfer.budgeted_bytes", outcome.bytes_used)
        return outcome

    return execute_transfer_plan


def install_service_tracing(tracer: Tracer) -> None:
    """Wrap the service-stack layers (protocol, router, persistence, session).

    Requests on the benchmark's single connection are processed in order,
    so the n-th ``_process_line`` call serves request n; its id is stamped
    on every span the request opens, and on the encode that follows it.
    """
    counter = [0]

    def request(fn: Callable) -> Callable:
        traced = tracer.wrap("service.request", fn)

        def _process_line(self, line):
            tracer.request_id = counter[0]
            counter[0] += 1
            tracer.add("service.protocol.bytes", len(line))
            return traced(self, line)

        return _process_line

    def encode(fn: Callable) -> Callable:
        traced = tracer.wrap("service.protocol.encode", fn)

        def encode_message(payload):
            frame = traced(payload)
            tracer.add("service.protocol.bytes", len(frame))
            return frame

        return encode_message

    server = "service.server"
    _patch(tracer, f"{server}:CommandCenterServer", "_process_line", request)
    _patch(tracer, server, "decode_message", _spanned(tracer, "service.protocol.decode"))
    _patch(tracer, server, "photo_from_wire", _spanned(tracer, "service.protocol.decode"))
    _patch(tracer, server, "encode_message", encode)
    _patch(tracer, "service.router:SchemeRouter", "dispatch", _spanned(tracer, "service.router.dispatch"))

    def append(fn: Callable) -> Callable:
        traced = tracer.wrap("service.persistence.append", fn)

        def counted_append(log, record):
            before = log.bytes_written
            seq = traced(log, record)
            tracer.add("service.persistence.appends")
            tracer.add("service.persistence.bytes", log.bytes_written - before)
            return seq

        return counted_append

    _patch(tracer, "service.persistence:WriteAheadLog", "append", append)
    # The journal is the only caller of fsync in the server process.
    os.fsync = tracer.wrap("service.persistence.sync", os.fsync)
    session = "service.session:ServiceSession"
    _patch(tracer, session, "ingest", _spanned(tracer, "service.session.ingest"))
    for attr in ("contact", "select_on_contact"):
        _patch(tracer, session, attr, _spanned(tracer, "service.session.contact"))

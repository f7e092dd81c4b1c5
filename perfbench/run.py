"""The repository benchmark: Table-I simulations and a served, journaled replay.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-ours --seed 1 --seconds 60 --trace 0

Each workload has two legs, each measured in fresh processes:

* the **simulation leg** launches ``sim_child.py`` once per measured run:
  ``Simulation.run()`` of the workload's schemes on a Table-I MIT scenario;
* the **served leg** launches ``serve_child.py`` (a ``CommandCenterServer``
  with its write-ahead journal on) once per replay of the Table-I
  scale-0.2 event stream over one connection: once open loop, after
  which the server is SIGKILLed and its journal recovered in this
  process, and once per round with the whole stream written at once,
  which times the server's capacity.

After the open-loop replay a measured run is made of rounds: one
simulation process, one saturated replay and two journal recoveries.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the legs
again with span wrappers installed (see ``spans.py``) and prints the
per-layer metrics.  The last stdout line is one JSON object.  A failed
correctness check prints ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import common
import replay
import spans

SERVED_SCALE = 0.2
#: Share of ``--seconds`` (counted from the start of the run) after which
#: the traced run starts no further pair of simulation runs.
SIM_SHARE = 0.55
#: Rounds of a measured run, at least: one simulation process, one
#: saturated replay and RECOVERIES journal recoveries each.
MIN_ROUNDS = 3
#: Recoveries of the killed server's journal per round: one lasts under a
#: second, too short to average over the host's second-to-second speed
#: changes.
RECOVERIES = 2
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    sim_schemes: Tuple[str, ...]
    sim_scale: float


WORKLOADS = {
    w.name: w
    for w in (
        # Selection, eviction scans, profile builds, cache merge, transfer.
        Workload("table1-ours", ("our-scheme",), 0.4),
        # The selection bypass: event loop, incidences, storage writes and
        # content-blind contact loops only.
        Workload("table1-baselines", ("spray-and-wait", "best-possible"), 1.0),
    )
}

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("point_coverage", "fraction"),
    ("aspect_coverage_deg", "deg"),
    ("delivered_photos", "count"),
    ("ok_frac", "fraction"),
    ("capacity_rps", "1/s"),
    ("recovery_s", "s"),
)
#: Printed for context but not gated.  On a 2-vCPU VM the open-loop
#: latencies are set by how fast an idle process wakes up, which the host
#: decides: the low stage's p50 moved from 0.25 to 0.5 ms between sets of
#: identical runs, its tail is set by host hiccups, and in the high stage
#: queueing amplifies every drift (p50 0.5 to 1.6 ms, p99 47 to 105 ms).
#: The raw_* figures are the gated figures before normalization.
UNGATED = (
    ("lat_p50_ms.low", "ms"),
    ("lat_p99_ms.low", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("lat_p99_ms.high", "ms"),
    ("raw_run_s", "s"),
    ("raw_setup_s", "s"),
    ("raw_recovery_s", "s"),
    ("raw_capacity_rps", "1/s"),
)

#: (name, unit, the end-to-end metric it should move) of every per-layer metric.
PER_LAYER = (
    ("dtn.simulator.loop_self_s", "s", "run_s"),
    ("dtn.simulator.events", "count", "run_s"),
    ("routing.photo_created_s", "s", "run_s"),
    ("routing.photo_created_calls", "count", "run_s"),
    ("dtn.storage.evictions", "count", "run_s"),
    ("core.coverage_index.incidences_s", "s", "run_s"),
    ("core.coverage_index.incidences_calls", "count", "run_s"),
    ("metadata_mgmt.cache_s", "s", "run_s"),
    ("metadata_mgmt.cache_calls", "count", "run_s"),
    ("core.expected_coverage.profile_build_s", "s", "run_s, lat_p99_ms.high"),
    ("core.expected_coverage.profile_builds", "count", "run_s, lat_p99_ms.high"),
    ("core.expected_coverage.profile_distinct_frac", "fraction", "run_s"),
    ("core.selection.self_s", "s", "run_s, lat_p99_ms.high"),
    ("core.selection.calls", "count", "run_s, lat_p99_ms.high"),
    ("core.selection.pool_photos", "count", "run_s, lat_p99_ms.high"),
    ("core.expected_coverage.gain_evals", "count", "run_s, lat_p99_ms.high"),
    ("core.transfer.self_s", "s", "run_s"),
    ("core.transfer.bytes", "bytes", "run_s"),
    ("core.transfer.budget_frac", "fraction", "run_s"),
    ("routing.contact_self_s.our-scheme", "s", "run_s"),
    ("routing.contact_self_s.spray-and-wait", "s", "run_s"),
    ("routing.contact_self_s.best-possible", "s", "run_s"),
    ("service.protocol.decode_s", "s", "capacity_rps, lat_p50_ms.low"),
    ("service.protocol.encode_s", "s", "capacity_rps, lat_p50_ms.low"),
    ("service.protocol.bytes", "bytes", "capacity_rps, lat_p50_ms.low"),
    ("service.router.dispatch_self_s", "s", "capacity_rps, lat_p50_ms.low"),
    ("service.persistence.append_s", "s", "capacity_rps, lat_p50_ms.low, lat_p99_ms.high"),
    ("service.persistence.appends", "count", "capacity_rps, lat_p50_ms.low, lat_p99_ms.high"),
    ("service.persistence.bytes", "bytes", "capacity_rps, lat_p50_ms.low, lat_p99_ms.high"),
    ("service.persistence.sync_s", "s", "capacity_rps, lat_p50_ms.low, lat_p99_ms.high"),
    ("service.session.ingest_self_s", "s", "capacity_rps, lat_p50_ms.low"),
    ("service.session.contact_self_s", "s", "capacity_rps, lat_p99_ms.high"),
    ("service.selection_s", "s", "capacity_rps, lat_p99_ms.high"),
    ("service.socket_s", "s", "capacity_rps, lat_p50_ms.low"),
    ("service.peak_rss_mb", "MiB", "none (the server process, not gated)"),
    ("service.persistence.recovery_records", "count", "recovery_s"),
    ("service.persistence.recovery_replay_s", "s", "recovery_s"),
    ("loadgen.lag_ms.max", "ms", "lat_*.high validity"),
    ("loadgen.backlog.max", "count", "lat_*.high validity"),
    ("trace.overhead_frac", "fraction", "run_s (traced vs untraced)"),
    ("trace.accounted_frac", "fraction", "run_s (layer self times / traced run)"),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks.append(what)
        if not ok:
            self.failures.append(what)


# ----------------------------------------------------------------------
# Simulation leg
# ----------------------------------------------------------------------


def run_child(args: List[str]) -> Dict[str, object]:
    """Run one child script to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=common.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return common.last_json_line(proc.stdout)


def sim_child(workload: Workload, trace_out: Optional[str] = None) -> Dict[str, object]:
    args = [
        os.path.join(common.HERE, "sim_child.py"),
        "--schemes", ",".join(workload.sim_schemes),
        "--scale", str(workload.sim_scale),
    ]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    return run_child(args)


def check_sim_runs(workload: Workload, reports: List[Dict[str, object]], tally: Tally) -> None:
    tally.attempted += len(reports) * len(workload.sim_schemes)
    digests = {json.dumps([r["digest"] for r in rep["runs"]]) for rep in reports}
    tally.check(len(digests) == 1, f"{len(reports)} runs of one seed give identical SimulationResults")
    by_scheme = {run["scheme"]: run for run in reports[0]["runs"]}
    if "best-possible" in by_scheme:
        best = by_scheme["best-possible"]["point_coverage"]
        for name, run in by_scheme.items():
            if name != "best-possible":
                tally.check(best >= run["point_coverage"], f"best-possible point coverage >= {name}")


def best_possible_point(scale: float) -> float:
    """best-possible's final point coverage on the scenario at *scale*: the
    bound every other scheme's coverage must stay within."""
    from repro.experiments.config import ScenarioSpec
    from repro.experiments.runner import run_scenario

    scenario = ScenarioSpec(scale=scale, seed=common.SCENARIO_SEED).build()
    return run_scenario(scenario, "best-possible").final_point_coverage


# ----------------------------------------------------------------------
# Served leg
# ----------------------------------------------------------------------


@dataclass
class ServedWorld:
    """The served scenario, its wire frames and its in-process reference."""

    scenario: object
    frames: List[bytes]
    point: float
    aspect: float
    delivered_ids: List[int]

    @classmethod
    def build(cls) -> "ServedWorld":
        from repro.dtn.simulator import Simulation
        from repro.experiments.config import ScenarioSpec
        from repro.routing.registry import create_scheme

        scenario = ScenarioSpec(scale=SERVED_SCALE, seed=common.SCENARIO_SEED).build()
        simulation = Simulation(
            trace=scenario.trace,
            pois=scenario.pois,
            photo_arrivals=scenario.photo_arrivals,
            scheme=create_scheme(common.SERVED_SCHEME),
            config=scenario.config,
            gateway_ids=scenario.gateway_ids,
            end_time_s=scenario.end_time_s,
        )
        result = simulation.run()
        point, aspect = simulation.index.normalized(result.final_coverage)
        return cls(
            scenario=scenario,
            frames=replay.scenario_requests(scenario),
            point=point,
            aspect=aspect,
            delivered_ids=simulation.command_center.storage.photo_ids(),
        )


@dataclass
class Served:
    """One open-loop replay: client-side timings and server-side facts."""

    run: replay.ReplayRun
    oks: List[Optional[bool]]  # None: no reply
    coverage: Dict[str, object]  # the server's final coverage report
    setup_s: float  # normalized, like every figure below
    raw_setup_s: float
    server_rss_mb: float


@dataclass
class Recovery:
    """One timed recovery of a killed server's journal."""

    seconds: float
    raw_s: float
    records: int


@dataclass
class Capacity:
    """One saturated replay: the whole stream written at once."""

    rps: float  # normalized, like setup_s
    raw_rps: float
    setup_s: float
    raw_setup_s: float
    calibration: float  # taken right after the last reply


@contextlib.contextmanager
def server_process(wal_dir: str, trace: bool = False):
    """A fresh ``serve_child.py`` journaling into *wal_dir*; yields the
    process and its ready report, and SIGKILLs it on the way out."""
    command = [
        sys.executable, os.path.join(common.HERE, "serve_child.py"),
        "--scale", str(SERVED_SCALE),
        "--wal-dir", wal_dir,
    ] + (["--trace"] if trace else [])
    server = subprocess.Popen(
        command, cwd=common.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = json.loads(server.stdout.readline() or "null")
        if not ready:
            raise RuntimeError(f"server exited {server.wait()} before listening")
        yield server, ready
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGKILL)
        server.wait(timeout=30.0)


def check_replay(
    world: ServedWorld, run: replay.ReplayRun, coverage: Dict[str, object], tally: Tally
) -> List[Optional[bool]]:
    """Account one replay's requests and check its served result; returns
    each request's outcome (True ok, False failed, None no reply)."""
    if run.error:
        sys.stderr.write(f"perfbench: replay ended early: {run.error}\n")
    # Every request must go out and get exactly one reply: ok, or a
    # failure.  A request without a reply counts as failed in
    # ``tally.failed`` and ``ok_frac`` but breaks the accounting.
    oks, delivered = replay.decode_replies(run)
    ok, failed = oks.count(True), oks.count(False)
    tally.attempted += len(world.frames)
    tally.failed += len(world.frames) - ok
    tally.check(
        len(world.frames) == run.written == ok + failed,
        "request accounting: every request sent, and sent == ok + failed",
    )
    tally.check(
        (coverage["point_coverage"], coverage["aspect_coverage_deg"]) == (world.point, world.aspect)
        and delivered == world.delivered_ids,
        "served coverage and delivered ids equal Simulation.run()",
    )
    return oks


def serve_open_loop(
    world: ServedWorld, seed: int, wal_dir: str, tally: Tally, trace_out: Optional[str] = None
) -> Served:
    """One open-loop replay against a fresh server journaling into
    *wal_dir*, which is SIGKILLed after it.  With *trace_out* the server is
    traced and dumps its spans there."""
    with server_process(wal_dir, trace=trace_out is not None) as (server, ready):
        port = ready["port"]
        run = replay.replay("127.0.0.1", port, world.frames, replay.due_schedule(len(world.frames), seed))
        coverage = replay.request("127.0.0.1", port, "coverage")["variants"]["champion"]
        server_rss = common.proc_peak_rss_mb(server.pid)
        if trace_out:
            server.stdin.write(f"dump {trace_out}\n")
            server.stdin.flush()
            server.stdout.readline()
    return Served(
        run=run,
        oks=check_replay(world, run, coverage, tally),
        coverage=coverage,
        setup_s=common.normalized(ready["setup_s"], ready["calibrations"]),
        raw_setup_s=ready["setup_s"],
        server_rss_mb=server_rss,
    )


def recover(
    world: ServedWorld, wal_dir: str, served: Served, count: int, calibration: float, tally: Tally
) -> List[Recovery]:
    """Construct a ``PersistentSession`` on the killed server's journal
    *count* times, each timed and checked against the served coverage.
    *calibration* is a host-speed figure this process has just taken."""
    from repro.service import PersistenceConfig
    from repro.service.persistence import PersistentSession
    from repro.service.session import ServiceSession

    scenario = world.scenario
    served_report = tuple(
        served.coverage[key] for key in ("point_coverage", "aspect_coverage_deg", "delivered_photos")
    )
    recoveries = []
    # A restarted server recovers with little else on its heap; this
    # process holds the served world and its frames.  Frozen, they stay
    # out of the collector's passes during the timed recoveries.
    gc.collect()
    gc.freeze()
    try:
        for _ in range(count):
            gc.collect()  # the previous recovery's garbage, untimed
            started = time.perf_counter()
            recovered = PersistentSession(
                lambda: ServiceSession(common.SERVED_SCHEME, scenario.pois, scenario.config),
                PersistenceConfig(wal_dir=wal_dir, fsync=common.FSYNC),
                "champion",
            )
            raw_s = time.perf_counter() - started
            # Host speed changes from second to second: each recovery is
            # normalized by the calibrations on either side of it.
            calibrations = [calibration, common.calibrate()]
            calibration = calibrations[-1]
            report = recovered.coverage()
            recovered.close()
            tally.check(
                (report.point_coverage, report.aspect_coverage_deg, report.delivered_photos) == served_report,
                "recovered session coverage equals served coverage",
            )
            recoveries.append(
                Recovery(common.normalized(raw_s, calibrations), raw_s, recovered.recovery.replayed_records)
            )
    finally:
        gc.unfreeze()
    return recoveries


def capacity_once(world: ServedWorld, tally: Tally) -> Capacity:
    """Write the whole stream at once into a fresh server over one
    connection and time it until the last reply: the server never waits
    for a request, so its rate is set by its own work, not by how fast an
    idle process wakes up."""
    os.makedirs(common.WORK_DIR, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=common.WORK_DIR)
    try:
        with server_process(wal_dir) as (_, ready):
            # The server's calibration just after its set-up opens the window.
            calibrations = ready["calibrations"][-1:]
            run = replay.replay("127.0.0.1", ready["port"], world.frames, [0.0] * len(world.frames))
            calibrations.append(common.calibrate())
            coverage = replay.request("127.0.0.1", ready["port"], "coverage")["variants"]["champion"]
        check_replay(world, run, coverage, tally)
        elapsed = max(run.done)
        return Capacity(
            rps=len(world.frames) / common.normalized(elapsed, calibrations),
            raw_rps=len(world.frames) / elapsed,
            setup_s=common.normalized(ready["setup_s"], ready["calibrations"]),
            raw_setup_s=ready["setup_s"],
            calibration=calibrations[-1],
        )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def stage_latencies_ms(served: Served) -> Dict[str, List[float]]:
    """One replay's due-time latencies per stage; a failed request counts
    as infinitely late."""
    total = len(served.oks)
    latencies: Dict[str, List[float]] = {stage: [] for stage in replay.STAGES}
    for i, (latency, ok) in enumerate(zip(served.run.latencies(), served.oks)):
        latencies[replay.stage_of(i, total)].append(latency * 1000.0 if ok else float("inf"))
    return latencies


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------


def repeat(deadline: float, minimum: int, once, longest: float = 0.0) -> list:
    """Call *once* *minimum* times, then again while a call as long as the
    longest so far (at least *longest*) still ends before *deadline* (a
    ``perf_counter`` instant)."""
    results = []
    while True:
        started = time.perf_counter()
        if len(results) >= minimum and started + longest > deadline:
            return results
        results.append(once(len(results)))
        longest = max(longest, time.perf_counter() - started)


@dataclass
class Round:
    """One simulation process, one saturated replay and its recoveries."""

    sim: Dict[str, object]
    capacity: Capacity
    recoveries: List[Recovery]


def measure(workload: Workload, seed: int, seconds: float, tally: Tally):
    """Both legs, all their work counted against *seconds*.  After the
    open-loop replay the run is made of rounds, so that a slow spell of
    the host falls on a few samples of every metric, not on all samples
    of one."""
    started = time.perf_counter()
    # Photo ids come from a process-wide counter: build the served world
    # before any other scenario so its requests are the same in every run.
    world = ServedWorld.build()
    tally.check(
        best_possible_point(SERVED_SCALE) >= world.point,
        f"best-possible point coverage >= {common.SERVED_SCHEME} at scale {SERVED_SCALE}",
    )
    # Without best-possible in the simulation leg, its bound is checked here.
    best = None if "best-possible" in workload.sim_schemes else best_possible_point(workload.sim_scale)
    os.makedirs(common.WORK_DIR, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=common.WORK_DIR)
    try:
        served = serve_open_loop(world, seed, wal_dir, tally)
        sim_longest = 0.0

        def timed_sim(i: int) -> Dict[str, object]:
            nonlocal sim_longest
            begun = time.perf_counter()
            report = sim_child(workload)
            sim_longest = max(sim_longest, time.perf_counter() - begun)
            return report

        def one_round(i: int) -> Round:
            sim = timed_sim(i)
            capacity = capacity_once(world, tally)
            recoveries = recover(world, wal_dir, served, RECOVERIES, capacity.calibration, tally)
            return Round(sim, capacity, recoveries)

        rounds = repeat(started + seconds, MIN_ROUNDS, one_round)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    # Time left over that no whole round fits goes to more simulation runs.
    sims = [r.sim for r in rounds] + repeat(started + seconds, 0, timed_sim, sim_longest)
    check_sim_runs(workload, sims, tally)
    if best is not None:
        first = sims[0]["runs"][0]
        tally.check(
            best >= first["point_coverage"],
            f"best-possible point coverage >= {first['scheme']} at scale {workload.sim_scale}",
        )
    return sims, served, [r.capacity for r in rounds], [rec for r in rounds for rec in r.recoveries]


def end_to_end(
    sims, served: Served, capacities: List[Capacity], recoveries: List[Recovery]
) -> Dict[str, Tuple[float, int, List[float]]]:
    """metric -> (value, sample count, the per-process or per-replay values
    the value is the median of).  Times and rates are normalized to the
    reference host speed with the calibrations each measurement took."""
    first = sims[0]["runs"][0]
    sent = len(served.run.due)

    def median_of(values: List[float], samples: int) -> Tuple[float, int, List[float]]:
        return common.median(values), samples, values

    def sim_time(key: str) -> List[float]:
        # Calibrations right after the set-up and after the runs.
        window = slice(0, 1) if key == "setup_s" else slice(0, 2)
        return [common.normalized(s[key], s["calibrations"][window]) for s in sims]

    servers = len(capacities) + 1
    sim_setup = common.median(sim_time("setup_s"))
    served_setup = common.median([served.setup_s] + [c.setup_s for c in capacities])
    metrics = {
        "run_s": median_of(sim_time("run_s"), len(sims)),
        "setup_s": (sim_setup + served_setup, len(sims) + servers, [sim_setup, served_setup]),
        "peak_rss_mb": median_of([s["peak_rss_mb"] for s in sims], len(sims)),
        "point_coverage": (first["point_coverage"], len(sims), []),
        "aspect_coverage_deg": (first["aspect_coverage_deg"], len(sims), []),
        "delivered_photos": (float(first["delivered_photos"]), len(sims), []),
        "ok_frac": (served.oks.count(True) / sent, sent, []),
        "capacity_rps": median_of([c.rps for c in capacities], len(capacities)),
        "recovery_s": median_of([r.seconds for r in recoveries], len(recoveries)),
        # As measured, before normalization (printed, not gated).
        "raw_run_s": median_of([s["run_s"] for s in sims], len(sims)),
        "raw_setup_s": (
            common.median([s["setup_s"] for s in sims])
            + common.median([served.raw_setup_s] + [c.raw_setup_s for c in capacities]),
            len(sims) + servers,
            [],
        ),
        "raw_recovery_s": median_of([r.raw_s for r in recoveries], len(recoveries)),
        "raw_capacity_rps": median_of([c.raw_rps for c in capacities], len(capacities)),
    }
    for stage, latencies in stage_latencies_ms(served).items():
        for q in (50, 99):
            metrics[f"lat_p{q}_ms.{stage}"] = (common.percentile(latencies, q), len(latencies), [])
    return metrics


def trace_layers(workload: Workload, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics: traced and untraced simulation runs alternate
    (their ratio is the tracing overhead), then one traced replay."""
    started = time.perf_counter()
    os.makedirs(common.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="trace-", dir=common.WORK_DIR)
    try:
        world = ServedWorld.build()  # first, as in measure()
        plain, traced = [], []

        def pair(i: int) -> None:
            plain.append(sim_child(workload))
            traced.append(sim_child(workload, trace_out=os.path.join(work, f"sim{i}")))

        repeat(started + seconds * SIM_SHARE, 1, pair)
        check_sim_runs(workload, plain + traced, tally)
        sim_trace = spans.Tracer.load(os.path.join(work, "sim0"))
        layers = sim_layers(sim_trace, traced[0]["run_s"])
        layers["trace.overhead_frac"] = (
            common.median([t["run_s"] for t in traced]) / common.median([p["run_s"] for p in plain]) - 1.0
        )

        from repro.service.persistence import WriteAheadLog

        wal_dir = os.path.join(work, "wal")
        os.makedirs(wal_dir)
        served = serve_open_loop(world, seed, wal_dir, tally, trace_out=os.path.join(work, "server"))
        server_trace = spans.Tracer.load(os.path.join(work, "server"))
        layers.update(service_layers(server_trace, served))
        started = time.perf_counter()
        WriteAheadLog.read_records(os.path.join(wal_dir, "champion.wal"))
        read_s = time.perf_counter() - started
        recovery = recover(world, wal_dir, served, 1, common.calibrate(), tally)[0]
        layers["service.persistence.recovery_records"] = float(recovery.records)
        layers["service.persistence.recovery_replay_s"] = max(0.0, recovery.raw_s - read_s)

        # A wrapper that found no target would read as a layer doing no work.
        missing = sorted(set(sim_trace.missing) | set(server_trace.missing))
        print("missing wrappers " + json.dumps(missing))
        tally.check(not missing, "every span wrapper was installed")
        return layers
    finally:
        shutil.rmtree(work, ignore_errors=True)


def sim_layers(tracer, run_s: float) -> Dict[str, float]:
    self_s = spans.self_times(tracer)
    counters = tracer.counters
    layers = {
        "dtn.simulator.loop_self_s": self_s.get("dtn.simulator.run", 0.0),
        "dtn.simulator.events": counters.get("dtn.simulator.events", 0.0),
        "routing.photo_created_s": self_s.get("routing.photo_created", 0.0),
        "routing.photo_created_calls": counters.get("routing.photo_created_calls", 0.0),
        "dtn.storage.evictions": counters.get("dtn.storage.evictions", 0.0),
        "core.coverage_index.incidences_s": self_s.get("core.coverage_index.incidences", 0.0),
        "core.coverage_index.incidences_calls": float(
            spans.span_totals(tracer, "core.coverage_index.incidences")[0]
        ),
        "metadata_mgmt.cache_s": self_s.get("metadata_mgmt.cache", 0.0),
        "metadata_mgmt.cache_calls": float(spans.span_totals(tracer, "metadata_mgmt.cache")[0]),
        "core.expected_coverage.profile_build_s": self_s.get("core.expected_coverage.profile_build", 0.0),
        "core.expected_coverage.profile_builds": counters.get("core.expected_coverage.profile_builds", 0.0),
        "core.selection.self_s": self_s.get("core.selection", 0.0),
        "core.selection.calls": counters.get("core.selection.calls", 0.0),
        "core.selection.pool_photos": counters.get("core.selection.pool_photos", 0.0),
        "core.expected_coverage.gain_evals": counters.get("core.expected_coverage.gain_evals", 0.0),
        "core.transfer.self_s": self_s.get("core.transfer", 0.0),
        "core.transfer.bytes": counters.get("core.transfer.bytes", 0.0),
    }
    builds = layers["core.expected_coverage.profile_builds"]
    distinct = tracer.distinct_count("core.expected_coverage.profile_build")
    layers["core.expected_coverage.profile_distinct_frac"] = distinct / builds if builds else 0.0
    budget = counters.get("core.transfer.budget_bytes", 0.0)
    layers["core.transfer.budget_frac"] = (
        counters.get("core.transfer.budgeted_bytes", 0.0) / budget if budget else 0.0
    )
    for scheme in ("our-scheme", "spray-and-wait", "best-possible"):
        layers[f"routing.contact_self_s.{scheme}"] = self_s.get(f"routing.contact.{scheme}", 0.0)
    layers["trace.accounted_frac"] = sum(self_s.values()) / run_s
    return layers


def service_layers(tracer, served: Served) -> Dict[str, float]:
    self_s = spans.self_times(tracer)
    counters = tracer.counters
    run = served.run
    server_span = spans.request_spans(tracer, ("service.request", "service.protocol.encode"))
    socket_s = 0.0
    previous_done = 0.0
    for i, done in enumerate(run.done):
        # A pipelined request cannot be answered before its predecessor.
        observed = done - max(run.sent[i], previous_done)
        socket_s += max(0.0, observed - server_span.get(i, 0.0))
        previous_done = done
    return {
        "service.protocol.decode_s": spans.span_totals(tracer, "service.protocol.decode")[1],
        "service.protocol.encode_s": spans.span_totals(tracer, "service.protocol.encode")[1],
        "service.protocol.bytes": counters.get("service.protocol.bytes", 0.0),
        "service.router.dispatch_self_s": self_s.get("service.router.dispatch", 0.0),
        "service.persistence.append_s": spans.span_totals(tracer, "service.persistence.append")[1],
        "service.persistence.appends": counters.get("service.persistence.appends", 0.0),
        "service.persistence.bytes": counters.get("service.persistence.bytes", 0.0),
        "service.persistence.sync_s": spans.span_totals(tracer, "service.persistence.sync")[1],
        "service.session.ingest_self_s": self_s.get("service.session.ingest", 0.0),
        "service.session.contact_self_s": self_s.get("service.session.contact", 0.0),
        "service.selection_s": self_s.get("core.selection", 0.0),
        "service.socket_s": socket_s,
        "service.peak_rss_mb": served.server_rss_mb,
        "loadgen.lag_ms.max": run.lag_max() * 1000.0,
        "loadgen.backlog.max": float(run.backlog_max),
    }


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.use_source_tree()
    workload = WORKLOADS[args.workload]
    tally = Tally()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("labels " + json.dumps(common.labels(), sort_keys=True))

    metrics: Dict[str, Dict[str, object]] = {}
    try:
        if args.trace:
            layers = trace_layers(workload, args.seed, args.seconds, tally)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
            for name, unit, moves in PER_LAYER:
                print(f"  {name:46s} {layers[name]:16.6f} {unit:8s} moves {moves}")
        else:
            values = end_to_end(*measure(workload, args.seed, args.seconds, tally))
            metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
            for name, unit in END_TO_END + UNGATED:
                value, samples, parts = values[name]
                note = "  (not gated)" if (name, unit) in UNGATED else ""
                shown = " ".join(f"{part:.4g}" for part in parts)
                print(f"  {name:22s} {value:14.6f} {unit:9s} samples {samples:<6d} [{shown}]{note}")
    except Exception as exc:  # a crashed leg or child is a failed check, not a lost result
        traceback.print_exc()
        tally.check(False, f"every leg ran to its end ({type(exc).__name__})")
        tally.attempted = max(tally.attempted, 1)

    for what in dict.fromkeys(tally.checks):
        times = tally.checks.count(what)
        print(f"  check {'FAIL' if what in tally.failures else 'ok  '} {what} (x{times})")
    correct = not tally.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers of the benchmark: source path, statistics, labels, digests."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and span dumps; inside the checkout, ignored by git.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: The Table-I scenario every leg runs: a fixed instance, so result
#: metrics are exact from run to run and timings compare code, not draws.
SCENARIO_SEED = 0
#: The scheme the command center serves.  Baselines are simulation
#: comparisons, not something an operator deploys -- and their sub-
#: millisecond contacts leave a tail made of fsync and scheduler noise.
SERVED_SCHEME = "our-scheme"
#: The journal's fsync policy: the server's default.
FSYNC = "interval"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 when it is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


#: What :func:`calibrate` takes on the reference host.  Normalized timings
#: are in seconds of that host: ``raw * REFERENCE_CALIBRATION_S / calibration``.
REFERENCE_CALIBRATION_S = 0.3


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The host's speed drifts by up to 1.8x over minutes, longer than any
    run, so timings are divided by this figure, taken in the same process
    right before and after the timed section.  The loop reads attributes,
    indexes a dict and does float arithmetic, like the simulator, but
    allocates nothing and runs with the collector off, so the size of the
    heap around it does not change its time.  It is benchmark code: no
    change to the program can make it faster.
    """
    cells = [_Cell(i * 0.5, (i % 97) * 1.5) for i in range(512)]
    table = {i: cells[i % 512] for i in range(4096)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0.0
        for i in range(2_000_000):
            cell = table[i & 4095]
            acc += cell.x * 0.001 - cell.y if i & 1 else math.sqrt(cell.x + cell.y)
            if acc > 1e9:
                acc = 0.0
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def normalized(raw_s: float, calibrations: Sequence[float]) -> float:
    """*raw_s* in seconds of the reference host."""
    return raw_s * REFERENCE_CALIBRATION_S / (sum(calibrations) / len(calibrations))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-percentile (0 < q <= 100): the smallest value with at
    least q% of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux ``VmHWM``)."""
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def result_digest(result) -> str:
    """sha256 over everything a :class:`SimulationResult` records."""
    payload = {
        "scheme": result.scheme,
        "samples": [
            [s.time, s.point_coverage, s.aspect_coverage_deg, s.delivered_photos]
            for s in result.samples
        ],
        "final": [result.final_coverage.point, result.final_coverage.aspect],
        "delivered": result.delivered_photos,
        "created": result.created_photos,
        "contacts": result.contacts_processed,
        "center_contacts": result.center_contacts,
        "latencies": result.delivery_latencies_s,
        "faults": result.fault_counters.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def labels() -> Dict[str, object]:
    """The configuration a run measured (recorded next to its metrics)."""
    found = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "fsync": FSYNC,
    }
    try:
        from repro.core import backend
    except ImportError:  # a single selection implementation: nothing to resolve
        return found
    selection_backend = backend.active_backend()
    found["selection_backend"] = selection_backend
    found["selection_strategy"] = os.environ.get(backend.STRATEGY_ENV) or "auto"
    found["selection_strategy_resolved"] = backend.resolve_strategy(None, selection_backend, None)
    return found


def emit(payload: Dict[str, object]) -> None:
    """One JSON line on stdout (how child processes report to run.py)."""
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> Dict[str, object]:
    lines: List[str] = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])

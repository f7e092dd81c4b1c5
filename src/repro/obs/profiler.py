"""Wall-clock phase profiling for simulation runs.

The paper's scheme spends its time in three places -- greedy selection,
transfer scheduling, and expected-coverage enumeration -- and knowing the
split is how you decide what to optimize next.  :class:`Profiler` keeps a
tiny per-phase accumulator (calls, total, min, max) that hot code feeds
either through the :meth:`~Profiler.phase` context manager, the
:meth:`~Profiler.profile` decorator, or -- cheapest, used by the wired
hook points -- an externally measured :meth:`~Profiler.add`.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Dict, Iterator

__all__ = ["PhaseStats", "Profiler", "merge_profiles"]


class PhaseStats:
    """Accumulated wall-clock statistics of one profiled phase."""

    __slots__ = ("calls", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "min_s": self.min_s if self.calls else 0.0,
            "max_s": self.max_s,
        }


class Profiler:
    """Per-phase wall-clock breakdown of a run."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStats] = {}

    def add(self, name: str, seconds: float) -> None:
        """Record an externally timed duration for phase *name*."""
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats()
        stats.add(seconds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block as one call of phase *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def profile(self, name: str) -> Callable[[Callable], Callable]:
        """Decorator form of :meth:`phase`."""

        def decorate(fn: Callable) -> Callable:
            @wraps(fn)
            def profiled(*args: Any, **kwargs: Any) -> Any:
                with self.phase(name):
                    return fn(*args, **kwargs)

            return profiled

        return decorate

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-serializable ``{phase: {calls, total_s, min_s, max_s}}``."""
        return {name: self.phases[name].as_dict() for name in sorted(self.phases)}


def merge_profiles(profiles: Any) -> Dict[str, Dict[str, float]]:
    """Aggregate several :meth:`Profiler.snapshot` dicts into one.

    Calls and totals sum; min/max combine.  Used by the experiment engine
    to fold the per-unit profiles of a run plan into the manifest.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for profile in profiles:
        for name, stats in profile.items():
            into = merged.get(name)
            if into is None:
                merged[name] = dict(stats)
            else:
                calls = into["calls"] + stats["calls"]
                into["total_s"] += stats["total_s"]
                if stats["calls"]:
                    into["min_s"] = (
                        stats["min_s"]
                        if not into["calls"]
                        else min(into["min_s"], stats["min_s"])
                    )
                into["max_s"] = max(into["max_s"], stats["max_s"])
                into["calls"] = calls
    return {name: merged[name] for name in sorted(merged)}

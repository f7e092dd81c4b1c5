"""Parallel experiment engine: run plans, worker pools, and a result cache.

Every figure driver reduces to "run (seed x scheme x condition) units and
average the sample series".  This module makes that explicit and fast:

* :class:`RunUnit` -- one immutable simulation run: a fully seeded
  :class:`~repro.experiments.config.ScenarioSpec` plus a scheme spec
  string (parameterized variants like ``"spray-and-wait:initial_copies=8"``
  are legal, see :mod:`repro.routing.registry`).  Each unit has a
  content-addressed :meth:`~RunUnit.key` hashed over the spec (seed,
  settings, config knobs and fault plan included) and the scheme.
* :class:`RunPlan` -- an immutable sequence of units.  The common-random-
  numbers pairing of the paper's figures is a plan-construction property:
  :meth:`RunPlan.comparison` gives every scheme the same seeded spec per
  repetition, and specs build scenarios deterministically, so all schemes
  see identical scenarios whether units run serially or on different
  worker processes.
* :class:`ResultCache` -- a content-addressed on-disk store (one JSON file
  per unit key, via the :mod:`~repro.experiments.persistence` converters)
  so interrupted or repeated sweeps resume incrementally.
* :class:`ExperimentEngine` -- executes a plan, fanning cache misses out
  over a :class:`~concurrent.futures.ProcessPoolExecutor` (``workers=1``
  stays in-process), and merges outcomes back **in plan order**, so
  parallel output is identical to serial output.

Results always travel through the persistence dict representation --
whether fresh-serial, fresh-parallel, or cache-loaded -- so the three
paths are indistinguishable to callers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dtn.simulator import SimulationResult
from ..obs.manifest import build_manifest, write_manifest
from .config import ScenarioSpec
from .persistence import result_from_dict, result_to_dict
from .runner import PAPER_SCHEMES, AveragedResult, average_results, run_spec

__all__ = [
    "RunUnit",
    "RunPlan",
    "ResultCache",
    "UnitOutcome",
    "UnitProgress",
    "ExperimentEngine",
    "ProgressCallback",
    "default_engine",
    "DEFAULT_CACHE_DIR",
]

#: Bumped whenever the unit hash inputs or cached payload change shape;
#: part of every key, so stale cache entries simply never match.
#: v2: units carry a ``telemetry`` flag and telemetry-enabled entries
#: store the telemetry snapshot beside the result.
#: v3: telemetry snapshots carry phase timings as a timer family, not a
#: ``profile`` block.
#: v4: ``ScenarioSpec`` no longer has ``unlimited_contacts``,
#: ``bandwidth_mb_per_s``, ``sample_interval_hours`` or ``fault_plan``,
#: and ``TableISettings`` no longer has ``orientation_range_deg``.
CACHE_SCHEMA_VERSION = 4

#: Where the CLI puts the cache unless told otherwise.
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro-engine")
).expanduser()


def _package_version() -> str:
    # Lazy: repro/__init__ defines __version__ after importing subpackages.
    from .. import __version__

    return __version__


@dataclass(frozen=True)
class RunUnit:
    """One immutable simulation run: a seeded scenario spec + a scheme.

    ``scheme`` is a registry spec string, so parameterized variants are
    first-class and hash distinctly (``"our-scheme"`` vs
    ``"our-scheme:min_delivery_probability=0.1"``).

    ``telemetry`` asks the executor to observe the run with a
    :class:`~repro.obs.telemetry.SimTelemetry` and keep the snapshot in
    the outcome (and cache entry).  The simulation result itself is
    byte-identical either way, but the flag is part of the cache key so a
    telemetry-enabled sweep never serves a snapshot-less entry.
    """

    spec: ScenarioSpec
    scheme: str
    telemetry: bool = False

    def key(self) -> str:
        """Content hash of everything that determines this unit's result.

        Covers the scheme spec and the full scenario spec -- seed, Table I
        settings, config overrides and fault plan -- plus the package
        version and cache schema version, so a format change invalidates
        old entries instead of serving them.  A code change does not: the
        package version is not bumped when results change.
        """
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "repro_version": _package_version(),
            "scheme": self.scheme,
            "spec": asdict(self.spec),
            "telemetry": self.telemetry,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        suffix = " +telemetry" if self.telemetry else ""
        return f"{self.scheme} seed={self.spec.seed}{suffix}"


@dataclass(frozen=True)
class RunPlan:
    """An immutable, ordered collection of run units."""

    units: Tuple[RunUnit, ...] = ()

    @classmethod
    def comparison(
        cls,
        spec: ScenarioSpec,
        schemes: Sequence[str] = PAPER_SCHEMES,
        num_runs: int = 1,
    ) -> "RunPlan":
        """The classic figure plan: every scheme on *num_runs* seeded specs.

        Seeds follow the historical ``spec.seed + 1000 * run`` ladder, and
        all schemes of one repetition share the seeded spec (common random
        numbers).
        """
        if num_runs < 1:
            raise ValueError(f"num_runs must be at least 1, got {num_runs}")
        units: List[RunUnit] = []
        for run in range(num_runs):
            seeded = spec.with_seed(spec.seed + 1000 * run)
            units.extend(RunUnit(spec=seeded, scheme=name) for name in schemes)
        return cls(tuple(units))

    @classmethod
    def concat(cls, plans: Sequence["RunPlan"]) -> "RunPlan":
        return cls(tuple(unit for plan in plans for unit in plan.units))

    def with_telemetry(self, enabled: bool = True) -> "RunPlan":
        """The same plan with every unit's telemetry flag set to *enabled*."""
        return RunPlan(
            tuple(
                unit if unit.telemetry == enabled else replace(unit, telemetry=enabled)
                for unit in self.units
            )
        )

    def __add__(self, other: "RunPlan") -> "RunPlan":
        return RunPlan(self.units + other.units)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[RunUnit]:
        return iter(self.units)


@dataclass(frozen=True)
class UnitOutcome:
    """One executed (or cache-served) unit with its provenance.

    ``telemetry`` is the :meth:`~repro.obs.telemetry.SimTelemetry.snapshot`
    dict when the unit ran with telemetry, else ``None``.
    """

    unit: RunUnit
    result: SimulationResult
    duration_s: float
    cached: bool
    telemetry: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class UnitProgress:
    """Snapshot handed to the progress callback as each unit finishes."""

    completed: int
    total: int
    unit: RunUnit
    duration_s: float
    cached: bool


ProgressCallback = Callable[[UnitProgress], None]


class ResultCache:
    """Content-addressed on-disk store of finished run units.

    One JSON file per unit key; writes are atomic (write-to-temp then
    :func:`os.replace`) so a killed sweep never leaves a torn entry, and
    unreadable entries degrade to cache misses.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)

    def path_for(self, unit: RunUnit) -> Path:
        return self.directory / f"{unit.key()}.json"

    def get(
        self, unit: RunUnit
    ) -> Optional[Tuple[SimulationResult, Optional[Dict[str, Any]]]]:
        """The stored result and its telemetry snapshot, or None on a miss.

        A missing, torn or undecodable entry is a miss.
        """
        try:
            payload = json.loads(self.path_for(unit).read_text(encoding="utf-8"))
            return result_from_dict(payload["result"]), payload.get("telemetry")
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(
        self,
        unit: RunUnit,
        result_payload: Dict[str, Any],
        duration_s: float,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(unit)
        payload = {
            "unit": {"scheme": unit.scheme, "spec": asdict(unit.spec)},
            "duration_s": duration_s,
            "result": result_payload,
        }
        if telemetry is not None:
            payload["telemetry"] = telemetry
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, default=repr), encoding="utf-8")
        os.replace(tmp, path)

    def __contains__(self, unit: RunUnit) -> bool:
        return self.path_for(unit).exists()


def _execute_unit(unit: RunUnit) -> Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]:
    """Worker entry point: run one unit, return the persistence payload.

    Module-level so it pickles into pool workers; returning the dict (not
    the result object) keeps parent-side values byte-identical to what a
    cache hit would load.  Telemetry-enabled units additionally return the
    snapshot dict (plain JSON types, so it crosses the pool unchanged).
    """
    telemetry = None
    if unit.telemetry:
        from ..obs.telemetry import SimTelemetry

        telemetry = SimTelemetry()
    start = time.perf_counter()
    result = run_spec(unit.spec, unit.scheme, telemetry=telemetry)
    duration = time.perf_counter() - start
    snapshot = telemetry.snapshot() if telemetry is not None else None
    return result_to_dict(result), duration, snapshot


class ExperimentEngine:
    """Executes run plans with optional process parallelism and caching.

    ``workers=1`` runs in-process (no pool, no pickling); ``workers=n``
    fans cache misses out over a process pool.  Either way the returned
    outcomes are ordered by plan position and units are deterministic
    functions of their spec, so parallel output equals serial output.

    ``telemetry=True`` turns every unit of every plan this engine runs
    into a telemetry-enabled unit and aggregates the per-unit snapshots
    into a run manifest after each :meth:`run` (available as
    :attr:`last_manifest`; written to ``manifest_path`` when set).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        telemetry: bool = False,
        manifest_path: Optional[os.PathLike] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.telemetry = telemetry
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        #: Manifest dict of the most recent telemetry-enabled :meth:`run`.
        self.last_manifest: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------

    def run(self, plan: RunPlan) -> List[UnitOutcome]:
        """Execute *plan*; one outcome per unit, in plan order.

        Repeated units (identical keys) execute once and share the result;
        cache hits never execute at all.
        """
        if self.telemetry:
            plan = plan.with_telemetry()
        units = list(plan)
        total = len(units)
        completed = 0
        outcomes: Dict[int, UnitOutcome] = {}
        first_index: Dict[str, int] = {}
        pending: List[int] = []

        def finish(index: int, outcome: UnitOutcome) -> None:
            nonlocal completed
            outcomes[index] = outcome
            completed += 1
            if self.progress is not None:
                self.progress(
                    UnitProgress(
                        completed=completed,
                        total=total,
                        unit=outcome.unit,
                        duration_s=outcome.duration_s,
                        cached=outcome.cached,
                    )
                )

        def finish_executed(
            index: int, executed: Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]
        ) -> None:
            payload, duration, snapshot = executed
            if self.cache is not None:
                self.cache.put(units[index], payload, duration, telemetry=snapshot)
            finish(
                index,
                UnitOutcome(units[index], result_from_dict(payload), duration, False, snapshot),
            )

        for index, unit in enumerate(units):
            key = unit.key()
            if key in first_index:
                continue  # duplicate: resolved at merge time
            first_index[key] = index
            hit = self.cache.get(unit) if self.cache is not None else None
            if hit is not None:
                result, snapshot = hit
                finish(index, UnitOutcome(unit, result, 0.0, True, snapshot))
            else:
                pending.append(index)

        if pending and (self.workers == 1 or len(pending) == 1):
            for index in pending:
                finish_executed(index, _execute_unit(units[index]))
        elif pending:
            max_workers = min(self.workers, len(pending))
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {
                    pool.submit(_execute_unit, units[index]): index for index in pending
                }
                for future in as_completed(futures):
                    finish_executed(futures[future], future.result())

        merged: List[UnitOutcome] = []
        for index, unit in enumerate(units):
            source = outcomes[first_index[unit.key()]]
            if index == first_index[unit.key()]:
                merged.append(source)
            else:
                merged.append(
                    UnitOutcome(
                        unit, source.result, source.duration_s, True, source.telemetry
                    )
                )

        if self.telemetry:
            self.last_manifest = build_manifest(merged)
            if self.manifest_path is not None:
                write_manifest(self.manifest_path, self.last_manifest)
        return merged

    # ------------------------------------------------------------------
    # Figure-shaped conveniences
    # ------------------------------------------------------------------

    def run_comparison(
        self,
        spec: ScenarioSpec,
        schemes: Sequence[str] = PAPER_SCHEMES,
        num_runs: int = 1,
    ) -> Dict[str, AveragedResult]:
        """Every scheme on *num_runs* seed-varied instances of *spec*."""
        jobs = [("comparison", spec, tuple(schemes))]
        return self.run_jobs(jobs, num_runs=num_runs)["comparison"]

    def run_jobs(
        self,
        jobs: Sequence[Tuple[str, ScenarioSpec, Sequence[str]]],
        num_runs: int = 1,
    ) -> Dict[str, Dict[str, AveragedResult]]:
        """Run many labelled comparisons as **one** plan.

        *jobs* is ``[(label, spec, schemes), ...]``; the returned mapping
        is ``{label: {scheme: AveragedResult}}``.  Concatenating the
        conditions into a single plan lets the worker pool parallelize
        across sweep points, not just within one.
        """
        labels = [label for label, _, _ in jobs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate job labels: {labels}")
        plans = [
            RunPlan.comparison(spec, schemes, num_runs) for _, spec, schemes in jobs
        ]
        outcomes = self.run(RunPlan.concat(plans))
        out: Dict[str, Dict[str, AveragedResult]] = {}
        cursor = 0
        for (label, _, schemes), plan in zip(jobs, plans):
            chunk = outcomes[cursor : cursor + len(plan)]
            cursor += len(plan)
            per_scheme: Dict[str, List[SimulationResult]] = {
                name: [] for name in schemes
            }
            for outcome in chunk:
                per_scheme[outcome.unit.scheme].append(outcome.result)
            out[label] = {
                name: average_results(results) for name, results in per_scheme.items()
            }
        return out


def default_engine() -> ExperimentEngine:
    """Engine configured from the environment.

    ``REPRO_WORKERS`` sets the worker count (default 1, serial) and
    ``REPRO_CACHE_DIR`` -- the CLI's cache location -- when set, enables
    the result cache there for library entry points that are not handed
    an engine explicitly.
    """
    workers = max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    cache = ResultCache(cache_dir) if cache_dir else None
    return ExperimentEngine(workers=workers, cache=cache)

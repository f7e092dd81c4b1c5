"""Load generation and chaos soak for the always-on service.

``repro serve`` made the command center a long-lived server;
this package answers the operational questions that follow: what
request rate does a deployment sustain, what do tail latencies look
like under incident-style bursts, and does the service stay correct
while nodes crash and clients vanish mid-request?

* :mod:`~repro.loadgen.plan` -- declarative :class:`LoadPlan` /
  :class:`LoadStage` descriptions (ramp/hold/drain, op mix, SLO
  thresholds, chaos), JSON round-trip, built-in ``smoke``/``soak`` plans;
* :mod:`~repro.loadgen.arrivals` -- seeded open-loop arrival processes
  (steady Poisson, Lewis-thinned ramps, Poisson-cluster bursts with
  spatial epicenters);
* :mod:`~repro.loadgen.workload` -- synthetic ops, with photos drawn
  from the Table I distribution by
  :class:`~repro.workload.photos.PhotoGenerator`;
* :mod:`~repro.loadgen.driver` -- the asyncio driver: paced producer,
  N connection-owning workers, per-second achieved-vs-offered sampling,
  exact op accounting, client-side connection-kill chaos;
* :mod:`~repro.loadgen.chaos` -- server-process chaos: a
  :class:`ManagedServer` subprocess supervisor that SIGKILLs and
  restarts ``repro serve`` mid-soak (pairs with ``--wal-dir`` recovery);
* :mod:`~repro.loadgen.report` -- SLO evaluation and the validated
  ``load-report`` manifest.

Entry point: ``repro loadgen --plan smoke --target HOST:PORT``; see
``docs/LOADGEN.md``.
"""

from .arrivals import Arrival, Incident, stage_arrivals
from .chaos import ManagedServer, free_port, run_load_with_restarts
from .driver import Accounting, LoadResult, StageResult, run_load
from .plan import (
    BUILTIN_PLANS,
    BurstSpec,
    ChaosSpec,
    LoadPlan,
    LoadStage,
    SLOSpec,
    StageMix,
    WorkloadSpec,
    builtin_plan,
    resolve_plan,
)
from .report import build_load_report, describe_result, evaluate_slo
from .workload import SyntheticWorkload, make_workload

__all__ = [
    "Arrival",
    "Incident",
    "stage_arrivals",
    "Accounting",
    "LoadResult",
    "StageResult",
    "run_load",
    "ManagedServer",
    "free_port",
    "run_load_with_restarts",
    "BUILTIN_PLANS",
    "BurstSpec",
    "ChaosSpec",
    "LoadPlan",
    "LoadStage",
    "SLOSpec",
    "StageMix",
    "WorkloadSpec",
    "builtin_plan",
    "resolve_plan",
    "build_load_report",
    "describe_result",
    "evaluate_slo",
    "SyntheticWorkload",
    "make_workload",
]

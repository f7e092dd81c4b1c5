"""repro: Resource-Aware Photo Crowdsourcing Through Disruption Tolerant Networks.

A from-scratch Python reproduction of the ICDCS 2016 paper by Wu, Wang,
Hu, Zhang and Cao.  The package implements the photo coverage model, the
expected-coverage photo selection algorithm, the metadata management
scheme, PROPHET delivery predictability, a discrete-event DTN simulator,
synthetic stand-ins for the MIT Reality / Cambridge06 contact traces, the
smartphone sensor-fusion prototype pipeline, and the full experiment
harness reproducing every figure of the paper's evaluation.

Quickstart::

    from repro.core import Point, PoI, PoIList, CoverageIndex
    from repro.workload import PhotoGenerator
    from repro.experiments import fig5

    results = fig5.run(scale=0.25, num_runs=1)
    print(fig5.report(results))

Subpackages load lazily (PEP 562): ``repro.core`` and everything it
needs -- selection included, which is pure python -- import without
numpy, while the numerical subpackages (traces, sensors, workload,
experiments) pull in numpy only when actually used.  scipy and networkx
load only inside the functions that use them: the trace statistics of
``repro trace-stats``, the seed-sensitivity statistics and the gateway
ablation.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "core",
    "dtn",
    "experiments",
    "metadata_mgmt",
    "obs",
    "routing",
    "sensors",
    "service",
    "traces",
    "workload",
)

#: The stable top-level entry points (see ``docs/API.md``), loaded
#: lazily like the subpackages: ``from repro import create_scheme``
#: works without importing numpy-heavy subsystems you don't use.
_LAZY_ATTRS = {
    # scheme registry (repro.routing)
    "register_scheme": "repro.routing.registry",
    "unregister_scheme": "repro.routing.registry",
    "create_scheme": "repro.routing.registry",
    "scheme_names": "repro.routing.registry",
    "scheme_defaults": "repro.routing.registry",
    "parse_scheme_spec": "repro.routing.registry",
    "UnknownSchemeError": "repro.routing.registry",
    # simulator (repro.dtn)
    "Simulation": "repro.dtn.simulator",
    "SimulationConfig": "repro.dtn.simulator",
    "SimulationResult": "repro.dtn.simulator",
    # experiment engine (repro.experiments)
    "ScenarioSpec": "repro.experiments.config",
    "ExperimentEngine": "repro.experiments.engine",
    "RunPlan": "repro.experiments.engine",
    "RunUnit": "repro.experiments.engine",
    "default_engine": "repro.experiments.engine",
    # observability (repro.obs)
    "MetricsRegistry": "repro.obs.registry",
    "SimTelemetry": "repro.obs.telemetry",
    # service mode (repro.service)
    "CommandCenterServer": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ServiceSession": "repro.service.session",
    "RoutingConfig": "repro.service.router",
    "SchemeRouter": "repro.service.router",
    "replay_scenario": "repro.service.client",
}

__all__ = list(_SUBPACKAGES) + sorted(_LAZY_ATTRS) + ["__version__"]


def __getattr__(name):
    if name in _SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module  # cache: subsequent access skips this hook
        return module
    if name in _LAZY_ATTRS:
        value = getattr(importlib.import_module(_LAZY_ATTRS[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES) | set(_LAZY_ATTRS))

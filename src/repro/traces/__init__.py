"""Contact traces: model, parsers, synthetic generators, analysis.

Re-exports load lazily (PEP 562): the trace *model* and parsers are pure
python, but analysis/synthesis are numpy-backed, and scipy (``analysis``)
and networkx (``graph``) load only inside the functions that need them.
Importing this package -- which :mod:`repro.dtn.simulator` does for
``ContactTrace`` -- must therefore not touch the numerical modules, so
that the simulator and its pure-python selection run on a numpy-free
interpreter.
"""

import importlib

#: re-exported name -> defining submodule
_EXPORTS = {
    "ExponentialFit": "analysis",
    "exponential_fit_report": "analysis",
    "fit_pair_exponential": "analysis",
    "intercontact_ccdf": "analysis",
    "rate_heterogeneity": "analysis",
    "ChurnModel": "churn",
    "apply_churn": "churn",
    "GATEWAY_STRATEGIES": "graph",
    "contact_graph": "graph",
    "graph_summary": "graph",
    "select_gateways_betweenness": "graph",
    "select_gateways_degree": "graph",
    "select_gateways_random": "graph",
    "ContactRecord": "model",
    "ContactTrace": "model",
    "TraceParseError": "parser",
    "load_trace": "parser",
    "parse_csv": "parser",
    "parse_imote": "parser",
    "parse_one_events": "parser",
    "write_csv": "parser",
    "SyntheticTraceSpec": "synthetic",
    "cambridge06_like": "synthetic",
    "gateway_uplink_contacts": "synthetic",
    "generate_trace": "synthetic",
    "mit_reality_like": "synthetic",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # cache: subsequent access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

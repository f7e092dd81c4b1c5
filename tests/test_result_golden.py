"""Whole-run golden: every registered scheme's result is pinned.

``tests/golden/results_seed0.json`` holds the sha256 digest of the
:class:`~repro.dtn.simulator.SimulationResult` (coverage samples, final
coverage, delivery counts and latencies, fault counters) of every
registered scheme on the Table-I scenario at scale 0.1, seed 0 -- once
fault-free and once under :data:`helpers.DISRUPTION_PLAN`.  A change to
selection, eviction, caching or transfer that alters any figure of any
scheme fails here.

Regenerate after an intentional behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_result_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.dtn.faults import FaultPlan
from repro.experiments.runner import run_scenario
from repro.routing import scheme_names

from helpers import DISRUPTION_PLAN, LOSSY_PLAN, build_scenario, result_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "results_seed0.json"

PLANS = {
    "zero": FaultPlan(),
    "disrupted": DISRUPTION_PLAN,
    "lossy": LOSSY_PLAN,
}


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_result_matches_golden(scheme_name, plan_name):
    scenario = build_scenario(0.1, PLANS[plan_name])
    digest = result_digest(run_scenario(scenario, scheme_name))

    if os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0"):
        recorded = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        recorded.setdefault(plan_name, {})[scheme_name] = digest
        GOLDEN_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}[{plan_name}][{scheme_name}]")

    recorded = json.loads(GOLDEN_PATH.read_text())
    assert digest == recorded[plan_name][scheme_name]


def test_golden_covers_every_scheme():
    recorded = json.loads(GOLDEN_PATH.read_text())
    for plan_name in PLANS:
        assert sorted(recorded[plan_name]) == sorted(scheme_names())

"""Tests for the parallel experiment engine (repro.experiments.engine).

The contract under test: a plan's outcome is a pure function of its
units — independent of worker count, of cache state, and of whether a
unit was computed fresh or loaded from disk.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import SimulationConfig
from repro.experiments import fig5
from repro.experiments.config import ScenarioSpec
from repro.experiments.engine import (
    ExperimentEngine,
    ResultCache,
    RunPlan,
    RunUnit,
    default_engine,
)
from repro.experiments.persistence import result_to_dict
from repro.experiments.runner import PAPER_SCHEMES, _best_possible_config

SCALE = 0.05  # tiny but non-degenerate scenario; one unit runs in ~25 ms
SCHEMES = ("our-scheme", "spray-and-wait", "direct")


def small_spec(seed: int = 0) -> ScenarioSpec:
    return fig5.spec(scale=SCALE, seed=seed)


# ----------------------------------------------------------------------
# RunUnit / RunPlan
# ----------------------------------------------------------------------


class TestRunPlan:
    def test_comparison_seed_ladder(self):
        plan = RunPlan.comparison(small_spec(seed=7), SCHEMES, num_runs=2)
        assert len(plan) == 2 * len(SCHEMES)
        # Seed-major, scheme-minor: repetition r uses seed + 1000*r and
        # every scheme of a repetition shares the seeded spec (CRN).
        first, second = plan.units[: len(SCHEMES)], plan.units[len(SCHEMES) :]
        assert {u.spec.seed for u in first} == {7}
        assert {u.spec.seed for u in second} == {1007}
        assert [u.scheme for u in first] == list(SCHEMES)
        assert first[0].spec is first[1].spec

    def test_comparison_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            RunPlan.comparison(small_spec(), SCHEMES, num_runs=0)

    def test_concat_and_add(self):
        a = RunPlan.comparison(small_spec(0), SCHEMES[:1])
        b = RunPlan.comparison(small_spec(1), SCHEMES[:2])
        assert [u.scheme for u in a + b] == [u.scheme for u in RunPlan.concat([a, b])]
        assert len(a + b) == 3

    def test_key_is_content_addressed(self):
        unit = RunUnit(spec=small_spec(0), scheme="our-scheme")
        assert unit.key() == RunUnit(spec=small_spec(0), scheme="our-scheme").key()
        assert unit.key() != RunUnit(spec=small_spec(1), scheme="our-scheme").key()
        assert unit.key() != RunUnit(spec=small_spec(0), scheme="direct").key()
        # Parameterized variants hash distinctly from the base scheme.
        assert (
            unit.key()
            != RunUnit(spec=small_spec(0), scheme="our-scheme:min_delivery_probability=0.1").key()
        )
        # Config-affecting spec fields (fault intensity included) change the key.
        faulty = replace(small_spec(0), fault_intensity=0.2)
        assert unit.key() != RunUnit(spec=faulty, scheme="our-scheme").key()


# ----------------------------------------------------------------------
# Determinism: parallel == serial
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_equals_serial(self):
        # All five paper schemes: this is the check that every Fig. 5-8
        # scheme comes back identical through the process pool.
        spec = small_spec()
        serial = ExperimentEngine(workers=1).run_comparison(spec, PAPER_SCHEMES, num_runs=2)
        parallel = ExperimentEngine(workers=4).run_comparison(spec, PAPER_SCHEMES, num_runs=2)
        assert serial == parallel

    def test_outcomes_in_plan_order(self):
        plan = RunPlan.comparison(small_spec(), SCHEMES, num_runs=2)
        outcomes = ExperimentEngine(workers=4).run(plan)
        assert [o.unit for o in outcomes] == list(plan)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = RunPlan.comparison(small_spec(), SCHEMES)
        seen = []
        engine = ExperimentEngine(workers=1, cache=cache, progress=seen.append)
        first = engine.run(plan)
        assert [o.cached for o in first] == [False] * len(plan)
        assert all(unit in cache for unit in plan)

        seen.clear()
        second = engine.run(plan)
        assert [o.cached for o in second] == [True] * len(plan)
        assert all(p.cached for p in seen)
        assert [result_to_dict(o.result) for o in first] == [
            result_to_dict(o.result) for o in second
        ]

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(workers=1, cache=cache)
        engine.run(RunPlan.comparison(small_spec(seed=0), SCHEMES[:1]))
        changed = replace(small_spec(seed=0), photos_per_hour=123.0)
        outcomes = engine.run(RunPlan(units=(RunUnit(spec=changed, scheme=SCHEMES[0]),)))
        assert not outcomes[0].cached

    def test_resume_after_partial_sweep(self, tmp_path):
        """Delete some entries mid-sweep; only those re-run."""
        cache = ResultCache(tmp_path)
        plan = RunPlan.comparison(small_spec(), SCHEMES, num_runs=2)
        engine = ExperimentEngine(workers=1, cache=cache)
        full = engine.run(plan)

        evicted = list(plan)[::2]  # every other unit "did not finish"
        for unit in evicted:
            cache.path_for(unit).unlink()

        resumed = engine.run(plan)
        assert [o.cached for o in resumed] == [unit not in evicted for unit in plan]
        assert [result_to_dict(o.result) for o in resumed] == [
            result_to_dict(o.result) for o in full
        ]

    def test_torn_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = RunUnit(spec=small_spec(), scheme="direct")
        cache.path_for(unit).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(unit).write_text("{not json", encoding="utf-8")
        assert cache.get(unit) is None
        outcomes = ExperimentEngine(workers=1, cache=cache).run(RunPlan((unit,)))
        assert not outcomes[0].cached
        # The good entry replaced the torn one atomically.
        json.loads(cache.path_for(unit).read_text(encoding="utf-8"))

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = RunPlan.comparison(small_spec(), SCHEMES)
        ExperimentEngine(workers=3, cache=cache).run(plan)
        followup = ExperimentEngine(workers=1, cache=cache).run(plan)
        assert all(o.cached for o in followup)


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------


class TestEngineMechanics:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(workers=0)

    def test_duplicate_units_execute_once(self):
        unit = RunUnit(spec=small_spec(), scheme="direct")
        outcomes = ExperimentEngine(workers=1).run(RunPlan((unit, unit, unit)))
        assert [o.cached for o in outcomes] == [False, True, True]
        assert (
            result_to_dict(outcomes[0].result)
            == result_to_dict(outcomes[1].result)
            == result_to_dict(outcomes[2].result)
        )

    def test_progress_counts_every_unit(self):
        seen = []
        plan = RunPlan.comparison(small_spec(), SCHEMES)
        ExperimentEngine(workers=1, progress=seen.append).run(plan)
        assert [p.completed for p in seen] == list(range(1, len(plan) + 1))
        assert all(p.total == len(plan) for p in seen)

    def test_default_engine_caches_under_repro_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path / "retired"))
        assert default_engine().cache is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        engine = default_engine()
        assert engine.cache.directory == tmp_path / "cache"
        engine.run(RunPlan((RunUnit(spec=small_spec(), scheme="direct"),)))
        assert list((tmp_path / "cache").glob("*.json"))
        assert not (tmp_path / "retired").exists()

    def test_run_jobs_rejects_duplicate_labels(self):
        jobs = [("a", small_spec(), SCHEMES), ("a", small_spec(1), SCHEMES)]
        with pytest.raises(ValueError):
            ExperimentEngine().run_jobs(jobs)

    def test_run_jobs_groups_by_label_and_scheme(self):
        jobs = [
            ("low", small_spec(0), SCHEMES[:2]),
            ("high", small_spec(1), SCHEMES[:2]),
        ]
        out = ExperimentEngine(workers=1).run_jobs(jobs, num_runs=2)
        assert set(out) == {"low", "high"}
        for label in out:
            assert set(out[label]) == set(SCHEMES[:2])
            assert all(r.runs == 2 for r in out[label].values())


# ----------------------------------------------------------------------
# best-possible config derivation (regression for the hand-copied ctor)
# ----------------------------------------------------------------------


class TestBestPossibleConfig:
    def test_lifts_resource_limits_only(self):
        plan = FaultPlan(contact_drop_probability=0.3, seed=9)
        config = SimulationConfig(
            storage_bytes=100_000_000,
            contact_duration_cap_s=60.0,
            validity_threshold=0.25,
            fault_plan=plan,
        )
        bound = _best_possible_config(config)
        assert bound.storage_bytes is None
        assert bound.unlimited_contacts is True
        assert bound.contact_duration_cap_s is None
        # Everything that is not a resource limit survives — notably the
        # fault plan, which the old hand-copied constructor dropped.
        assert bound.fault_plan is plan
        assert bound.validity_threshold == 0.25
        assert bound.effective_angle == config.effective_angle
        assert bound.sample_interval_s == config.sample_interval_s

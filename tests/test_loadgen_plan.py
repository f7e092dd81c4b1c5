"""Tests for load plans, arrival processes, and the synthetic workload.

The contracts under test:

* plans validate eagerly and round-trip losslessly through JSON;
* arrival processes are deterministic per (stage, seed) and realize the
  offered rate within sampling tolerance -- steady, thinned ramp, and
  Poisson-cluster bursts alike;
* the synthetic workload honors the stage mix, draws Table I photos,
  and clusters burst photos around their incident epicenter;
* SLO evaluation flags exactly the violated thresholds.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.loadgen import (
    BurstSpec,
    ChaosSpec,
    LoadPlan,
    LoadStage,
    SLOSpec,
    StageMix,
    SyntheticWorkload,
    WorkloadSpec,
    builtin_plan,
    resolve_plan,
    stage_arrivals,
)
from repro.loadgen.arrivals import Arrival, Incident
from repro.loadgen.driver import Accounting, LoadResult, StageResult
from repro.loadgen.report import evaluate_slo


def assert_table1_photo(photo: dict, size_bytes: int) -> None:
    """Table I metadata: fov in [30, 60] deg, r = c * cot(fov / 2) with
    c in [50, 100] m, and the plan's photo size."""
    meta = photo["metadata"]
    assert 30.0 <= math.degrees(meta["field_of_view"]) <= 60.0
    scale = meta["coverage_range"] * math.tan(meta["field_of_view"] / 2.0)
    assert 50.0 - 1e-9 <= scale <= 100.0 + 1e-9
    assert photo["size_bytes"] == size_bytes


def one_stage_plan(**stage_kwargs) -> LoadPlan:
    defaults = dict(name="hold", duration_s=5.0, rate=20.0)
    defaults.update(stage_kwargs)
    return LoadPlan(name="test", stages=(LoadStage(**defaults),))


class TestPlanValidation:
    def test_builtin_plans_exist_and_validate(self):
        for name in ("smoke", "soak"):
            plan = builtin_plan(name)
            assert plan.name == name
            assert plan.stages

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="unknown built-in"):
            builtin_plan("nope")

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            LoadPlan(stages=())

    def test_duplicate_stage_names_rejected(self):
        stage = LoadStage(name="hold", duration_s=1.0, rate=1.0)
        with pytest.raises(ValueError, match="unique"):
            LoadPlan(stages=(stage, stage))

    def test_ramp_requires_rate_start(self):
        with pytest.raises(ValueError, match="rate_start"):
            LoadStage(name="ramp", duration_s=1.0, rate=10.0, process="ramp")

    def test_rate_start_rejected_on_steady(self):
        with pytest.raises(ValueError, match="only meaningful for ramp"):
            LoadStage(name="s", duration_s=1.0, rate=10.0, rate_start=1.0)

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="process"):
            LoadStage(name="s", duration_s=1.0, rate=10.0, process="chaotic")

    def test_bursty_stage_gets_default_burst_spec(self):
        stage = LoadStage(name="b", duration_s=1.0, rate=10.0, process="bursty")
        assert isinstance(stage.burst, BurstSpec)

    def test_mix_must_have_positive_weight(self):
        with pytest.raises(ValueError, match="positive weight"):
            StageMix(ingest=0.0, contact=0.0, select=0.0)

    def test_mix_normalizes(self):
        weights = StageMix(ingest=2.0, contact=1.0, select=1.0).normalized()
        assert weights == (0.5, 0.25, 0.25)

    def test_slo_bounds_checked(self):
        with pytest.raises(ValueError):
            SLOSpec(max_p99_s=-1.0)
        with pytest.raises(ValueError):
            SLOSpec(max_error_rate=1.5)
        assert not SLOSpec(
            max_p99_s=None, max_error_rate=None, min_rate_attainment=None
        ).enabled

    def test_chaos_bounds_checked(self):
        with pytest.raises(ValueError):
            ChaosSpec(kill_every_s=0.0)
        assert not ChaosSpec().enabled
        assert ChaosSpec(kill_every_s=2.0).enabled

    def test_workload_bounds_checked(self):
        with pytest.raises(ValueError, match="users"):
            WorkloadSpec(users=1)

    @pytest.mark.parametrize(
        "workload",
        [
            {"source": "replay"},
            {"source": "synthetic"},
            {"trace_name": "mit", "scale": 0.05, "seed": 0},
        ],
    )
    def test_removed_workload_keys_rejected(self, workload):
        payload = builtin_plan("smoke").to_dict()
        payload["workload"] = workload
        with pytest.raises(ValueError, match="invalid load plan"):
            LoadPlan.from_dict(payload)

    def test_cli_rejects_a_replay_plan_before_connecting(self, tmp_path, capsys):
        from repro.cli import main

        payload = builtin_plan("smoke").to_dict()
        payload["workload"] = {"source": "replay", "users": 40}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        # Port 1 refuses connections: a plan that got that far would exit 1.
        assert main(["loadgen", "--plan", str(path), "--target", "127.0.0.1:1"]) == 2
        assert "invalid plan" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        from repro.cli import main

        stage = LoadStage(name="hold", duration_s=1.0, rate=1.0)
        with pytest.raises(ValueError, match="seed"):
            LoadPlan(stages=(stage,), seed=-1)
        argv = ["loadgen", "--plan", "smoke", "--seed", "-1", "--target", "127.0.0.1:1"]
        assert main(argv) == 2
        assert "invalid plan" in capsys.readouterr().err

    def test_stage_rate_profile(self):
        ramp = LoadStage(
            name="r", duration_s=10.0, process="ramp", rate_start=0.0, rate=100.0
        )
        assert ramp.rate_at(0.0) == 0.0
        assert ramp.rate_at(5.0) == pytest.approx(50.0)
        assert ramp.rate_at(10.0) == 100.0
        steady = LoadStage(name="s", duration_s=10.0, rate=7.0)
        assert steady.rate_at(3.0) == 7.0


class TestPlanRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        plan = builtin_plan("soak")
        clone = LoadPlan.from_dict(plan.to_dict())
        assert clone == plan

    def test_json_round_trip_is_lossless(self):
        plan = builtin_plan("smoke")
        clone = LoadPlan.from_json(json.dumps(plan.to_dict()))
        assert clone == plan

    def test_from_dict_rejects_unknown_keys(self):
        payload = builtin_plan("smoke").to_dict()
        payload["stages"][0]["surprise"] = 1
        with pytest.raises(ValueError, match="invalid stage"):
            LoadPlan.from_dict(payload)

    def test_scaled_multiplies_every_duration(self):
        plan = builtin_plan("smoke").scaled(2.0)
        reference = builtin_plan("smoke")
        for scaled, original in zip(plan.stages, reference.stages):
            assert scaled.duration_s == pytest.approx(2.0 * original.duration_s)

    def test_resolve_plan_accepts_builtin_and_file(self, tmp_path):
        assert resolve_plan("smoke").name == "smoke"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(builtin_plan("soak").to_dict()))
        assert resolve_plan(path).name == "soak"
        with pytest.raises(ValueError, match="no such plan"):
            resolve_plan("missing.json")


class TestArrivals:
    def test_deterministic_per_seed(self):
        stage = LoadStage(name="hold", duration_s=10.0, rate=50.0)
        a = stage_arrivals(stage, seed=7)
        b = stage_arrivals(stage, seed=7)
        assert [x.offset_s for x in a] == [x.offset_s for x in b]
        c = stage_arrivals(stage, seed=8)
        assert [x.offset_s for x in a] != [x.offset_s for x in c]

    def test_sorted_and_inside_stage_window(self):
        for process, kwargs in (
            ("steady", {}),
            ("ramp", {"rate_start": 5.0}),
            ("bursty", {}),
        ):
            stage = LoadStage(
                name="s", duration_s=8.0, rate=40.0, process=process, **kwargs
            )
            arrivals = stage_arrivals(stage, seed=3)
            offsets = [a.offset_s for a in arrivals]
            assert offsets == sorted(offsets)
            assert all(0.0 <= t < stage.duration_s for t in offsets)

    def test_steady_rate_within_tolerance(self):
        stage = LoadStage(name="hold", duration_s=60.0, rate=50.0)
        count = len(stage_arrivals(stage, seed=1))
        # 3000 expected; 5 sigma ~ 275.
        assert abs(count - 3000) < 300

    def test_ramp_realizes_the_triangle(self):
        stage = LoadStage(
            name="ramp", duration_s=60.0, process="ramp", rate_start=0.0, rate=50.0
        )
        arrivals = stage_arrivals(stage, seed=1)
        assert abs(len(arrivals) - 1500) < 200
        # More arrivals in the second half than the first: the rate ramps.
        midpoint = stage.duration_s / 2.0
        first = sum(1 for a in arrivals if a.offset_s < midpoint)
        assert first < len(arrivals) - first

    def test_bursty_marks_burst_members_with_incidents(self):
        stage = LoadStage(
            name="b",
            duration_s=60.0,
            rate=50.0,
            process="bursty",
            burst=BurstSpec(share=0.5, size_mean=10.0),
        )
        arrivals = stage_arrivals(stage, seed=2)
        burst_members = [a for a in arrivals if a.incident is not None]
        background = len(arrivals) - len(burst_members)
        # Roughly half the mass in each component (clipping loses a bit).
        assert 0.3 < len(burst_members) / len(arrivals) < 0.7
        assert background > 0
        # Burst members land within the burst window of their incident.
        for arrival in burst_members:
            assert (
                0.0
                <= arrival.offset_s - arrival.incident.time
                <= stage.burst.duration_s
            )

    def test_zero_rate_stage_produces_nothing(self):
        stage = LoadStage(name="idle", duration_s=5.0, rate=0.0)
        assert stage_arrivals(stage, seed=0) == []


class TestSyntheticWorkload:
    def test_ops_are_wire_ready_and_mixed(self):
        spec = WorkloadSpec(users=10, region_m=800.0, photo_size_bytes=123_456)
        workload = SyntheticWorkload(spec, seed=0)
        mix = StageMix()
        kinds = set()
        for index in range(200):
            op = workload.make_op(Arrival(offset_s=0.1), float(index), mix)
            kinds.add(op["op"])
            assert op["time"] == float(index)
            if op["op"] == "ingest":
                assert 1 <= op["user"] <= 10
                assert_table1_photo(op["photo"], 123_456)
                meta = op["photo"]["metadata"]
                assert 0.0 <= meta["x"] <= 800.0 and 0.0 <= meta["y"] <= 800.0
            elif op["op"] == "contact":
                assert op["a"] != op["b"]
        assert kinds == {"ingest", "contact", "select"}

    def test_burst_photos_cluster_around_the_epicenter(self):
        spec = WorkloadSpec(users=10, region_m=2000.0)
        workload = SyntheticWorkload(spec, seed=0, cluster_radius_m=100.0)
        incident = Incident(time=0.0, x=0.5, y=0.5)
        mix = StageMix()
        distances = []
        for index in range(80):
            op = workload.make_op(
                Arrival(offset_s=0.0, incident=incident), float(index), mix
            )
            assert op["op"] == "ingest"  # incident arrivals are photo reports
            assert_table1_photo(op["photo"], spec.photo_size_bytes)
            meta = op["photo"]["metadata"]
            assert 0.0 <= meta["x"] <= 2000.0 and 0.0 <= meta["y"] <= 2000.0
            distances.append(math.hypot(meta["x"] - 1000.0, meta["y"] - 1000.0))
        # Gaussian with sigma=100: nearly everything inside 3 sigma.
        assert sorted(distances)[int(0.9 * len(distances))] < 300.0

    def test_deterministic_per_seed(self):
        spec = WorkloadSpec(users=10)
        mix = StageMix()
        runs = []
        for _ in range(2):
            workload = SyntheticWorkload(spec, seed=5)
            runs.append([workload.make_op(Arrival(0.0), float(i), mix) for i in range(50)])
        assert runs[0] == runs[1]

    def test_ingest_photo_ids_count_up_from_zero(self):
        workload = SyntheticWorkload(WorkloadSpec(users=10), seed=2)
        mix = StageMix()
        incident = Incident(time=0.0, x=0.5, y=0.5)
        ids = []
        for index in range(60):
            arrival = Arrival(0.0, incident=incident if index % 3 == 0 else None)
            op = workload.make_op(arrival, float(index), mix)
            if op["op"] == "ingest":
                ids.append(op["photo"]["photo_id"])
        assert len(ids) >= 20
        assert ids == list(range(len(ids)))


class TestSLOEvaluation:
    def _result(self, plan: LoadPlan) -> LoadResult:
        return LoadResult(plan=plan, host="127.0.0.1", port=1)

    def test_clean_result_passes(self):
        plan = one_stage_plan()
        result = self._result(plan)
        result.stages.append(
            StageResult(
                name="hold", process="steady", gate_rate=True,
                offered=100, completed=100, ok=100, duration_s=5.0,
            )
        )
        result.accounting = Accounting(sent=100, ok=100)
        result.observe("ingest", 0.002)
        assert evaluate_slo(result) == []

    def test_attainment_violation_flagged_on_gated_stage_only(self):
        plan = one_stage_plan()
        result = self._result(plan)
        result.stages.append(
            StageResult(
                name="hold", process="steady", gate_rate=True,
                offered=100, completed=100, ok=50, duration_s=5.0,
            )
        )
        result.stages.append(
            StageResult(
                name="drain", process="steady", gate_rate=False,
                offered=10, completed=10, ok=1, duration_s=1.0,
            )
        )
        result.accounting = Accounting(sent=110, ok=51)
        violations = evaluate_slo(result)
        assert len(violations) == 1
        assert "hold" in violations[0] and "attained" in violations[0]

    def test_p99_violation_names_the_op(self):
        plan = LoadPlan(
            name="t",
            stages=(LoadStage(name="hold", duration_s=1.0, rate=1.0),),
            slo=SLOSpec(max_p99_s=0.001, min_rate_attainment=None),
        )
        result = self._result(plan)
        for _ in range(100):
            result.observe("select", 0.5)
        violations = evaluate_slo(result)
        assert len(violations) == 1
        assert "select" in violations[0] and "p99" in violations[0]

    def test_error_rate_violation(self):
        plan = LoadPlan(
            name="t",
            stages=(LoadStage(name="hold", duration_s=1.0, rate=1.0),),
            slo=SLOSpec(max_error_rate=0.05, min_rate_attainment=None),
        )
        result = self._result(plan)
        result.accounting = Accounting(sent=100, ok=90, timeout=10)
        assert result.accounting.consistent()
        violations = evaluate_slo(result)
        assert len(violations) == 1
        assert "error rate" in violations[0]

    def test_disabled_slo_never_fails(self):
        plan = LoadPlan(
            name="t",
            stages=(LoadStage(name="hold", duration_s=1.0, rate=1.0),),
            slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
        )
        result = self._result(plan)
        result.accounting = Accounting(sent=10, ok=0, timeout=10)
        assert evaluate_slo(result) == []

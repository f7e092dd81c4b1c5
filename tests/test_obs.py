"""Tests for the observability subsystem (repro.obs).

The contracts under test:

* the metrics registry is Prometheus-shaped (golden text exposition) and
  its JSON snapshots round-trip losslessly;
* telemetry never perturbs a simulation -- telemetry-on and
  telemetry-off (``telemetry=None``) runs produce byte-identical results;
* the engine threads telemetry through cache and worker pool, and the
  aggregated run manifest validates against the schema;
* fault activations surface as ``repro_fault_events_total`` samples (the
  counts the robustness study used to discard).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.dtn.tracelog import SimulationLog, attach_logging
from repro.experiments import fig5
from repro.experiments.engine import ExperimentEngine, ResultCache, RunPlan, RunUnit
from repro.experiments.persistence import result_to_dict
from repro.experiments.robustness_study import spec as robustness_spec
from repro.experiments.runner import PAPER_SCHEMES, run_spec
from repro.experiments.telemetry_study import run_telemetry_study, telemetry_report
from repro.obs import (
    MetricsRegistry,
    SimTelemetry,
    SimulationObserver,
    activated,
    active_telemetry,
    build_manifest,
    load_manifest,
    registry_from_snapshot,
    validate_manifest,
    write_manifest,
)
from repro.obs.manifest import merge_metric_snapshots, plan_hash

SCALE = 0.05  # tiny but non-degenerate; one unit runs in ~25 ms

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


def small_spec(seed: int = 0):
    return fig5.spec(scale=SCALE, seed=seed)


def reference_registry() -> MetricsRegistry:
    """A deterministic registry covering all four metric kinds."""
    r = MetricsRegistry()
    requests = r.counter("demo_requests_total", "Requests served, by verb")
    requests.labels(verb="get").inc(3)
    requests.labels(verb="put").inc()
    r.gauge("demo_temperature_celsius", "Current temperature").set(21.5)
    latency = r.histogram(
        "demo_latency_seconds", "Request latency", buckets=(0.1, 0.5, 1.0)
    )
    for value in (0.05, 0.3, 0.7, 2.0):
        latency.observe(value)
    phase = r.timer("demo_phase_seconds", "Phase wall-clock")
    phase.observe(0.25)
    phase.observe(0.75)
    return r


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_counts_and_rejects_negatives(self):
        r = MetricsRegistry()
        c = r.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_factories_are_idempotent_and_kind_checked(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")

    def test_labeled_children_are_distinct_series(self):
        r = MetricsRegistry()
        c = r.counter("contacts_total")
        c.labels(scheme="photonet").inc(2)
        c.labels(scheme="spray").inc()
        assert c.labels(scheme="photonet") is c.labels(scheme="photonet")
        samples = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in r.snapshot()["contacts_total"]["samples"]
        }
        assert samples == {(("scheme", "photonet"),): 2.0, (("scheme", "spray"),): 1.0}

    def test_untouched_series_do_not_appear(self):
        r = MetricsRegistry()
        r.counter("silent")
        assert r.snapshot()["silent"]["samples"] == []

    def test_gauge_goes_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_buckets_are_cumulative_in_prometheus(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 9.0):
            h.observe(v)
        text = r.to_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="5"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_timer_context_and_decorator(self):
        r = MetricsRegistry()
        t = r.timer("work")
        with t.time():
            pass

        @t.wrap
        def f(x):
            return x + 1

        assert f(1) == 2
        assert t.count == 2
        assert t.sum >= 0.0
        assert "# TYPE work summary" in r.to_prometheus()

        r.timer("xfer").labels(phase="transfer").observe(0.5)
        (sample,) = r.snapshot()["xfer"]["samples"]
        assert sample == {
            "labels": {"phase": "transfer"},
            "value": {"count": 1, "sum": 0.5, "min": 0.5, "max": 0.5},
        }

    def test_golden_prometheus_exposition(self):
        assert reference_registry().to_prometheus() == GOLDEN.read_text(encoding="utf-8")

    def test_snapshot_round_trips(self):
        snapshot = reference_registry().snapshot()
        assert registry_from_snapshot(snapshot).snapshot() == snapshot

    def test_snapshot_survives_json(self):
        snapshot = reference_registry().snapshot()
        rehydrated = json.loads(json.dumps(snapshot))
        assert registry_from_snapshot(rehydrated).snapshot() == snapshot

    def test_prometheus_survives_round_trip(self):
        r = reference_registry()
        assert registry_from_snapshot(r.snapshot()).to_prometheus() == r.to_prometheus()


class TestHistogramQuantiles:
    """Edge cases of the bucket-interpolated quantile estimator (the
    number behind every p50/p95/p99 the service and loadgen report)."""

    def _histogram(self, buckets=(1.0, 2.0, 4.0)):
        return MetricsRegistry().histogram("q", buckets=buckets)

    def test_empty_histogram_is_nan(self):
        h = self._histogram()
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.quantile(0.0))
        assert math.isnan(h.quantile(1.0))

    def test_out_of_range_q_raises(self):
        h = self._histogram()
        h.observe(0.5)
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError, match="quantile"):
                h.quantile(q)

    def test_q0_is_the_lower_edge_of_the_first_nonempty_bucket(self):
        h = self._histogram()
        h.observe(3.0)  # lands in (2, 4]
        assert h.quantile(0.0) == 2.0

    def test_q1_is_the_upper_edge_of_the_last_nonempty_bucket(self):
        h = self._histogram()
        for value in (0.5, 1.5, 3.0):
            h.observe(value)
        assert h.quantile(1.0) == 4.0

    def test_interpolates_within_the_winning_bucket(self):
        h = self._histogram(buckets=(10.0,))
        for _ in range(4):
            h.observe(5.0)
        # All mass in [0, 10]: the median interpolates to the midpoint.
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(0.25) == pytest.approx(2.5)

    def test_all_mass_beyond_the_last_bucket_clamps_to_it(self):
        h = self._histogram(buckets=(1.0, 2.0))
        for _ in range(5):
            h.observe(100.0)  # implicit +Inf bucket only
        assert h.count == 5
        assert sum(h.bucket_counts) == 0
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 2.0

    def test_mixed_finite_and_overflow_mass(self):
        h = self._histogram(buckets=(1.0,))
        h.observe(0.5)
        h.observe(50.0)  # overflow
        # The median sits in the finite bucket, the tail clamps.
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(0.99) == 1.0

    def test_monotone_in_q(self):
        h = self._histogram(buckets=(0.1, 0.5, 1.0, 5.0))
        for value in (0.05, 0.3, 0.3, 0.9, 2.0, 7.0):
            h.observe(value)
        quantiles = [h.quantile(q / 20.0) for q in range(21)]
        assert quantiles == sorted(quantiles)


# ----------------------------------------------------------------------
# Runtime activation
# ----------------------------------------------------------------------


class TestRuntime:
    def test_inactive_by_default(self):
        assert active_telemetry() is None

    def test_activation_nests_and_restores(self):
        outer, inner = SimTelemetry(), SimTelemetry()
        with activated(outer):
            assert active_telemetry() is outer
            with activated(inner):
                assert active_telemetry() is inner
            assert active_telemetry() is outer
        assert active_telemetry() is None

    def test_none_is_a_passthrough(self):
        with activated(None):
            assert active_telemetry() is None


# ----------------------------------------------------------------------
# SimTelemetry + simulation wiring
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_telemetry_never_perturbs_the_simulation(self):
        plain = run_spec(small_spec(), "our-scheme")
        tel = SimTelemetry()
        instrumented = run_spec(small_spec(), "our-scheme", telemetry=tel)
        assert result_to_dict(plain) == result_to_dict(instrumented)

    def test_instrumented_run_records_the_paper_internals(self):
        tel = SimTelemetry()
        run_spec(small_spec(), "our-scheme", telemetry=tel)
        snap = tel.snapshot()
        metrics = snap["metrics"]

        def total(name):
            return sum(s["value"] for s in metrics.get(name, {}).get("samples", []))

        assert total("repro_contacts_total") > 0
        assert total("repro_transfer_bytes_total") > 0
        assert total("repro_metadata_cache_events_total") > 0
        assert total("repro_selection_iterations_total") > 0
        assert snap["coverage_curve"], "uplinks must produce coverage points"
        assert snap["buffer_occupancy"], "SAMPLE events must produce occupancy points"
        phases = {
            s["labels"]["phase"]: s["value"]
            for s in snap["metrics"]["repro_phase_seconds"]["samples"]
        }
        assert set(phases) == {"selection", "expected_coverage", "transfer"}
        for phase, value in phases.items():
            assert value["count"] > 0, phase
        assert "profile" not in snap
        assert snap["scheme"] == "our-scheme"

    def test_phase_series_appear_only_for_phases_that_ran(self):
        tel = SimTelemetry()
        run_spec(small_spec(), "spray-and-wait", telemetry=tel)
        phases = tel.snapshot()["metrics"]["repro_phase_seconds"]["samples"]
        assert phases == []

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_encounter_counter_counts_node_pair_contacts(self, scheme):
        tel = SimTelemetry()
        run_spec(small_spec(), scheme, telemetry=tel)
        metrics = tel.snapshot()["metrics"]
        (encounters,) = metrics["repro_prophet_encounters_total"]["samples"]
        contacts = {
            s["labels"]["kind"]: s["value"] for s in metrics["repro_contacts_total"]["samples"]
        }
        assert encounters["value"] == contacts["contact"] > 0

    def test_coverage_curve_is_monotone_in_delivered(self):
        tel = SimTelemetry()
        run_spec(small_spec(), "our-scheme", telemetry=tel)
        delivered = [point["delivered"] for point in tel.coverage_curve]
        assert delivered == sorted(delivered)

    def test_fault_activations_surface_as_metrics(self):
        tel = SimTelemetry()
        run_spec(robustness_spec(1.0, scale=SCALE), "our-scheme", telemetry=tel)
        samples = tel.snapshot()["metrics"]["repro_fault_events_total"]["samples"]
        assert samples, "intensity-1.0 fault plan must activate faults"
        assert all(s["value"] > 0 for s in samples)
        assert any(s["labels"]["fault"] == "contacts_truncated" for s in samples)


class TestObserverWiring:
    def test_simulation_log_implements_the_protocol(self):
        assert isinstance(SimulationLog(), SimulationObserver)
        assert isinstance(SimTelemetry(), SimulationObserver)

    def test_attach_logging_fans_out_to_observers(self):
        from repro.experiments.runner import run_scenario
        from repro.dtn.simulator import Simulation
        from repro.routing import create_scheme

        scenario = small_spec().build()
        tel = SimTelemetry()
        wrapped, log = attach_logging(create_scheme("our-scheme"), observers=(tel,))
        Simulation(
            trace=scenario.trace,
            pois=scenario.pois,
            photo_arrivals=scenario.photo_arrivals,
            scheme=wrapped,
            config=scenario.config,
            gateway_ids=scenario.gateway_ids,
            end_time_s=scenario.end_time_s,
            telemetry=tel,
        ).run()
        assert len(log) > 0
        movements = tel.snapshot()["metrics"]["repro_log_events_total"]["samples"]
        observed = sum(s["value"] for s in movements)
        assert observed > 0
        expected = sum(
            sum(len(ids) for ids in entry.gained.values())
            + sum(len(ids) for ids in entry.lost.values())
            + len(entry.delivered)
            for entry in log.entries
        )
        assert observed == expected


# ----------------------------------------------------------------------
# Engine integration + manifest
# ----------------------------------------------------------------------


class TestEngineTelemetry:
    def test_unit_key_depends_on_telemetry_flag(self):
        unit = RunUnit(spec=small_spec(), scheme="our-scheme")
        assert unit.key() != RunUnit(
            spec=small_spec(), scheme="our-scheme", telemetry=True
        ).key()

    def test_engine_builds_a_valid_manifest(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        engine = ExperimentEngine(telemetry=True, manifest_path=manifest_path)
        plan = RunPlan.comparison(small_spec(), ("our-scheme", "spray-and-wait"))
        outcomes = engine.run(plan)
        assert all(o.telemetry is not None for o in outcomes)
        manifest = load_manifest(manifest_path)  # validates structurally
        assert manifest == engine.last_manifest
        assert manifest["schemes"] == ["our-scheme", "spray-and-wait"]

        def total(name):
            return sum(
                s["value"] for s in manifest["metrics"][name]["samples"]
            )

        assert total("repro_contacts_total") > 0
        assert total("repro_transfer_bytes_total") > 0
        assert total("repro_metadata_cache_events_total") > 0
        assert manifest["coverage_over_time"]["our-scheme"]
        (selection,) = [
            s for s in manifest["metrics"]["repro_phase_seconds"]["samples"]
            if s["labels"] == {"phase": "selection"}
        ]
        assert selection["value"]["count"] > 0

    def test_cached_units_keep_their_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        plan = RunPlan.comparison(small_spec(), ("our-scheme",))
        first = ExperimentEngine(telemetry=True, cache=cache)
        fresh = first.run(plan)
        second = ExperimentEngine(telemetry=True, cache=cache)
        served = second.run(plan)
        assert [o.cached for o in fresh] == [False]
        assert [o.cached for o in served] == [True]
        assert served[0].telemetry["metrics"] == fresh[0].telemetry["metrics"]
        assert second.last_manifest["metrics"] == first.last_manifest["metrics"]

    def test_telemetry_off_engine_attaches_nothing(self):
        outcomes = ExperimentEngine().run(
            RunPlan.comparison(small_spec(), ("our-scheme",))
        )
        assert outcomes[0].telemetry is None

    def test_telemetry_study_end_to_end(self, tmp_path):
        manifest = run_telemetry_study(
            scale=SCALE,
            schemes=("our-scheme",),
            engine=ExperimentEngine(),
            manifest_path=tmp_path / "m.json",
        )
        assert validate_manifest(manifest) == []
        report = telemetry_report(manifest)
        assert "repro_contacts_total" in report
        assert "wall-clock profile" in report


class TestManifest:
    def test_plan_hash_is_order_sensitive(self):
        assert plan_hash(["a", "b"]) != plan_hash(["b", "a"])
        assert plan_hash(["a", "b"]) == plan_hash(iter(["a", "b"]))

    def test_merge_metric_snapshots_sums_counters_averages_gauges(self):
        snap = lambda c, g: {
            "hits": {"kind": "counter", "help": "", "samples": [
                {"labels": {}, "value": c}]},
            "depth": {"kind": "gauge", "help": "", "samples": [
                {"labels": {}, "value": g}]},
        }
        merged = merge_metric_snapshots([snap(2, 10), snap(3, 20)])
        assert merged["hits"]["samples"][0]["value"] == 5
        assert merged["depth"]["samples"][0]["value"] == 15

    def test_merge_metric_snapshots_adds_timers_and_combines_extremes(self):
        def timer(count, total, low, high):
            return {"count": count, "sum": total, "min": low, "max": high}

        def snap(*samples):
            return {"repro_phase_seconds": {"kind": "timer", "help": "", "samples": [
                {"labels": {"phase": phase}, "value": value} for phase, value in samples
            ]}}

        merged = merge_metric_snapshots([
            snap(("sel", timer(2, 1.0, 0.4, 0.6))),
            snap(("sel", timer(1, 0.2, 0.2, 0.2)), ("xfer", timer(1, 0.1, 0.1, 0.1))),
        ])
        by_phase = {
            s["labels"]["phase"]: s["value"]
            for s in merged["repro_phase_seconds"]["samples"]
        }
        assert by_phase["sel"] == timer(3, 1.2, 0.2, 0.6)
        assert by_phase["xfer"]["count"] == 1

    def test_validate_rejects_structural_damage(self, tmp_path):
        engine = ExperimentEngine(telemetry=True)
        engine.run(RunPlan.comparison(small_spec(), ("our-scheme",)))
        manifest = engine.last_manifest
        assert validate_manifest(manifest) == []

        broken = dict(manifest)
        del broken["plan_hash"]
        assert any("plan_hash" in e for e in validate_manifest(broken))

        broken = dict(manifest, plan_hash="nothex")
        assert any("plan_hash" in e for e in validate_manifest(broken))

        broken = dict(manifest, units=[])
        assert any("units" in e for e in validate_manifest(broken))

        with pytest.raises(ValueError):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps(dict(manifest, schemes=[])))
            load_manifest(path)

    def test_write_and_load_round_trip(self, tmp_path):
        engine = ExperimentEngine(telemetry=True)
        engine.run(RunPlan.comparison(small_spec(), ("our-scheme",)))
        path = write_manifest(tmp_path / "deep" / "m.json", engine.last_manifest)
        assert load_manifest(path) == engine.last_manifest

    def test_build_manifest_counts_cached_and_executed(self):
        engine = ExperimentEngine(telemetry=True)
        outcomes = engine.run(RunPlan.comparison(small_spec(), ("our-scheme",)))
        manifest = build_manifest(outcomes)
        assert manifest["timings"]["executed_units"] == 1
        assert manifest["timings"]["cached_units"] == 0
        assert manifest["seeds"] == [0]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    def _write_manifest(self, tmp_path) -> Path:
        engine = ExperimentEngine(telemetry=True)
        engine.run(RunPlan.comparison(small_spec(), ("our-scheme",)))
        return write_manifest(tmp_path / "manifest.json", engine.last_manifest)

    def test_metrics_command_summarizes(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_manifest(tmp_path)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_contacts_total" in out

    def test_metrics_command_prometheus(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_manifest(tmp_path)
        assert main(["metrics", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_contacts_total counter" in out

    def test_metrics_command_rejects_invalid(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["metrics", str(path)]) == 1

    def test_telemetry_flag_writes_manifest(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "fig5", "--scale", str(SCALE), "--runs", "1",
            "--no-cache", "--telemetry",
        ])
        assert code == 0
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest["schemes"]

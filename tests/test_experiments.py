"""Tests for the experiment harness: Table I, scenario specs, runner, report."""

from __future__ import annotations

import math

import pytest

from repro.dtn.simulator import SimulationResult, SampleRecord
from repro.core.coverage import CoverageValue
from repro.experiments.config import (
    TRACE_CAMBRIDGE,
    TRACE_MIT,
    ScenarioSpec,
    TableISettings,
)
from repro.experiments.report import format_comparison, format_series, format_sweep, format_table
from repro.experiments.engine import default_engine
from repro.experiments.runner import PAPER_SCHEMES, average_results
from repro.routing import create_scheme, scheme_names


class TestTableISettings:
    def test_verbatim_values(self):
        settings = TableISettings()
        assert settings.photo_size_bytes == 4 * 1024 * 1024
        assert settings.effective_angle_deg == 30.0
        assert settings.fov_range_deg == (30.0, 60.0)
        assert settings.range_scale_m == (50.0, 100.0)
        assert settings.validity_threshold == 0.8
        assert (settings.prophet_p_init, settings.prophet_beta, settings.prophet_gamma) == (
            0.75,
            0.25,
            0.98,
        )
        assert settings.nodes_mit == 97
        assert settings.nodes_cambridge == 54
        assert settings.sim_hours_mit == 300.0
        assert settings.sim_hours_cambridge == 200.0
        assert settings.num_pois == 250
        assert settings.region_m == 6300.0

    def test_prophet_parameters_roundtrip(self):
        params = TableISettings().prophet_parameters()
        assert params.p_init == 0.75
        assert params.beta == 0.25
        assert params.gamma == 0.98

    def test_effective_angle_radians(self):
        assert TableISettings().effective_angle_rad() == pytest.approx(math.radians(30.0))


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(trace_name="bogus")
        with pytest.raises(ValueError):
            ScenarioSpec(scale=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(photos_per_hour=-1.0)

    def test_full_scale_dimensions(self):
        spec = ScenarioSpec(trace_name=TRACE_MIT, scale=1.0)
        assert spec.num_nodes() == 97
        assert spec.duration_hours() == 300.0
        assert spec.num_pois() == 250
        cam = ScenarioSpec(trace_name=TRACE_CAMBRIDGE, scale=1.0)
        assert cam.num_nodes() == 54
        assert cam.duration_hours() == 200.0

    def test_scaled_dimensions_shrink_together(self):
        spec = ScenarioSpec(trace_name=TRACE_MIT, scale=0.2)
        assert spec.num_nodes() == pytest.approx(19, abs=1)
        assert spec.num_pois() == 50
        # Region shrinks with sqrt(scale) to preserve PoI density.
        density_full = 250 / 6300.0**2
        density_scaled = spec.num_pois() / spec.region_m() ** 2
        assert density_scaled == pytest.approx(density_full, rel=0.05)

    def test_build_produces_consistent_scenario(self):
        spec = ScenarioSpec(trace_name=TRACE_MIT, scale=0.1, seed=3)
        scenario = spec.build()
        assert len(scenario.pois) == spec.num_pois()
        assert scenario.gateway_ids  # at least one gateway
        node_ids = scenario.trace.node_ids()
        assert 0 in node_ids  # uplink contacts present
        for arrivalevent in scenario.photo_arrivals[:20]:
            assert arrivalevent.owner_id != 0
            assert arrivalevent.time <= scenario.end_time_s

    def test_build_deterministic(self):
        a = ScenarioSpec(scale=0.1, seed=5).build()
        b = ScenarioSpec(scale=0.1, seed=5).build()
        assert list(a.trace) == list(b.trace)
        assert [(x.time, x.owner_id) for x in a.photo_arrivals] == [
            (y.time, y.owner_id) for y in b.photo_arrivals
        ]

    def test_with_seed(self):
        spec = ScenarioSpec(seed=1)
        assert spec.with_seed(42).seed == 42
        assert spec.seed == 1

    def test_storage_none_is_unlimited(self):
        scenario = ScenarioSpec(scale=0.1, storage_gb=None).build()
        assert scenario.config.storage_bytes is None

    def test_contact_cap_flows_to_config(self):
        scenario = ScenarioSpec(scale=0.1, contact_duration_cap_s=30.0).build()
        assert scenario.config.contact_duration_cap_s == 30.0


class TestRunner:
    def test_scheme_registry_covers_paper(self):
        names = scheme_names()
        for name in PAPER_SCHEMES:
            assert name in names
        assert "photonet" in names

    def test_factories_produce_fresh_instances(self):
        a = create_scheme("our-scheme")
        b = create_scheme("our-scheme")
        assert a is not b

    def test_run_comparison_small(self):
        spec = ScenarioSpec(scale=0.05, seed=0)
        results = default_engine().run_comparison(
            spec, ("our-scheme", "spray-and-wait"), num_runs=2
        )
        assert set(results) == {"our-scheme", "spray-and-wait"}
        for result in results.values():
            assert result.runs == 2
            assert len(result.sample_times) == len(result.point_series)
            assert 0.0 <= result.point_coverage <= 1.0

    def test_run_comparison_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            default_engine().run_comparison(
                ScenarioSpec(scale=0.05), ("our-scheme",), num_runs=0
            )


class TestAveraging:
    def make_result(self, points, delivered):
        samples = [
            SampleRecord(time=float(i), point_coverage=p, aspect_coverage_deg=10 * p,
                         delivered_photos=delivered)
            for i, p in enumerate(points)
        ]
        return SimulationResult(
            scheme="x",
            samples=samples,
            final_coverage=CoverageValue(points[-1], 0.0),
            delivered_photos=delivered,
        )

    def test_averages_finals_and_series(self):
        a = self.make_result([0.0, 0.5], delivered=10)
        b = self.make_result([0.2, 0.7], delivered=20)
        averaged = average_results([a, b])
        assert averaged.runs == 2
        assert averaged.point_coverage == pytest.approx(0.6)
        assert averaged.delivered_photos == 15.0
        assert averaged.point_series == [pytest.approx(0.1), pytest.approx(0.6)]

    def test_truncates_to_common_prefix(self):
        a = self.make_result([0.0, 0.5, 0.8], delivered=1)
        b = self.make_result([0.2, 0.7], delivered=1)
        averaged = average_results([a, b])
        assert len(averaged.point_series) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_results([])


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["a", "long-header"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "long-header" in lines[0]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_format_comparison_and_series(self):
        from repro.experiments.runner import AveragedResult

        results = {
            "ours": AveragedResult(
                scheme="ours", runs=1, point_coverage=0.5, aspect_coverage_deg=30.0,
                delivered_photos=10.0, sample_times=[3600.0], point_series=[0.5],
                aspect_series_deg=[30.0], delivered_series=[10.0],
            )
        }
        comparison = format_comparison(results, title="T")
        assert comparison.startswith("T\n")
        assert "ours" in comparison
        series = format_series(results, metric="point")
        assert "1h" in series
        with pytest.raises(ValueError):
            format_series(results, metric="bogus")

    def test_format_sweep(self):
        from repro.experiments.runner import AveragedResult

        row = AveragedResult(
            scheme="ours", runs=1, point_coverage=0.5, aspect_coverage_deg=30.0,
            delivered_photos=10.0,
        )
        sweep = {"0.2GB": {"ours": row}, "0.4GB": {"ours": row}}
        text = format_sweep(sweep, metric="point")
        assert "0.2GB" in text and "0.4GB" in text
        with pytest.raises(ValueError):
            format_sweep(sweep, metric="bogus")

    def test_empty_inputs(self):
        assert format_series({}, metric="point", title="t") == "t"
        assert format_sweep({}, metric="point", title="t") == "t"

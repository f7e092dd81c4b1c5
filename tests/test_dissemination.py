"""Tests for PoI-list dissemination, latency tracking, and ascii plots."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.dtn.dissemination import (
    delay_participation,
    dissemination_quantiles,
    poi_list_arrival_times,
)
from repro.experiments.asciiplot import histogram, line_chart, sparkline
from repro.experiments.dissemination_study import run_dissemination_study
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

from helpers import make_photo


def chain_trace():
    """1 meets 2 at t=100, 2 meets 3 at t=200, 3 meets 4 at t=50 (early)."""
    return ContactTrace(
        [
            ContactRecord(100.0, 1, 2, 10.0),
            ContactRecord(200.0, 2, 3, 10.0),
            ContactRecord(50.0, 3, 4, 10.0),
        ]
    )


class TestPoIListArrival:
    def test_epidemic_chain(self):
        times = poi_list_arrival_times(chain_trace(), source_ids=[1], issue_time=0.0)
        assert times[1] == 0.0
        assert times[2] == 100.0
        assert times[3] == 200.0
        assert times[4] == math.inf  # its only contact happened too early

    def test_issue_time_gates_spread(self):
        times = poi_list_arrival_times(chain_trace(), source_ids=[1], issue_time=150.0)
        assert times[2] == math.inf  # the (1,2) contact predates the issue

    def test_multiple_sources(self):
        times = poi_list_arrival_times(chain_trace(), source_ids=[1, 3], issue_time=0.0)
        assert times[4] == 50.0
        assert times[2] == 100.0

    def test_simultaneous_knowledge_not_retroactive(self):
        # 2 learns at 100; a contact at exactly 100 with knowledge gained at
        # 100 does propagate (closed interval).
        trace = ContactTrace(
            [ContactRecord(100.0, 1, 2, 10.0), ContactRecord(100.0, 2, 3, 10.0)]
        )
        times = poi_list_arrival_times(trace, source_ids=[1])
        assert times[3] == 100.0

    def test_quantiles(self):
        times = {1: 0.0, 2: 100.0, 3: 200.0, 4: math.inf}
        quantiles = dissemination_quantiles(times, (0.5, 0.75, 1.0))
        assert quantiles[0.5] == 100.0
        assert quantiles[0.75] == 200.0
        assert quantiles[1.0] == math.inf

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            dissemination_quantiles({}, (0.0,))

    def test_empty(self):
        assert dissemination_quantiles({}, (0.5,)) == {0.5: math.inf}


class TestDelayParticipation:
    def test_drops_pre_knowledge_photos(self):
        photo_early = make_photo(0, 0, 0, taken_at=50.0)
        photo_late = make_photo(0, 0, 0, taken_at=150.0)
        arrivals = [
            PhotoArrival(50.0, 1, photo_early),
            PhotoArrival(150.0, 1, photo_late),
        ]
        kept = delay_participation(arrivals, {1: 100.0})
        assert [a.photo for a in kept] == [photo_late]

    def test_uninformed_owner_never_participates(self):
        arrivals = [PhotoArrival(50.0, 9, make_photo(0, 0, 0))]
        assert delay_participation(arrivals, {1: 0.0}) == []

    def test_boundary_inclusive(self):
        arrivals = [PhotoArrival(100.0, 1, make_photo(0, 0, 0))]
        assert len(delay_participation(arrivals, {1: 100.0})) == 1


class TestDisseminationStudy:
    def test_study_shape(self):
        outcome = run_dissemination_study(
            schemes=("our-scheme",), scale=0.08, num_runs=1, seed=0
        )
        assert 0.0 < outcome.informed_fraction <= 1.0
        assert set(outcome.with_delay) == {"our-scheme"}
        # Dropping early photos cannot increase coverage.
        assert outcome.coverage_cost("our-scheme") >= -1e-9
        assert 0.5 in outcome.arrival_quantiles_h


class TestLatencyTracking:
    def test_latencies_recorded(self):
        from repro.core.geometry import Point
        from repro.core.poi import PoI, PoIList
        from repro.dtn.simulator import Simulation, SimulationConfig
        from repro.routing.coverage_scheme import CoverageSelectionScheme
        from helpers import photo_at_aspect

        photo = photo_at_aspect(Point(0.0, 0.0), aspect_deg=0.0)
        photo = dataclasses.replace(photo, taken_at=10.0)
        sim = Simulation(
            trace=ContactTrace([ContactRecord(500.0, 0, 1, 60.0)]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=[PhotoArrival(10.0, 1, photo)],
            scheme=CoverageSelectionScheme(),
            config=SimulationConfig(unlimited_contacts=True, sample_interval_s=3600.0),
        )
        result = sim.run()
        assert result.delivery_latencies_s == [pytest.approx(490.0)]

    def test_percentile_empty_is_nan(self):
        from repro.dtn.simulator import nearest_rank

        assert math.isnan(nearest_rank([], 0.5))
        with pytest.raises(ValueError):
            nearest_rank([], 2.0)


class TestAsciiPlot:
    def test_sparkline_shape(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat(self):
        assert sparkline([2.0, 2.0]) == "▁▁"

    def test_sparkline_handles_nan(self):
        line = sparkline([0.0, float("nan"), 1.0])
        assert line[1] == " "

    def test_sparkline_empty_data(self):
        assert sparkline([float("nan")]) == " "

    def test_line_chart_renders(self):
        chart = line_chart({"a": [0, 1, 2, 3], "b": [3, 2, 1, 0]}, width=20, height=5)
        lines = chart.splitlines()
        assert any("o" in line for line in lines)
        assert any("x" in line for line in lines)
        assert "o=a" in chart and "x=b" in chart

    def test_line_chart_validation(self):
        with pytest.raises(ValueError):
            line_chart({"a": [1]}, width=2, height=2)

    def test_line_chart_no_data(self):
        assert line_chart({"a": []}) == "(no data)"

    def test_histogram_counts(self):
        text = histogram([1.0, 1.0, 2.0, 9.0], bins=4)
        assert "(3)" in text  # 1.0, 1.0 and 2.0 share the first [1, 3) bin
        assert "(1)" in text  # 9.0 alone in the last bin

    def test_histogram_flat(self):
        assert "(3)" in histogram([5.0, 5.0, 5.0])

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)

    def test_histogram_empty(self):
        assert histogram([]) == "(no data)"

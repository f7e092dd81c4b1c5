"""End-to-end integration tests: the paper's qualitative claims at small scale.

These run real (scaled-down) simulations and assert the *shape* results of
Section V: scheme ordering, the contact-duration robustness, the delivered
photo-count gap, and the prototype demo outcome.  Seeds are fixed; runs
are deterministic.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point
from repro.experiments import fig3_demo, fig5, fig6
from repro.experiments.config import ScenarioSpec
from repro.experiments.engine import default_engine
from repro.experiments.runner import run_scenario
from repro.workload.photos import PhotoGenerator

from helpers import result_digest

SCALE = 0.12
SEED = 0


@pytest.fixture(scope="module")
def fig5_results():
    """One shared small-scale five-scheme comparison."""
    spec = fig5.spec(scale=SCALE, seed=SEED)
    return default_engine().run_comparison(
        spec,
        ("best-possible", "our-scheme", "no-metadata", "modified-spray", "spray-and-wait"),
        num_runs=2,
    )


class TestSchemeOrdering:
    def test_best_possible_is_upper_bound(self, fig5_results):
        best = fig5_results["best-possible"]
        for name, result in fig5_results.items():
            assert result.point_coverage <= best.point_coverage + 1e-9, name
            assert result.aspect_coverage_deg <= best.aspect_coverage_deg + 1e-9, name

    def test_ours_beats_spray_and_wait(self, fig5_results):
        ours = fig5_results["our-scheme"]
        spray = fig5_results["spray-and-wait"]
        assert ours.point_coverage > spray.point_coverage
        assert ours.aspect_coverage_deg > spray.aspect_coverage_deg

    def test_ours_at_least_modified_spray(self, fig5_results):
        ours = fig5_results["our-scheme"]
        modified = fig5_results["modified-spray"]
        assert ours.point_coverage >= modified.point_coverage - 1e-9
        assert ours.aspect_coverage_deg >= modified.aspect_coverage_deg - 1e-9

    def test_ours_at_least_no_metadata(self, fig5_results):
        ours = fig5_results["our-scheme"]
        nometa = fig5_results["no-metadata"]
        # Aspect coverage is where metadata caching pays off.
        assert ours.aspect_coverage_deg >= nometa.aspect_coverage_deg - 1e-9

    def test_modified_spray_beats_plain_spray(self, fig5_results):
        modified = fig5_results["modified-spray"]
        spray = fig5_results["spray-and-wait"]
        assert modified.aspect_coverage_deg >= spray.aspect_coverage_deg

    def test_selective_schemes_deliver_far_fewer_photos(self, fig5_results):
        """Figs. 7(c)/8(c): ours and NoMetadata deliver dramatically fewer
        photos than the spray baselines."""
        ours = fig5_results["our-scheme"]
        spray = fig5_results["spray-and-wait"]
        assert ours.delivered_photos < 0.6 * spray.delivered_photos

    def test_coverage_series_grow_over_time(self, fig5_results):
        for name, result in fig5_results.items():
            series = result.point_series
            assert series[-1] >= series[0], name
            # Monotone non-decreasing (the CC never loses photos).
            assert all(b >= a - 1e-12 for a, b in zip(series, series[1:])), name


class TestContactDurationRobustness:
    def test_mild_cap_costs_little_harsh_cap_costs_more(self):
        """Fig. 6 shape: 2-minute contacts barely hurt; 30 s hurts more."""
        uncapped = default_engine().run_comparison(
            fig6.spec(None, scale=SCALE, seed=SEED), ("our-scheme",), num_runs=2
        )["our-scheme"]
        capped_120 = default_engine().run_comparison(
            fig6.spec(120.0, scale=SCALE, seed=SEED), ("our-scheme",), num_runs=2
        )["our-scheme"]
        capped_30 = default_engine().run_comparison(
            fig6.spec(30.0, scale=SCALE, seed=SEED), ("our-scheme",), num_runs=2
        )["our-scheme"]
        assert capped_120.point_coverage >= capped_30.point_coverage - 1e-9
        assert uncapped.point_coverage >= capped_30.point_coverage - 1e-9
        # The harsh cap must actually bite relative to no cap.
        assert capped_30.aspect_coverage_deg <= uncapped.aspect_coverage_deg + 1e-9


class TestStorageEffect:
    def test_more_storage_never_hurts_ours(self):
        small = default_engine().run_comparison(
            ScenarioSpec(scale=SCALE, storage_gb=0.05, seed=SEED), ("our-scheme",), num_runs=2
        )["our-scheme"]
        large = default_engine().run_comparison(
            ScenarioSpec(scale=SCALE, storage_gb=0.6, seed=SEED), ("our-scheme",), num_runs=2
        )["our-scheme"]
        assert large.point_coverage >= small.point_coverage - 0.05


class TestPrototypeDemo:
    def test_fig3_shape(self):
        """Ours: fewest photos, most aspects; PhotoNet: worst aspects."""
        outcomes = fig3_demo.run(seed=0)
        ours = outcomes["our-scheme"]
        photonet = outcomes["photonet"]
        spray = outcomes["spray-and-wait"]
        assert ours.point_covered
        assert ours.delivered_photos <= spray.delivered_photos
        assert ours.aspect_coverage_deg >= spray.aspect_coverage_deg
        assert ours.aspect_coverage_deg > photonet.aspect_coverage_deg

    def test_demo_baselines_bounded_by_uplink_budget(self):
        """4 uplinks x 3 photos = at most 12 delivered for the baselines."""
        outcomes = fig3_demo.run(seed=0)
        assert outcomes["spray-and-wait"].delivered_photos <= 12
        assert outcomes["photonet"].delivered_photos <= 12

    def test_demo_photo_ids_do_not_depend_on_earlier_photos(self):
        """PhotoNet hashes photo ids, so a demo workload built twice
        carries the same ids."""
        for build in (fig3_demo.build_demo_photos, fig3_demo.build_demo_photos_with_sensors):
            first = build(Point(0.0, 0.0), 0.0)
            second = build(Point(0.0, 0.0), 0.0)
            assert [a.photo.photo_id for a in first] == [a.photo.photo_id for a in second]

    def test_demo_photo_ids_are_dealing_positions(self):
        ideal = fig3_demo.build_demo_photos(Point(0.0, 0.0), 0.0)
        sensed = fig3_demo.build_demo_photos_with_sensors(Point(0.0, 0.0), 0.0)
        assert [a.photo.photo_id for a in ideal] == list(range(len(ideal)))
        assert [a.photo.photo_id for a in sensed] == [a.photo.photo_id for a in ideal]

    def test_demo_report_renders(self):
        outcomes = fig3_demo.run(seed=1)
        text = fig3_demo.report(outcomes)
        assert "our-scheme" in text
        assert "aspect-deg" in text


class TestDeterminism:
    def test_same_seed_same_result(self):
        spec = ScenarioSpec(scale=0.08, seed=7)
        a = run_scenario(spec.build(), "our-scheme")
        b = run_scenario(spec.build(), "our-scheme")
        assert a.delivered_photos == b.delivered_photos
        assert a.final_coverage == b.final_coverage
        assert [s.point_coverage for s in a.samples] == [s.point_coverage for s in b.samples]

    def test_scenario_photo_ids_do_not_depend_on_earlier_photos(self):
        """A scenario numbers its own photos 0..N-1, so photos the process
        made in between leave PhotoNet, which hashes the ids, unchanged."""
        spec = ScenarioSpec(scale=0.02, seed=0)
        first = spec.build()
        PhotoGenerator(seed=9).batch(500)
        second = spec.build()
        for scenario in (first, second):
            ids = [arrival.photo.photo_id for arrival in scenario.photo_arrivals]
            assert ids == list(range(len(ids)))
        assert result_digest(run_scenario(first, "photonet")) == result_digest(
            run_scenario(second, "photonet")
        )

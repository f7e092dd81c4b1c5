"""Tests for trace analysis, contact graph, churn, and new baselines."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.routing.direct import DirectDeliveryScheme
from repro.routing.epidemic import EpidemicScheme
from repro.traces.analysis import (
    exponential_fit_report,
    fit_pair_exponential,
    intercontact_ccdf,
    rate_heterogeneity,
)
from repro.traces.churn import ChurnModel, apply_churn
from repro.traces.graph import (
    GATEWAY_STRATEGIES,
    contact_graph,
    graph_summary,
    select_gateways_betweenness,
    select_gateways_degree,
    select_gateways_random,
)
from repro.traces.model import ContactRecord, ContactTrace
from repro.traces.synthetic import SyntheticTraceSpec, generate_trace
from repro.workload.photos import PhotoArrival

from helpers import MB, photo_at_aspect


def star_trace():
    """Node 1 is the hub: it meets everyone; leaves meet only node 1."""
    contacts = []
    t = 0.0
    for leaf in (2, 3, 4, 5):
        for k in range(3):
            contacts.append(ContactRecord(t, 1, leaf, 60.0))
            t += 100.0
    return ContactTrace(contacts, name="star")


class TestExponentialFits:
    def test_fit_recovers_known_rate(self):
        rng = np.random.default_rng(0)
        gaps = rng.exponential(100.0, size=2000)
        fit = fit_pair_exponential((1, 2), list(gaps))
        assert fit.rate_per_s == pytest.approx(0.01, rel=0.1)
        assert fit.ks_pvalue > 0.05

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_pair_exponential((1, 2), [])

    def test_fit_rejects_only_zero_gaps(self):
        with pytest.raises(ValueError):
            fit_pair_exponential((1, 2), [0.0, 0.0])

    def test_report_on_synthetic_trace(self):
        spec = SyntheticTraceSpec(
            num_nodes=6, duration_hours=3000.0, num_communities=1,
            intra_rate_per_hour=0.2, scan_interval_s=1.0,
        )
        trace = generate_trace(spec, seed=1)
        fits = exponential_fit_report(trace, min_gaps=30)
        assert len(fits) >= 5
        # The generator IS exponential per pair: most fits should pass KS.
        passing = sum(1 for f in fits if f.ks_pvalue > 0.01)
        assert passing >= 0.8 * len(fits)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            exponential_fit_report(star_trace(), min_gaps=1)

    def test_nonexponential_gaps_fail_ks(self):
        constant_gaps = [100.0] * 300  # deterministic, far from exponential
        fit = fit_pair_exponential((1, 2), constant_gaps)
        assert fit.ks_pvalue < 0.01


class TestCcdfAndHeterogeneity:
    def test_ccdf_monotone_decreasing(self):
        spec = SyntheticTraceSpec(num_nodes=8, duration_hours=500.0,
                                  num_communities=2, intra_rate_per_hour=0.1)
        trace = generate_trace(spec, seed=2)
        curve = intercontact_ccdf(trace, points=20)
        assert len(curve) == 20
        probabilities = [p for _, p in curve]
        assert all(b <= a + 1e-12 for a, b in zip(probabilities, probabilities[1:]))
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    def test_ccdf_empty_trace(self):
        assert intercontact_ccdf(ContactTrace([])) == []

    def test_ccdf_validation(self):
        with pytest.raises(ValueError):
            intercontact_ccdf(ContactTrace([]), points=1)

    def test_heterogeneity_empty(self):
        stats = rate_heterogeneity(ContactTrace([]))
        assert stats["pairs"] == 0.0

    def test_heterogeneity_on_synthetic(self):
        spec = SyntheticTraceSpec(num_nodes=20, duration_hours=500.0,
                                  num_communities=4, rate_sigma=1.2)
        trace = generate_trace(spec, seed=3)
        stats = rate_heterogeneity(trace)
        assert stats["pairs"] > 10
        assert stats["cv"] > 0.3  # heterogeneous by construction


class TestContactGraph:
    def test_edge_weights_count_contacts(self):
        graph = contact_graph(star_trace())
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4
        assert graph.edges[1, 2]["weight"] == 3
        assert graph.edges[1, 2]["total_duration"] == pytest.approx(180.0)

    def test_summary(self):
        summary = graph_summary(star_trace())
        assert summary["nodes"] == 5.0
        assert summary["components"] == 1.0
        assert summary["mean_degree"] == pytest.approx(8.0 / 5.0)

    def test_summary_empty(self):
        assert graph_summary(ContactTrace([]))["nodes"] == 0.0

    def test_random_selection_deterministic(self):
        a = select_gateways_random(star_trace(), 2, seed=9)
        b = select_gateways_random(star_trace(), 2, seed=9)
        assert a == b
        assert len(a) == 2

    def test_degree_selects_hub(self):
        assert select_gateways_degree(star_trace(), 1) == [1]

    def test_betweenness_selects_hub(self):
        assert select_gateways_betweenness(star_trace(), 1) == [1]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            select_gateways_random(star_trace(), 0)
        with pytest.raises(ValueError):
            select_gateways_degree(star_trace(), 99)

    def test_strategy_registry(self):
        assert set(GATEWAY_STRATEGIES) == {"random", "degree", "betweenness"}


class TestChurn:
    def test_availability(self):
        model = ChurnModel(mean_on_s=3.0, mean_off_s=1.0)
        assert model.availability == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(mean_on_s=0.0)

    def test_on_intervals_cover_expected_fraction(self):
        model = ChurnModel(mean_on_s=1000.0, mean_off_s=1000.0)
        rng = np.random.default_rng(0)
        horizon = 1e6
        intervals = model.on_intervals(horizon, rng)
        on_time = sum(end - start for start, end in intervals)
        assert on_time / horizon == pytest.approx(0.5, abs=0.1)

    def test_churn_drops_contacts(self):
        spec = SyntheticTraceSpec(num_nodes=10, duration_hours=200.0,
                                  num_communities=2, intra_rate_per_hour=0.2)
        trace = generate_trace(spec, seed=4)
        churned = apply_churn(trace, ChurnModel(mean_on_s=3600.0, mean_off_s=3600.0), seed=1)
        assert 0 < len(churned) < len(trace)
        # Roughly availability^2 of contacts survive (both ends must be on).
        survival = len(churned) / len(trace)
        assert 0.1 < survival < 0.5

    def test_command_center_exempt(self):
        contacts = [ContactRecord(float(t), 0, 1, 10.0) for t in range(0, 10000, 500)]
        trace = ContactTrace(contacts)
        # Node 1 churns, node 0 never does; some contacts must survive even
        # under heavy churn (those in node 1's on periods).
        churned = apply_churn(trace, ChurnModel(mean_on_s=2000.0, mean_off_s=2000.0), seed=0)
        assert 0 < len(churned) <= len(trace)

    def test_deterministic(self):
        trace = star_trace()
        model = ChurnModel(mean_on_s=100.0, mean_off_s=100.0)
        assert list(apply_churn(trace, model, seed=5)) == list(apply_churn(trace, model, seed=5))


class TestNewBaselines:
    def build(self, scheme, contacts, arrivals, storage=10 * 4 * MB):
        return Simulation(
            trace=ContactTrace([ContactRecord(*c) for c in contacts]),
            pois=PoIList([PoI(location=Point(0.0, 0.0))]),
            photo_arrivals=arrivals,
            scheme=scheme,
            config=SimulationConfig(
                storage_bytes=storage,
                unlimited_contacts=True,
                effective_angle=math.radians(30.0),
                sample_interval_s=3600.0,
            ),
        )

    def test_epidemic_floods_to_peers(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = self.build(
            EpidemicScheme(),
            [(100.0, 1, 2, 60.0), (200.0, 0, 2, 60.0)],
            [PhotoArrival(0.0, 1, photo)],
        )
        result = sim.run()
        assert photo.photo_id in sim.nodes[2].storage  # replica kept
        assert result.delivered_photos == 1

    def test_epidemic_respects_storage(self):
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in range(3)]
        sim = self.build(
            EpidemicScheme(),
            [(100.0, 1, 2, 60.0)],
            [PhotoArrival(float(i), 1, p) for i, p in enumerate(photos)],
            storage=2 * 4 * MB,
        )
        sim.run()
        assert len(sim.nodes[2].storage) <= 2

    def test_direct_never_relays(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = self.build(
            DirectDeliveryScheme(),
            [(100.0, 1, 2, 60.0), (200.0, 0, 2, 60.0)],
            [PhotoArrival(0.0, 1, photo)],
        )
        result = sim.run()
        assert photo.photo_id not in sim.nodes[2].storage
        assert result.delivered_photos == 0  # node 1 never meets the CC

    def test_direct_delivers_from_source(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = self.build(
            DirectDeliveryScheme(),
            [(100.0, 0, 1, 60.0)],
            [PhotoArrival(0.0, 1, photo)],
        )
        result = sim.run()
        assert result.delivered_photos == 1
        assert photo.photo_id not in sim.nodes[1].storage

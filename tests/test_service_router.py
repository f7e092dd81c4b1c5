"""Tests for champion/challenger routing (repro.service.router)."""

from __future__ import annotations

import pytest

from repro.service.router import (
    CHALLENGER,
    CHAMPION,
    RouteDecision,
    RoutingConfig,
    SchemeRouter,
)


class TestRoutingConfigValidation:
    def test_defaults_are_champion_only(self):
        config = RoutingConfig()
        assert config.champion == "our-scheme"
        assert config.challenger is None
        assert config.champion_pct == 100.0

    @pytest.mark.parametrize("challenger_pct", [0.0, 20.0, 40.0, 100.0])
    def test_champion_serves_the_rest(self, challenger_pct):
        config = RoutingConfig(challenger="epidemic", challenger_pct=challenger_pct)
        assert config.champion_pct == 100.0 - challenger_pct
        assert config.describe()["champion_pct"] == 100.0 - challenger_pct

    @pytest.mark.parametrize("pct", [-1.0, 101.0])
    def test_percentages_bounded(self, pct):
        with pytest.raises(ValueError, match=r"must be in \[0, 100\]"):
            RoutingConfig(challenger="epidemic", challenger_pct=pct)

    def test_challenger_share_requires_challenger_spec(self):
        with pytest.raises(ValueError, match="requires a challenger"):
            RoutingConfig(challenger_pct=20.0)

    def test_specs_are_grammar_checked(self):
        with pytest.raises(ValueError):
            RoutingConfig(champion="our-scheme:no_equals_sign")
        with pytest.raises(ValueError):
            RoutingConfig(challenger=":x=1", challenger_pct=10.0)

    def test_unregistered_challenger_is_allowed_at_config_time(self):
        # Unknown names are a runtime fallback, not a config error.
        config = RoutingConfig(
            challenger="not-a-registered-scheme",
            challenger_pct=50.0,
        )
        assert config.challenger == "not-a-registered-scheme"


class TestDeterministicRouting:
    CONFIG = RoutingConfig(
        champion="our-scheme",
        challenger="spray-and-wait",
        challenger_pct=50.0,
    )

    def test_same_user_same_variant_100_calls(self):
        for user_id in range(20):
            first = self.CONFIG.variant_for(user_id)
            assert all(
                self.CONFIG.variant_for(user_id) == first for _ in range(100)
            )

    def test_routing_is_hash_based_not_stateful(self):
        # A fresh config object routes identically: no hidden state.
        clone = RoutingConfig(
            champion="our-scheme",
            challenger="spray-and-wait",
            challenger_pct=50.0,
        )
        for user_id in range(200):
            assert clone.variant_for(user_id) == self.CONFIG.variant_for(user_id)

    def test_split_roughly_matches_percentages(self):
        assigned = [self.CONFIG.variant_for(user_id) for user_id in range(2000)]
        challenger_share = assigned.count(CHALLENGER) / len(assigned)
        assert 0.4 < challenger_share < 0.6

    def test_salt_reshuffles_assignment(self):
        salted = RoutingConfig(
            champion="our-scheme",
            challenger="spray-and-wait",
            challenger_pct=50.0,
            salt="v2",
        )
        differing = sum(
            salted.variant_for(u) != self.CONFIG.variant_for(u) for u in range(500)
        )
        assert differing > 0

    def test_champion_only_when_no_challenger_share(self):
        config = RoutingConfig(champion="our-scheme")
        assert all(config.variant_for(u) == CHAMPION for u in range(100))

    def test_buckets_cover_the_range(self):
        buckets = [self.CONFIG.bucket(u) for u in range(500)]
        assert all(0.0 <= b < 100.0 for b in buckets)
        assert min(buckets) < 10.0 and max(buckets) > 90.0


class _Recorder:
    """A stub backend that records calls and optionally explodes."""

    def __init__(self, name, fail=False):
        self.name = name
        self.fail = fail
        self.calls = 0

    def handle(self):
        self.calls += 1
        if self.fail:
            raise RuntimeError(f"{self.name} exploded")
        return self.name


class TestSchemeRouter:
    def make_router(self, challenger_fail=False, challenger_missing=False):
        backends = {}

        def factory(spec, variant):
            if variant == CHALLENGER and challenger_missing:
                raise KeyError(f"unknown scheme {spec!r}")
            backend = _Recorder(variant, fail=(variant == CHALLENGER and challenger_fail))
            backends[variant] = backend
            return backend

        config = RoutingConfig(
            champion="our-scheme",
            challenger="epidemic",
            challenger_pct=50.0,
        )
        return SchemeRouter(config, backend_factory=factory), backends, config

    def _user_on(self, config, variant):
        return next(u for u in range(1000) if config.variant_for(u) == variant)

    def test_champion_built_eagerly_challenger_lazily(self):
        router, backends, config = self.make_router()
        assert CHAMPION in backends and CHALLENGER not in backends
        router.route(self._user_on(config, CHALLENGER))
        assert CHALLENGER in backends

    def test_route_returns_matching_backend(self):
        router, backends, config = self.make_router()
        user = self._user_on(config, CHAMPION)
        decision = router.route(user)
        assert decision.variant == CHAMPION
        assert decision.backend is backends[CHAMPION]
        assert not decision.fell_back

    def test_broken_champion_fails_fast(self):
        def factory(spec, variant):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            SchemeRouter(RoutingConfig(), backend_factory=factory)

    def test_unbuildable_challenger_falls_back_to_champion(self):
        router, backends, config = self.make_router(challenger_missing=True)
        user = self._user_on(config, CHALLENGER)
        decision = router.route(user)
        assert decision.variant == CHAMPION
        assert decision.requested == CHALLENGER
        assert decision.fell_back
        assert "unavailable" in decision.reason
        assert router.fallbacks == 1
        # The failure is cached; later requests keep falling back.
        assert router.route(user).fell_back
        assert router.fallbacks == 2
        assert router.describe()["challenger_error"] is not None

    def test_challenger_request_failure_falls_back_per_request(self):
        router, backends, config = self.make_router(challenger_fail=True)
        user = self._user_on(config, CHALLENGER)
        decision, result = router.dispatch(user, lambda backend: backend.handle())
        assert decision.variant == CHAMPION
        assert decision.fell_back
        assert "exploded" in decision.reason
        assert result == CHAMPION
        assert backends[CHALLENGER].calls == 1  # it was tried first
        assert router.fallbacks == 1

    def test_challenger_request_error_propagates_without_fallback(self):
        router, backends, config = self.make_router()
        user = self._user_on(config, CHALLENGER)

        def refuse(backend):
            backend.calls += 1
            raise ValueError("bad request")

        with pytest.raises(ValueError, match="bad request"):
            router.dispatch(user, refuse)
        assert backends[CHALLENGER].calls == 1
        assert backends[CHAMPION].calls == 0
        assert router.fallbacks == 0

    def test_champion_request_failure_propagates(self):
        router, backends, config = self.make_router()
        backends[CHAMPION].fail = True
        user = self._user_on(config, CHAMPION)
        with pytest.raises(RuntimeError, match="champion exploded"):
            router.dispatch(user, lambda backend: backend.handle())

    def test_dispatch_routes_to_challenger_when_healthy(self):
        router, backends, config = self.make_router()
        user = self._user_on(config, CHALLENGER)
        decision, result = router.dispatch(user, lambda backend: backend.handle())
        assert decision.variant == CHALLENGER
        assert result == CHALLENGER
        assert router.fallbacks == 0

    def test_backends_lists_instantiated_variants(self):
        router, backends, config = self.make_router()
        assert set(router.backends()) == {CHAMPION}
        router.route(self._user_on(config, CHALLENGER))
        assert set(router.backends()) == {CHAMPION, CHALLENGER}

    def test_factory_gets_spec_and_variant(self):
        calls = []
        router = SchemeRouter(
            RoutingConfig(champion="epidemic", challenger="direct", challenger_pct=50.0),
            backend_factory=lambda spec, variant: calls.append((spec, variant)) or spec,
        )
        router.route(self._user_on(router.config, CHALLENGER))
        assert calls == [("epidemic", CHAMPION), ("direct", CHALLENGER)]

    def test_describe_summarizes_config(self):
        router, _, _ = self.make_router()
        summary = router.describe()
        assert summary["champion"] == "our-scheme"
        assert summary["challenger_pct"] == 50.0
        assert summary["fallbacks"] == 0

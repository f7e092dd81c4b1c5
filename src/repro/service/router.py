"""Champion/challenger routing between scheme variants.

The service runs one authoritative scheme (the *champion*) and can shadow
a fraction of traffic onto a *challenger* for A/B evaluation.  Routing is
deterministic: a user's variant is a pure function of ``(salt, user_id)``
-- the same participant always lands on the same variant, across requests
and across server restarts -- computed from a sha256 bucket in [0, 100).

The router is deliberately conservative about the challenger: it is
constructed lazily on first routed request, a construction failure (e.g.
an unregistered scheme name) pins the affected traffic back to the
champion, and a challenger that *raises* while handling a request falls
back to the champion for that request.  The champion is constructed
eagerly -- a broken champion is a configuration error and fails fast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..routing.registry import parse_scheme_spec

__all__ = ["CHAMPION", "CHALLENGER", "RoutingConfig", "RouteDecision", "SchemeRouter"]

CHAMPION = "champion"
CHALLENGER = "challenger"


@dataclass(frozen=True)
class RoutingConfig:
    """How traffic splits between the champion and the challenger.

    The champion serves whatever share the challenger does not
    (``champion_pct``); a non-zero challenger share requires a challenger
    spec.  Specs use the registry's ``"name:k=v"`` grammar and are
    grammar-checked at construction (not registry-checked -- an unknown
    challenger is a runtime fallback, not a config error, so a server can
    boot with a challenger that a plugin registers later).
    """

    champion: str = "our-scheme"
    challenger: Optional[str] = None
    challenger_pct: float = 0.0
    salt: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.challenger_pct <= 100.0:
            raise ValueError(
                f"challenger_pct must be in [0, 100], got {self.challenger_pct}"
            )
        if self.challenger_pct > 0.0 and self.challenger is None:
            raise ValueError("challenger_pct > 0 requires a challenger spec")
        parse_scheme_spec(self.champion)
        if self.challenger is not None:
            parse_scheme_spec(self.challenger)

    @property
    def champion_pct(self) -> float:
        return 100.0 - self.challenger_pct

    # ------------------------------------------------------------------

    def bucket(self, user_id: int) -> float:
        """The user's deterministic position in [0, 100)."""
        digest = hashlib.sha256(f"{self.salt}:{user_id}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 * 100.0

    def variant_for(self, user_id: int) -> str:
        """Which variant ``(salt, user_id)`` hashes to."""
        if self.challenger is None or self.challenger_pct <= 0.0:
            return CHAMPION
        return CHALLENGER if self.bucket(user_id) < self.challenger_pct else CHAMPION

    def describe(self) -> Dict[str, Any]:
        return {
            "champion": self.champion,
            "challenger": self.challenger,
            "champion_pct": self.champion_pct,
            "challenger_pct": self.challenger_pct,
            "salt": self.salt,
        }


@dataclass(frozen=True)
class RouteDecision:
    """Where one request went and why."""

    variant: str  # the variant that actually handled the request
    requested: str  # the variant the hash asked for
    spec: str
    backend: Any = field(repr=False, compare=False, default=None)
    fell_back: bool = False
    reason: str = ""


class SchemeRouter:
    """Routes per-user requests across champion/challenger backends.

    *backend_factory* builds one backend per variant from
    ``(scheme_spec, variant_name)``; the service server passes a factory
    producing full :class:`~repro.service.session.ServiceSession` worlds.
    Backends are built once and reused -- they are stateful worlds, not
    per-request objects.
    """

    def __init__(
        self,
        config: RoutingConfig,
        backend_factory: Callable[[str, str], Any],
    ) -> None:
        self.config = config
        self._factory = backend_factory
        self.champion = backend_factory(config.champion, CHAMPION)
        self._challenger: Optional[Any] = None
        self._challenger_error: Optional[str] = None
        self.fallbacks = 0

    # ------------------------------------------------------------------

    def _challenger_backend(self) -> Tuple[Optional[Any], Optional[str]]:
        """The challenger backend, built lazily; ``(None, why)`` on failure.

        A failed construction is cached: the challenger stays unavailable
        (and its traffic stays on the champion) for the router's lifetime.
        """
        if self._challenger is not None:
            return self._challenger, None
        if self._challenger_error is not None:
            return None, self._challenger_error
        assert self.config.challenger is not None
        try:
            self._challenger = self._factory(self.config.challenger, CHALLENGER)
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            self._challenger_error = f"{type(exc).__name__}: {exc}"
            return None, self._challenger_error
        return self._challenger, None

    def route(self, user_id: int) -> RouteDecision:
        """The backend that should handle *user_id*'s request."""
        requested = self.config.variant_for(user_id)
        if requested == CHALLENGER:
            backend, error = self._challenger_backend()
            if backend is not None:
                return RouteDecision(
                    variant=CHALLENGER,
                    requested=CHALLENGER,
                    spec=self.config.challenger,  # type: ignore[arg-type]
                    backend=backend,
                )
            self.fallbacks += 1
            return RouteDecision(
                variant=CHAMPION,
                requested=CHALLENGER,
                spec=self.config.champion,
                backend=self.champion,
                fell_back=True,
                reason=f"challenger unavailable ({error})",
            )
        return RouteDecision(
            variant=CHAMPION,
            requested=requested,
            spec=self.config.champion,
            backend=self.champion,
        )

    def dispatch(self, user_id: int, fn: Callable[[Any], Any]) -> Tuple[RouteDecision, Any]:
        """Run ``fn(backend)`` on the routed backend.

        A challenger that raises falls back to the champion for this
        request (the exception is swallowed into the decision's reason);
        champion exceptions propagate -- there is nothing left to fall
        back to.  A :class:`ValueError` is the request's fault, not the
        variant's (a reused photo id, a stale time), so it propagates from
        either variant: the champion never runs a request the challenger
        refused.
        """
        decision = self.route(user_id)
        try:
            return decision, fn(decision.backend)
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - challenger errors demote
            if decision.variant != CHALLENGER:
                raise
            self.fallbacks += 1
            fallback = RouteDecision(
                variant=CHAMPION,
                requested=CHALLENGER,
                spec=self.config.champion,
                backend=self.champion,
                fell_back=True,
                reason=f"challenger raised {type(exc).__name__}: {exc}",
            )
            return fallback, fn(self.champion)

    # ------------------------------------------------------------------

    def backends(self) -> Dict[str, Any]:
        """The instantiated backends by variant name."""
        instances = {CHAMPION: self.champion}
        if self._challenger is not None:
            instances[CHALLENGER] = self._challenger
        return instances

    def describe(self) -> Dict[str, Any]:
        summary = self.config.describe()
        summary["fallbacks"] = self.fallbacks
        summary["challenger_error"] = self._challenger_error
        return summary

"""Tests for the decorator-based scheme registry (repro.routing.registry)."""

from __future__ import annotations

import ast
import inspect
import sys
import typing

import pytest

from repro.routing import (
    UnknownSchemeError,
    coerce_scheme_value,
    create_scheme,
    parse_scheme_spec,
    register_scheme,
    scheme_defaults,
    scheme_names,
    unregister_scheme,
)
from repro.dtn.node import CommandCenter, DTNNode
from repro.routing.base import RoutingScheme
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.routing.spray_and_wait import SprayAndWaitScheme


class TestParsing:
    def test_plain_name(self):
        assert parse_scheme_spec("epidemic") == ("epidemic", {})

    def test_parameters_are_literals(self):
        name, kwargs = parse_scheme_spec(
            "spray-and-wait:initial_copies=8,use_metadata_cache=True,floor=0.5"
        )
        assert name == "spray-and-wait"
        assert kwargs == {"initial_copies": 8, "use_metadata_cache": True, "floor": 0.5}

    def test_non_literal_falls_back_to_string(self):
        assert parse_scheme_spec("x:mode=fast")[1] == {"mode": "fast"}

    def test_whitespace_tolerated(self):
        assert parse_scheme_spec(" x : a = 1 , b = 2 ") == ("x", {"a": 1, "b": 2})

    @pytest.mark.parametrize("bad", [":a=1", "x:a", "x:=1", "x:,"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_scheme_spec(bad)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("8", 8),
            ("-3", -3),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
            ("True", True),
            ("true", True),
            ("FALSE", False),
            ("none", None),
            ("null", None),
            ("'quoted'", "quoted"),
            ("fast", "fast"),
        ],
    )
    def test_typed_coercion(self, raw, expected):
        assert coerce_scheme_value(raw) == expected
        # int stays int, never silently floats
        if isinstance(expected, bool):
            assert isinstance(coerce_scheme_value(raw), bool)
        elif isinstance(expected, int):
            assert isinstance(coerce_scheme_value(raw), int)

    def test_require_registered_validates_name(self):
        assert parse_scheme_spec("epidemic", require_registered=True)[0] == "epidemic"
        with pytest.raises(UnknownSchemeError, match="known:"):
            parse_scheme_spec("no-such-scheme", require_registered=True)


class TestRegistry:
    def test_paper_schemes_registered(self):
        names = scheme_names()
        for expected in (
            "best-possible",
            "our-scheme",
            "no-metadata",
            "modified-spray",
            "spray-and-wait",
            "epidemic",
            "direct",
            "photonet",
        ):
            assert expected in names
        assert list(names) == sorted(names)

    def test_create_plain(self):
        scheme = create_scheme("spray-and-wait")
        assert isinstance(scheme, SprayAndWaitScheme)
        assert scheme.initial_copies == 4  # registered default

    def test_create_parameterized_inline(self):
        assert create_scheme("spray-and-wait:initial_copies=8").initial_copies == 8

    def test_overrides_beat_inline_beat_defaults(self):
        assert (
            create_scheme("spray-and-wait:initial_copies=8", initial_copies=2).initial_copies
            == 2
        )

    def test_same_class_two_registrations(self):
        ours = create_scheme("our-scheme")
        nometa = create_scheme("no-metadata")
        assert isinstance(ours, CoverageSelectionScheme)
        assert isinstance(nometa, CoverageSelectionScheme)
        assert ours.use_metadata_cache and not nometa.use_metadata_cache

    def test_fresh_instance_per_call(self):
        assert create_scheme("epidemic") is not create_scheme("epidemic")

    def test_unknown_scheme_raises_keyerror(self):
        # UnknownSchemeError subclasses KeyError, so legacy handlers work.
        with pytest.raises(KeyError, match="unknown scheme"):
            create_scheme("no-such-scheme")

    def test_unknown_scheme_error_lists_registered_names(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            create_scheme("no-such-scheme")
        message = str(excinfo.value)
        assert "no-such-scheme" in message
        for name in ("our-scheme", "epidemic"):
            assert name in message
        assert excinfo.value.scheme_name == "no-such-scheme"

    def test_scheme_defaults_returns_copy(self):
        defaults = scheme_defaults("spray-and-wait")
        assert defaults == {"initial_copies": 4}
        defaults["initial_copies"] = 99
        assert scheme_defaults("spray-and-wait") == {"initial_copies": 4}

    def test_duplicate_registration_rejected(self):
        @register_scheme("registry-test-dup")
        class Dup(RoutingScheme):  # pragma: no cover - never instantiated
            name = "registry-test-dup"

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("registry-test-dup")(Dup)
        finally:
            unregister_scheme("registry-test-dup")
        assert "registry-test-dup" not in scheme_names()

    @pytest.mark.parametrize("bad", ["", "a:b", "a,b", "a=b"])
    def test_reserved_characters_rejected_in_names(self, bad):
        with pytest.raises(ValueError, match="invalid scheme name"):
            register_scheme(bad)


class TestShimRemoved:
    def test_scheme_factories_gone(self):
        """The deprecated SCHEME_FACTORIES shim must stay deleted."""
        import repro.experiments.runner as runner
        import repro.routing.registry as registry

        assert not hasattr(runner, "SCHEME_FACTORIES")
        assert not hasattr(registry, "DeprecatedFactoryView")


def _type_checking_namespace(module) -> dict:
    """*module*'s globals plus what its ``if TYPE_CHECKING:`` block imports.

    Routing modules import the node types only for type checkers, to
    break the routing <-> dtn import cycle; this is the namespace such a
    checker resolves their annotations in.
    """
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__, "exec"), namespace)
    return namespace


class TestCallbackAnnotations:
    @pytest.mark.parametrize("name", scheme_names())
    def test_callback_annotations_resolve(self, name):
        scheme_class = type(create_scheme(name))
        for callback in ("on_photo_created", "on_contact", "on_command_center_contact"):
            function = getattr(scheme_class, callback)
            namespace = _type_checking_namespace(sys.modules[function.__module__])
            hints = typing.get_type_hints(function, globalns=namespace)
            for parameter, hint in hints.items():
                if parameter.startswith("node"):
                    assert hint is DTNNode, (callback, parameter)
                elif parameter == "center":
                    assert hint is CommandCenter, (callback, parameter)

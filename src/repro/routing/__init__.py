"""Routing schemes: PROPHET metric, the paper's scheme, and all baselines."""

from .base import RoutingScheme, individual_coverage
from .registry import (
    UnknownSchemeError,
    coerce_scheme_value,
    create_scheme,
    parse_scheme_spec,
    register_scheme,
    scheme_defaults,
    scheme_names,
    unregister_scheme,
)
from .best_possible import BestPossibleScheme
from .coverage_scheme import CoverageSelectionScheme
from .direct import DirectDeliveryScheme
from .epidemic import EpidemicScheme
from .modified_spray import ModifiedSprayScheme
from .photonet import PhotoNetScheme, photo_features
from .prophet import ProphetParameters, ProphetTable
from .spray_and_wait import SprayAndWaitScheme

__all__ = [
    "RoutingScheme",
    "individual_coverage",
    "UnknownSchemeError",
    "coerce_scheme_value",
    "create_scheme",
    "parse_scheme_spec",
    "register_scheme",
    "scheme_defaults",
    "scheme_names",
    "unregister_scheme",
    "BestPossibleScheme",
    "CoverageSelectionScheme",
    "DirectDeliveryScheme",
    "EpidemicScheme",
    "ModifiedSprayScheme",
    "PhotoNetScheme",
    "photo_features",
    "ProphetParameters",
    "ProphetTable",
    "SprayAndWaitScheme",
]

"""Routing-scheme interface for the DTN simulator.

A routing scheme is a strategy object the simulator calls back on three
occasions: when a participant takes a photo, when two participants meet,
and when a participant meets the command center.  All schemes share the
same substrate (storage, bandwidth budget, contact trace); they differ
only in what they choose to store and transmit -- which is exactly the
comparison Section V makes.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Optional

from ..core.coverage import CoverageValue
from ..core.metadata import Photo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtn.simulator import Simulation

__all__ = ["RoutingScheme", "individual_coverage"]


class RoutingScheme(abc.ABC):
    """Base class for all routing/selection schemes.

    Subclasses set :attr:`name` and implement the three callbacks.  The
    simulator calls :meth:`bind` once before the run starts; ``self.sim``
    then exposes the coverage index, the node map, the command center, and
    the byte-budget helper.  The base keeps no per-contact state: a scheme
    that reads a node's PROPHET table or contact history updates it in its
    own callbacks (only the paper's scheme does).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.sim: Optional["Simulation"] = None

    def bind(self, sim: "Simulation") -> None:
        """Attach the scheme to a simulation (called once per run)."""
        self.sim = sim

    @abc.abstractmethod
    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        """A participant just took *photo*; decide whether/how to store it."""

    @abc.abstractmethod
    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        """Two participants are in contact for *duration* seconds."""

    @abc.abstractmethod
    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        """A gateway participant can reach the command center."""


def individual_coverage(sim: "Simulation", photo: Photo) -> CoverageValue:
    """The stand-alone coverage of one photo against the PoI list.

    Used by utility-ordered baselines (ModifiedSpray) that rank photos by
    their *individual* coverage, ignoring overlap -- precisely the
    limitation the paper's scheme addresses.  Memoized on the simulation.
    """
    cache = sim.scratch.setdefault("individual_coverage", {})
    cached = cache.get(photo.photo_id)
    if cached is not None:
        return cached
    point = 0.0
    aspect = 0.0
    theta = sim.index.effective_angle
    for poi_id, direction in sim.index.incidences(photo):
        poi = sim.index.pois[poi_id]
        point += poi.weight
        if not math.isnan(direction):
            aspect += poi.weight * min(2.0 * theta, math.tau)
    value = CoverageValue(point, aspect)
    cache[photo.photo_id] = value
    return value

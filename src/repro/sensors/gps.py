"""GPS location acquisition with a realistic error model.

Section IV-A: "Common GPS errors of 5-8.5 m should be tolerable for big
objects like buildings and roads."  The simulator draws a per-fix error
with Rayleigh-distributed magnitude (the standard model for horizontal
GPS error when both axes are Gaussian) scaled to a configurable circular
error probable (CEP).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.geometry import Point

__all__ = ["GpsSimulator"]

#: Rayleigh scale so that the median error equals the requested CEP.
_RAYLEIGH_MEDIAN_FACTOR = math.sqrt(2.0 * math.log(2.0))


class GpsSimulator:
    """Produces noisy GPS fixes around true positions.

    Parameters
    ----------
    cep_m:
        Circular error probable -- the median horizontal error.  The
        paper's 5-8.5 m range corresponds to ``cep_m`` in roughly the same
        band; the default of 6.5 m sits mid-range.
    """

    def __init__(self, cep_m: float = 6.5, seed: int = 0) -> None:
        if cep_m < 0.0:
            raise ValueError(f"cep_m must be non-negative, got {cep_m}")
        self.cep_m = cep_m
        self._sigma = cep_m / _RAYLEIGH_MEDIAN_FACTOR if cep_m > 0.0 else 0.0
        self._rng = np.random.default_rng(seed)

    def fix(self, true_position: Point) -> Point:
        """One noisy fix for *true_position*."""
        if self._sigma == 0.0:
            return true_position
        dx, dy = self._rng.normal(0.0, self._sigma, 2)
        return Point(true_position.x + dx, true_position.y + dy)

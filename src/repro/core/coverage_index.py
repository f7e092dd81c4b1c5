"""Precomputed photo -> PoI coverage incidences.

Photo metadata never changes, so whether a photo covers a PoI -- and from
which viewing direction -- can be computed once and reused for every
coverage evaluation afterwards.  :class:`CoverageIndex` stores, per photo,
the list of ``(poi_id, viewing_direction)`` incidences, plus a spatial grid
over PoIs so indexing a photo costs time proportional to the PoIs near its
sector instead of the whole list.

Every coverage computation in the simulator and the selection algorithm
goes through this index; :func:`repro.core.coverage.collection_coverage`
is the reference implementation it is tested against.
"""

from __future__ import annotations

import math
from math import atan2, hypot
from typing import Dict, Iterable, List, Tuple

from .angular import TWO_PI, ArcSet, AngularInterval, normalize_angle
from .coverage import DEFAULT_EFFECTIVE_ANGLE, CoverageValue
from .metadata import Photo
from .poi import PoIList

__all__ = ["CoverageIndex", "PoICoverageState"]

Incidence = Tuple[int, float]  # (poi_id, viewing_direction)

NAN = float("nan")


class CoverageIndex:
    """Maps photos to the PoIs they cover.

    Parameters
    ----------
    pois:
        The PoI list all coverage is computed against.
    effective_angle:
        ``theta`` -- half-width of the aspect arc contributed per photo.
    """

    #: Edge (m) of the spatial-grid cells that prune PoI candidates when a
    #: photo is indexed.  Cells comparable to a typical coverage range keep
    #: candidate lists short without making the cell scan dominate.
    CELL_SIZE_M = 250.0

    def __init__(
        self,
        pois: PoIList,
        effective_angle: float = DEFAULT_EFFECTIVE_ANGLE,
    ) -> None:
        if effective_angle <= 0.0 or effective_angle > math.pi:
            raise ValueError(f"effective_angle must be in (0, pi], got {effective_angle}")
        self.pois = pois
        self.effective_angle = effective_angle
        self._incidences: Dict[int, List[Incidence]] = {}
        self._arc_cache: Dict[int, tuple] = {}
        self._grid = self._build_grid()
        self._box_candidates: Dict[Tuple[int, int, int, int], tuple] = {}

    # The grid and the box memo are derived from the PoI list: left out of
    # pickles (service snapshots) and rebuilt on load, whatever shape a
    # snapshot carried.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_grid"]
        state.pop("_box_candidates", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._grid = self._build_grid()
        self._box_candidates = {}

    def _build_grid(self) -> Dict[Tuple[int, int], List[Tuple[int, float, float]]]:
        """Grid cell -> the ``(poi_id, x, y)`` of the PoIs inside it."""
        grid: Dict[Tuple[int, int], List[Tuple[int, float, float]]] = {}
        size = self.CELL_SIZE_M
        for poi in self.pois:
            x, y = poi.location.x, poi.location.y
            cell = (math.floor(x / size), math.floor(y / size))
            grid.setdefault(cell, []).append((poi.poi_id, x, y))
        return grid

    def _candidates_in(self, box: Tuple[int, int, int, int]) -> tuple:
        """The grid entries of the cells ``lo_cx..hi_cx`` by ``lo_cy..hi_cy``
        that *box* spans, column by column."""
        lo_cx, hi_cx, lo_cy, hi_cy = box
        grid = self._grid
        return tuple(
            entry
            for cx in range(lo_cx, hi_cx + 1)
            for cy in range(lo_cy, hi_cy + 1)
            for entry in grid.get((cx, cy), ())
        )

    def incidences(self, photo: Photo) -> List[Incidence]:
        """``(poi_id, viewing_direction)`` pairs for PoIs this photo covers.

        Candidates are the PoIs in grid cells meeting the photo's bounding
        box, cell by cell; the list for each box of cells is walked once
        and kept.  Computed lazily, memoized by ``photo_id``.

        Each candidate gets the float operations of ``Sector.contains`` and
        ``Sector.viewing_direction_of`` written out here, in their order, so
        the list is bit for bit what the :class:`~repro.core.geometry.Sector`
        would give.
        """
        cached = self._incidences.get(photo.photo_id)
        if cached is not None:
            return cached
        metadata = photo.metadata
        x, y = metadata.location.x, metadata.location.y
        radius = metadata.coverage_range
        size = self.CELL_SIZE_M
        box = (
            math.floor((x - radius) / size),
            math.floor((x + radius) / size),
            math.floor((y - radius) / size),
            math.floor((y + radius) / size),
        )
        candidates = self._box_candidates.get(box)
        if candidates is None:
            candidates = self._box_candidates[box] = self._candidates_in(box)
        direction = None
        found: List[Incidence] = []
        for poi_id, px, py in candidates:
            # Exact prefilter: the sector test rejects hypot(dx, dy) > r,
            # and a faithfully rounded hypot is never below
            # max(|dx|, |dy|), so every PoI skipped here fails it.
            if abs(x - px) > radius or abs(y - py) > radius:
                continue
            if direction is None:
                # The sector's bisector and half-width, normalized and
                # derived as Sector does, once per photo.
                direction = normalize_angle(metadata.orientation)
                half_width = metadata.field_of_view / 2.0 + 1e-12
            separation = hypot(x - px, y - py)
            if separation > radius:
                continue
            if separation == 0.0:
                # Degenerate camera-on-PoI photo: point coverage only,
                # no defined viewing direction; contribute a NaN marker.
                found.append((poi_id, NAN))
                continue
            # angle_difference(bearing apex -> PoI, direction)
            diff = abs(normalize_angle(atan2(-(py - y), px - x)) - direction)
            if min(diff, TWO_PI - diff) <= half_width:
                # The viewing direction: the bearing PoI -> apex.
                found.append((poi_id, normalize_angle(atan2(-(y - py), x - px))))
        self._incidences[photo.photo_id] = found
        return found

    def incidence_arcs(self, photo: Photo):
        """Precomputed aspect-arc segments per covered PoI.

        Returns ``(point_poi_ids, arc_list)`` where *point_poi_ids* is a
        tuple of every PoI id the photo point-covers, and *arc_list* is a
        tuple of ``(poi_id, segments)`` pairs with *segments* the photo's
        aspect arc on that PoI as non-wrapping ``(lo, hi)`` pieces (the
        degenerate camera-on-PoI case contributes point coverage only).
        Memoized by ``photo_id``; this is the hot-loop representation the
        selection algorithm consumes.
        """
        cached = self._arc_cache.get(photo.photo_id)
        if cached is not None:
            return cached
        theta = self.effective_angle
        point_ids = []
        arcs = []
        for poi_id, direction in self.incidences(photo):
            point_ids.append(poi_id)
            if math.isnan(direction):
                continue
            segments = AngularInterval.around(direction, theta).as_segments()
            arcs.append((poi_id, tuple(segments)))
        result = (tuple(point_ids), tuple(arcs))
        self._arc_cache[photo.photo_id] = result
        return result

    def covers_anything(self, photo: Photo) -> bool:
        """Whether the photo covers at least one PoI (relevance filter)."""
        return bool(self.incidences(photo))

    def collection_coverage(self, photos: Iterable[Photo]) -> CoverageValue:
        """``C_ph(X, F)`` computed through the index."""
        state = PoICoverageState(self)
        for photo in photos:
            state.add_photo(photo)
        return state.total()

    def normalized(self, value: CoverageValue) -> Tuple[float, float]:
        """Normalize a coverage value by the PoI list as the paper's plots do.

        Returns ``(point_fraction, mean_aspect_degrees)``: point coverage as
        the fraction of total PoI weight covered, and aspect coverage as the
        average covered degrees per PoI.
        """
        total_weight = self.pois.total_weight
        if total_weight == 0.0:
            return (0.0, 0.0)
        return (
            value.point / total_weight,
            math.degrees(value.aspect / total_weight),
        )


class PoICoverageState:
    """Incremental coverage accumulator over a growing photo set.

    Greedy selection adds photos one at a time and needs the marginal gain
    of a candidate photo in O(PoIs the photo covers).  This class maintains
    per-PoI arc sets and point flags and supports ``gain_of`` /
    ``add_photo``.
    """

    __slots__ = ("index", "_arcs", "_point_covered", "_total")

    def __init__(self, index: CoverageIndex) -> None:
        self.index = index
        self._arcs: Dict[int, ArcSet] = {}
        self._point_covered: Dict[int, bool] = {}
        self._total = CoverageValue.ZERO

    def copy(self) -> "PoICoverageState":
        duplicate = PoICoverageState(self.index)
        duplicate._arcs = {pid: arcs.copy() for pid, arcs in self._arcs.items()}
        duplicate._point_covered = dict(self._point_covered)
        duplicate._total = self._total
        return duplicate

    def gain_of(self, photo: Photo) -> CoverageValue:
        """Marginal ``C_ph`` gain if *photo* were added, without mutating."""
        point_gain = 0.0
        aspect_gain = 0.0
        theta = self.index.effective_angle
        for poi_id, direction in self.index.incidences(photo):
            poi = self.index.pois[poi_id]
            if not self._point_covered.get(poi_id, False):
                point_gain += poi.weight
            if math.isnan(direction):
                continue
            arc = AngularInterval.around(direction, theta)
            arcs = self._arcs.get(poi_id)
            if arcs is None:
                aspect_gain += poi.weight * self._restricted_width(poi, arc)
            else:
                aspect_gain += poi.weight * self._restricted_gain(poi, arcs, arc)
        return CoverageValue(point_gain, aspect_gain)

    def _restricted_width(self, poi, arc: AngularInterval) -> float:
        if poi.important_aspects is None:
            return arc.width
        width = 0.0
        for lo, hi in arc.as_segments():
            for seg_lo, seg_hi in poi.important_aspects.segments():
                overlap = min(hi, seg_hi) - max(lo, seg_lo)
                if overlap > 0.0:
                    width += overlap
        return width

    def _restricted_gain(self, poi, arcs: ArcSet, arc: AngularInterval) -> float:
        if poi.important_aspects is None:
            return arcs.gain_of(arc)
        # Measure the part of `arc` inside important_aspects not yet in arcs.
        before = self._restricted_measure(poi, arcs)
        probe = arcs.copy()
        probe.add(arc)
        return self._restricted_measure(poi, probe) - before

    @staticmethod
    def _restricted_measure(poi, arcs: ArcSet) -> float:
        measure = 0.0
        for lo, hi in poi.important_aspects.segments():
            for seg_lo, seg_hi in arcs.segments():
                overlap = min(hi, seg_hi) - max(lo, seg_lo)
                if overlap > 0.0:
                    measure += overlap
        return measure

    def add_photo(self, photo: Photo) -> CoverageValue:
        """Add *photo* and return the realized marginal gain."""
        gain = self.gain_of(photo)
        theta = self.index.effective_angle
        for poi_id, direction in self.index.incidences(photo):
            self._point_covered[poi_id] = True
            if math.isnan(direction):
                continue
            arcs = self._arcs.get(poi_id)
            if arcs is None:
                arcs = ArcSet()
                self._arcs[poi_id] = arcs
            arcs.add(AngularInterval.around(direction, theta))
        self._total = self._total + gain
        return gain

    def total(self) -> CoverageValue:
        return self._total

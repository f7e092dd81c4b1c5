"""Coverage analysis metrics beyond the headline pair.

The paper's evaluation reports normalized point coverage and aspect
coverage; its related work (SmartPhoto / full-view coverage) suggests
richer per-PoI statistics that are useful when judging a delivered photo
set.  This module computes them from a photo collection:

* per-PoI breakdown: covered?, covered degrees, number of covering photos;
* *full-view* coverage: the fraction of PoIs whose aspects are completely
  covered (the ``2*pi`` criterion of Wang et al.);
* distinct views: per PoI, how many sufficiently distinct directions
  it is seen from;
* redundancy: overlap between the aspect arcs of covering photos -- the
  quantity behind the paper's Section V-E "only 12 degrees of overlap"
  argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from .angular import TWO_PI, ArcSet
from .coverage_index import CoverageIndex
from .metadata import Photo

__all__ = ["PoICoverageReport", "CollectionReport", "analyze_collection"]


@dataclass(frozen=True)
class PoICoverageReport:
    """Coverage of one PoI by a photo collection."""

    poi_id: int
    covering_photos: int
    covered: bool
    aspect_deg: float
    full_view: bool
    distinct_views: int
    overlap_deg: float


@dataclass(frozen=True)
class CollectionReport:
    """Aggregate coverage statistics of a photo collection."""

    num_photos: int
    num_pois: int
    point_coverage: float          # fraction of PoIs covered
    mean_aspect_deg: float         # mean covered degrees per PoI
    full_view_fraction: float      # fraction of PoIs with 360-degree views
    mean_photos_per_covered_poi: float
    mean_overlap_deg: float        # mean arc overlap per covered PoI
    per_poi: Sequence[PoICoverageReport]


def _distinct_views(directions: List[float], min_separation: float) -> int:
    """Greedy count of views at least *min_separation* apart on the circle."""
    if not directions:
        return 0
    ordered = sorted(directions)
    count = 1
    anchor = ordered[0]
    for direction in ordered[1:]:
        if direction - anchor >= min_separation:
            count += 1
            anchor = direction
    # Wraparound: the last anchor must also clear the first direction.
    if count > 1 and (ordered[0] + TWO_PI) - anchor < min_separation:
        count -= 1
    return count


def analyze_collection(
    index: CoverageIndex,
    photos: Iterable[Photo],
    full_view_tolerance: float = math.radians(1.0),
    view_separation: float = None,
) -> CollectionReport:
    """Per-PoI and aggregate coverage statistics for *photos*.

    *view_separation* is the angular distance at which two viewing
    directions count as distinct (defaults to the effective angle, i.e.
    views whose arcs only half-overlap); *full_view_tolerance* absorbs
    floating-point slack in the 360-degree test.
    """
    photo_list = list(photos)
    if view_separation is None:
        view_separation = index.effective_angle

    directions: Dict[int, List[float]] = {}
    arcs: Dict[int, ArcSet] = {}
    arc_width_sum: Dict[int, float] = {}
    covered_pois: Dict[int, int] = {}

    for photo in photo_list:
        point_ids, arc_list = index.incidence_arcs(photo)
        for poi_id in point_ids:
            covered_pois[poi_id] = covered_pois.get(poi_id, 0) + 1
        for poi_id, segments in arc_list:
            direction_mid = _segments_center(segments)
            directions.setdefault(poi_id, []).append(direction_mid)
            arcset = arcs.get(poi_id)
            if arcset is None:
                arcset = ArcSet()
                arcs[poi_id] = arcset
            for lo, hi in segments:
                arcset.add_segment(lo, hi)
            arc_width_sum[poi_id] = arc_width_sum.get(poi_id, 0.0) + sum(
                hi - lo for lo, hi in segments
            )

    reports: List[PoICoverageReport] = []
    for poi in index.pois:
        poi_id = poi.poi_id
        covering = covered_pois.get(poi_id, 0)
        arcset = arcs.get(poi_id)
        measure = arcset.measure() if arcset is not None else 0.0
        total_width = arc_width_sum.get(poi_id, 0.0)
        overlap = max(0.0, total_width - measure)
        reports.append(
            PoICoverageReport(
                poi_id=poi_id,
                covering_photos=covering,
                covered=covering > 0,
                aspect_deg=math.degrees(measure),
                full_view=measure >= TWO_PI - full_view_tolerance,
                distinct_views=_distinct_views(directions.get(poi_id, []), view_separation),
                overlap_deg=math.degrees(overlap),
            )
        )

    covered_reports = [r for r in reports if r.covered]
    num_pois = len(index.pois)
    return CollectionReport(
        num_photos=len(photo_list),
        num_pois=num_pois,
        point_coverage=(len(covered_reports) / num_pois) if num_pois else 0.0,
        mean_aspect_deg=(
            sum(r.aspect_deg for r in reports) / num_pois if num_pois else 0.0
        ),
        full_view_fraction=(
            sum(1 for r in reports if r.full_view) / num_pois if num_pois else 0.0
        ),
        mean_photos_per_covered_poi=(
            sum(r.covering_photos for r in covered_reports) / len(covered_reports)
            if covered_reports
            else 0.0
        ),
        mean_overlap_deg=(
            sum(r.overlap_deg for r in covered_reports) / len(covered_reports)
            if covered_reports
            else 0.0
        ),
        per_poi=tuple(reports),
    )


def _segments_center(segments: Sequence) -> float:
    """Center angle of an arc given as non-wrapping segments."""
    total = sum(hi - lo for lo, hi in segments)
    if len(segments) == 1:
        lo, hi = segments[0]
        return (lo + hi) / 2.0
    # Wrapping arc split at 2*pi: center lies at (start + width/2) mod 2*pi.
    start = segments[0][0]
    return math.fmod(start + total / 2.0, TWO_PI)

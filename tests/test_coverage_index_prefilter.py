"""``CoverageIndex.incidences`` against the scan it replaced.

:func:`reference_incidences` is the earlier scan: it builds the photo's
:class:`~repro.core.geometry.Sector` first and asks ``Sector.contains`` of
every PoI in the grid cells meeting the photo's bounding box.  The index
now skips a candidate when ``|dx| > r`` or ``|dy| > r``, and runs the
float operations of ``Sector.contains`` and ``Sector.viewing_direction_of``
inline for the rest.  The skip is exact because ``Sector.contains``
rejects ``hypot(dx, dy) > r`` and a faithfully rounded ``hypot`` is never
below ``max(|dx|, |dy|)``; the inline test repeats the sector's operations
in their order.  The lists must be equal, order, every float bit and the
NaN markers included.

``TestInlineSectorKernel`` puts PoIs exactly on the boundaries the inline
test draws: the field-of-view edge with its ``1e-12`` slack, orientations
at multiples of ``2*pi``, and the rim ``hypot(dx, dy) == r``.

Everything here except the Table-I case runs with numpy absent.
"""

from __future__ import annotations

import math
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angular import TWO_PI, angle_difference
from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoIList

from helpers import make_photo, needs_numpy, next_photo_id

CELL = 250.0  # CoverageIndex's default grid cell edge


def reference_incidences(pois, photo, cell_size=CELL):
    """The pre-prefilter scan, candidate order and all."""

    def cell_of(x, y):
        return (int(math.floor(x / cell_size)), int(math.floor(y / cell_size)))

    grid = defaultdict(list)
    for poi in pois:
        grid[cell_of(poi.location.x, poi.location.y)].append(poi.poi_id)
    loc = photo.metadata.location
    radius = photo.metadata.coverage_range
    lo_cx, lo_cy = cell_of(loc.x - radius, loc.y - radius)
    hi_cx, hi_cy = cell_of(loc.x + radius, loc.y + radius)
    sector = photo.metadata.sector()
    found = []
    for cx in range(lo_cx, hi_cx + 1):
        for cy in range(lo_cy, hi_cy + 1):
            for poi_id in grid.get((cx, cy), ()):
                location = pois[poi_id].location
                if sector.contains(location):
                    if location.distance_to(sector.apex) == 0.0:
                        found.append((poi_id, float("nan")))
                    else:
                        found.append((poi_id, sector.viewing_direction_of(location)))
    return found


def exact(incidences):
    """Comparable form: floats by their bits, NaN markers by name."""
    return [(pid, "nan" if math.isnan(d) else d.hex()) for pid, d in incidences]


def adversarial_points(photo):
    """PoIs on every boundary the prefilter or the sector test draws."""
    meta = photo.metadata
    x, y, r = meta.location.x, meta.location.y, meta.coverage_range
    points = [
        (x, y),  # the apex: the NaN marker
        (x + r, y), (x - r, y), (x, y + r), (x, y - r),  # |dx| == r or |dy| == r
        (x + r, y + r), (x - r, y - r),  # both at once: outside the disc
    ]
    for edge in (meta.orientation - meta.field_of_view / 2.0,
                 meta.orientation + meta.field_of_view / 2.0):
        for distance in (r, r / 2.0, r * (1.0 - 1e-12)):
            # Bearings run clockwise from east, so planar y goes down.
            points.append((x + distance * math.cos(edge), y - distance * math.sin(edge)))
    # Grid-cell borders around the photo.
    for cx in range(math.floor((x - r) / CELL), math.floor((x + r) / CELL) + 2):
        for cy in range(math.floor((y - r) / CELL), math.floor((y + r) / CELL) + 2):
            points.append((cx * CELL, cy * CELL))
            points.append((cx * CELL, y))
            points.append((x, cy * CELL))
    # One representable step either way of each point.
    nudged = []
    for px, py in points:
        for nx in (math.nextafter(px, -math.inf), px, math.nextafter(px, math.inf)):
            for ny in (math.nextafter(py, -math.inf), py, math.nextafter(py, math.inf)):
                nudged.append((nx, ny))
    return nudged


coordinate = st.one_of(
    st.integers(-900, 900).map(float),
    st.floats(-900.0, 900.0, allow_nan=False, allow_infinity=False),
)
radius = st.one_of(st.integers(1, 300).map(float), st.floats(0.5, 300.0))


@st.composite
def photo_and_pois(draw):
    photo = make_photo(
        draw(coordinate),
        draw(coordinate),
        draw(st.floats(-720.0, 720.0)),
        fov_deg=draw(st.floats(1.0, 179.0)),
        coverage_range=draw(radius),
    )
    points = adversarial_points(photo)
    x, y = photo.metadata.location.x, photo.metadata.location.y
    spread = 2.0 * photo.metadata.coverage_range
    extra = draw(st.lists(
        st.tuples(st.floats(x - spread, x + spread), st.floats(y - spread, y + spread)),
        max_size=20,
    ))
    chosen = draw(st.lists(st.sampled_from(points), max_size=60)) if draw(st.booleans()) else points
    pois = PoIList.from_points([Point(px, py) for px, py in chosen + extra])
    return photo, pois


class TestPrefilterMatchesTheScan:
    @given(case=photo_and_pois())
    @settings(max_examples=300, deadline=None)
    def test_adversarial_pois(self, case):
        photo, pois = case
        index = CoverageIndex(pois)
        assert exact(index.incidences(photo)) == exact(reference_incidences(pois, photo))

    @given(
        points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
        photos=st.lists(
            st.tuples(coordinate, coordinate, st.floats(0.0, 360.0), st.floats(1.0, 179.0), radius),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_fields(self, points, photos):
        pois = PoIList.from_points([Point(px, py) for px, py in points])
        index = CoverageIndex(pois)
        for x, y, orientation, fov, r in photos:
            photo = make_photo(x, y, orientation, fov_deg=fov, coverage_range=r)
            assert exact(index.incidences(photo)) == exact(reference_incidences(pois, photo))

    def test_pois_exactly_one_radius_away_are_kept(self):
        """|dx| == r passes the prefilter; the sector test decides."""
        pois = PoIList.from_points([Point(100.0, 0.0), Point(0.0, -100.0), Point(-100.0, 0.0)])
        photo = make_photo(0.0, 0.0, 0.0, fov_deg=60.0, coverage_range=100.0)
        assert [pid for pid, _ in CoverageIndex(pois).incidences(photo)] == [0]
        # Bearing 90 deg (clockwise from east) points toward planar -y.
        facing_down = make_photo(0.0, 0.0, 90.0, fov_deg=60.0, coverage_range=100.0)
        assert [pid for pid, _ in CoverageIndex(pois).incidences(facing_down)] == [1]

    @needs_numpy  # ScenarioSpec draws photo metadata through numpy
    def test_table1_photos(self):
        from repro.experiments.config import ScenarioSpec

        scenario = ScenarioSpec(scale=0.05, seed=0).build()
        index = CoverageIndex(scenario.pois, effective_angle=scenario.config.effective_angle)
        covering = 0
        for arrival in scenario.photo_arrivals:
            found = exact(index.incidences(arrival.photo))
            assert found == exact(reference_incidences(scenario.pois, arrival.photo))
            covering += bool(found)
        assert covering > 0


def radian_photo(x, y, orientation, fov, coverage_range):
    """A photo with its angles given in radians, unrounded."""
    return Photo(
        metadata=PhotoMetadata(
            location=Point(x, y),
            coverage_range=coverage_range,
            field_of_view=fov,
            orientation=orientation,
        ),
        photo_id=next_photo_id(),
    )


def agree(pois, photo):
    """The index's incidences, after checking them against the scan."""
    found = CoverageIndex(pois).incidences(photo)
    assert exact(found) == exact(reference_incidences(pois, photo))
    return found


class TestInlineSectorKernel:
    APEX = Point(10.0, 20.0)

    @pytest.mark.parametrize(
        "poi_bearing, orientation",
        [(2.0, 1.5), (2.0, 2.5), (0.1, 6.0), (6.1, 0.2), (math.pi, math.pi / 2.0)],
    )
    def test_field_of_view_edge_and_one_ulp_either_side(self, poi_bearing, orientation):
        """The PoI's angular distance from the orientation is exactly
        ``fov / 2 + 1e-12``: covered, as ``Sector.contains`` has it.  A field
        of view one ulp narrower or wider moves that edge one ulp inside or
        outside the PoI."""
        x, y = self.APEX.x, self.APEX.y
        # Bearings run clockwise from east, so planar y goes down.
        poi = Point(x + 80.0 * math.cos(poi_bearing), y - 80.0 * math.sin(poi_bearing))
        distance = angle_difference(self.APEX.bearing_to(poi), orientation)
        fov = 2.0 * (distance - 1e-12)
        for _ in range(64):
            edge = fov / 2.0 + 1e-12
            if edge == distance:
                break
            fov = math.nextafter(fov, math.inf if edge < distance else -math.inf)
        assert fov / 2.0 + 1e-12 == distance
        pois = PoIList.from_points([poi])
        covered = [
            bool(agree(pois, radian_photo(x, y, orientation, width, 100.0)))
            for width in (math.nextafter(fov, 0.0), fov, math.nextafter(fov, math.inf))
        ]
        assert covered == [False, True, True]

    @pytest.mark.parametrize("turns", [-3, -2, -1, 0, 1, 2, 3, 5])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_orientations_at_multiples_of_two_pi(self, turns, nudge):
        """``Sector`` normalizes the orientation before comparing; a PoI
        ring all round the camera tells every reduction apart."""
        orientation = turns * TWO_PI
        if nudge:
            orientation = math.nextafter(orientation, nudge * math.inf)
        x, y = self.APEX.x, self.APEX.y
        ring = [
            Point(x + 50.0 * math.cos(angle), y - 50.0 * math.sin(angle))
            for angle in (i * TWO_PI / 72.0 for i in range(72))
        ]
        pois = PoIList.from_points(ring)
        found = agree(pois, radian_photo(x, y, orientation, math.radians(60.0), 100.0))
        assert 0 < len(found) < len(ring)

    def test_pois_on_the_rim_inside_the_field_of_view(self):
        """``hypot(dx, dy) == r`` exactly (a 3-4-5 triangle) is covered, and
        a range one ulp shorter drops it."""
        x, y = self.APEX.x, self.APEX.y
        rim = [Point(x + 3.0, y - 4.0), Point(x - 4.0, y + 3.0), Point(x + 5.0, y)]
        pois = PoIList.from_points(rim)
        for poi_id, poi in enumerate(rim):
            bearing = self.APEX.bearing_to(poi)
            photo = radian_photo(x, y, bearing, math.radians(40.0), 5.0)
            found = agree(pois, photo)
            assert [pid for pid, _ in found] == [poi_id]
            assert found[0][1] == poi.bearing_to(self.APEX)
            shorter = radian_photo(x, y, bearing, math.radians(40.0), math.nextafter(5.0, 0.0))
            assert agree(pois, shorter) == []


class TestGridPickling:
    def test_grid_is_rebuilt_not_pickled(self):
        pois = PoIList.from_points([Point(10.0, 10.0), Point(-300.0, 260.0)])
        index = CoverageIndex(pois)
        index.incidences(make_photo(0.0, 0.0, 45.0, coverage_range=100.0))
        state = index.__getstate__()
        assert "_grid" not in state and "_box_candidates" not in state
        restored = pickle.loads(pickle.dumps(index))
        photo = make_photo(-350.0, 260.0, 0.0, coverage_range=100.0)
        assert exact(restored.incidences(photo)) == exact(reference_incidences(pois, photo))
        assert restored._grid == index._grid

    def test_state_with_an_id_grid_restores(self):
        """A snapshot whose grid held bare PoI ids still indexes correctly."""
        pois = PoIList.from_points([Point(10.0, 10.0), Point(-300.0, 260.0)])
        state = dict(CoverageIndex(pois).__getstate__(), _grid={(0, 0): [0], (-2, 1): [1]})
        restored = CoverageIndex.__new__(CoverageIndex)
        restored.__setstate__(state)
        photo = make_photo(-350.0, 260.0, 0.0, coverage_range=100.0)
        assert [pid for pid, _ in restored.incidences(photo)] == [1]

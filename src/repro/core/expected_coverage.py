"""Expected coverage (Definition 2) and its exact polynomial evaluation.

Definition 2 of the paper defines the expected coverage of a node set
``M = {n_0, ..., n_{m-1}}`` as a sum over all ``2^m`` binary delivery
outcomes ``B``, each weighted by its probability ``P_B``.  Naive
enumeration is exponential; this module evaluates the same quantity
**exactly** in polynomial time by exchanging the order of summation:

* Expected *point* coverage of a PoI is closed-form: the PoI counts unless
  every node owning a covering photo fails to deliver, so the expected
  contribution is ``w * (1 - prod_i (1 - p_i))`` over the *relevant* nodes.

* Expected *aspect* coverage of a PoI is the integral over aspects ``v`` of
  the probability that ``v`` is covered.  Node deliveries are independent,
  so ``P[v covered] = 1 - prod_{i: v in arcs_i} (1 - p_i)`` -- a piecewise
  constant function of ``v`` whose pieces are delimited by arc endpoints.
  Sorting the endpoints gives an exact sweep in ``O(E log E)`` where ``E``
  is the number of arc endpoints.

:func:`expected_coverage_enumerated` implements Definition 2 literally (for
small node sets) and the test suite verifies both agree to floating-point
tolerance, which is the correctness argument for the sweep.

The module also provides :class:`SelectionEvaluator`, the incremental form
used by the greedy selection algorithm: with every node's collection except
one frozen, the marginal expected gain of adding a photo to the free node
reduces to ``p_free * integral of the background survival function`` over
the newly covered aspect range -- evaluated lazily per PoI the candidate
photo covers.  Both build that per-PoI survival function with the one
sweep in :class:`_PoIBackground`.

Everything here runs in pure python.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .angular import TWO_PI, ArcSet
from .coverage import CoverageValue
from .coverage_index import CoverageIndex
from .metadata import Photo

__all__ = [
    "NodeProfile",
    "build_node_profile",
    "expected_coverage",
    "expected_coverage_enumerated",
    "SelectionEvaluator",
]

@dataclass
class NodeProfile:
    """One node's contribution to expected coverage.

    Attributes
    ----------
    node_id:
        Identifier used for bookkeeping and deterministic ordering.
    delivery_probability:
        ``p_i`` -- probability this node's photos reach the command center.
        The command center itself has probability 1.
    arcs_by_poi:
        For each PoI the node's collection covers, the union of aspect arcs
        its photos contribute there.
    covered_pois:
        PoI ids point-covered by the collection (a superset of
        ``arcs_by_poi`` keys only in the degenerate camera-on-PoI case).
    """

    node_id: int
    delivery_probability: float
    arcs_by_poi: Dict[int, ArcSet] = field(default_factory=dict)
    covered_pois: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if not 0.0 <= self.delivery_probability <= 1.0:
            raise ValueError(
                f"delivery probability must be in [0, 1], got {self.delivery_probability}"
            )

    @property
    def is_certain(self) -> bool:
        return self.delivery_probability >= 1.0


def build_node_profile(
    index: CoverageIndex,
    node_id: int,
    photos: Iterable[Photo],
    delivery_probability: float,
) -> NodeProfile:
    """Aggregate a photo collection into its per-PoI arc contributions."""
    profile = NodeProfile(node_id=node_id, delivery_probability=delivery_probability)
    # Collect every photo's segments per PoI first and union each batch in
    # one merge_segments sweep -- exact, and O(k log k) per PoI instead of
    # the O(k^2) of k incremental ArcSet merges.
    segments_by_poi: Dict[int, List[Tuple[float, float]]] = {}
    for photo in photos:
        point_ids, arc_list = index.incidence_arcs(photo)
        profile.covered_pois.update(point_ids)
        for poi_id, segments in arc_list:
            segments_by_poi.setdefault(poi_id, []).extend(segments)
    for poi_id, segments in segments_by_poi.items():
        profile.arcs_by_poi[poi_id] = ArcSet.from_segments(segments)
    return profile


def _restriction_segments(poi) -> Optional[List[Tuple[float, float]]]:
    """The PoI's important-aspect segments, or ``None`` for the full circle."""
    if poi.important_aspects is None:
        return None
    return list(poi.important_aspects.segments())


def _clip_length(lo: float, hi: float, restriction: Optional[List[Tuple[float, float]]]) -> float:
    """Length of ``[lo, hi]`` intersected with *restriction* (``None`` = all)."""
    if restriction is None:
        return hi - lo
    length = 0.0
    for r_lo, r_hi in restriction:
        overlap = min(hi, r_hi) - max(lo, r_lo)
        if overlap > 0.0:
            length += overlap
    return length


def _fold_profiles(
    profiles: Iterable[NodeProfile],
) -> Tuple[Dict[int, List[Tuple[float, ArcSet]]], Dict[int, float]]:
    """Fold *profiles* into per-PoI ``(p, arcs)`` contributions and point
    survival ``prod (1 - p_i)``; a node with ``p <= 0`` contributes nothing."""
    contributions: Dict[int, List[Tuple[float, ArcSet]]] = {}
    point_survival: Dict[int, float] = {}
    for profile in profiles:
        p = profile.delivery_probability
        if p <= 0.0:
            continue
        for poi_id in profile.covered_pois:
            point_survival[poi_id] = point_survival.get(poi_id, 1.0) * (1.0 - p)
        for poi_id, arcs in profile.arcs_by_poi.items():
            contributions.setdefault(poi_id, []).append((p, arcs))
    return contributions, point_survival


def expected_coverage(
    index: CoverageIndex,
    profiles: Sequence[NodeProfile],
) -> CoverageValue:
    """Exact ``C_ex(M)`` over the nodes described by *profiles*.

    Polynomial-time equivalent of Definition 2; see the module docstring
    for the derivation.  The aspect term sweeps each PoI's survival
    function, the one :class:`SelectionEvaluator` integrates.
    """
    contributions, point_survival = _fold_profiles(profiles)

    expected_point = 0.0
    for poi_id, survival in point_survival.items():
        expected_point += index.pois[poi_id].weight * (1.0 - survival)

    expected_aspect = 0.0
    for poi_id, poi_contributions in contributions.items():
        background = _PoIBackground(index.pois[poi_id], poi_contributions, 1.0)
        expected_aspect += background.expected_aspect()

    return CoverageValue(expected_point, expected_aspect)


def expected_coverage_enumerated(
    index: CoverageIndex,
    profiles: Sequence[NodeProfile],
    max_nodes: int = 16,
) -> CoverageValue:
    """Definition 2 by literal outcome enumeration (reference implementation).

    Enumerates every delivery outcome of the *uncertain* nodes (certain
    nodes always deliver) and sums ``P_B * C_B``.  Exponential in the
    number of uncertain nodes; refuses above *max_nodes* to avoid runaway
    computation.  Used in tests to validate :func:`expected_coverage`.
    """
    certain = [p for p in profiles if p.is_certain]
    uncertain = [p for p in profiles if not p.is_certain and p.delivery_probability > 0.0]
    if len(uncertain) > max_nodes:
        raise ValueError(
            f"enumeration over {len(uncertain)} uncertain nodes exceeds max_nodes={max_nodes}"
        )

    total = CoverageValue.ZERO
    for outcome in itertools.product((0, 1), repeat=len(uncertain)):
        probability = 1.0
        delivered = list(certain)
        for bit, profile in zip(outcome, uncertain):
            if bit:
                probability *= profile.delivery_probability
                delivered.append(profile)
            else:
                probability *= 1.0 - profile.delivery_probability
        if probability == 0.0:
            continue
        total = total + _coverage_of_profiles(index, delivered).scaled(probability)
    return total


def _coverage_of_profiles(index: CoverageIndex, profiles: Sequence[NodeProfile]) -> CoverageValue:
    """Deterministic ``C_ph`` of the union of the profiles' collections."""
    covered: set = set()
    arcs_by_poi: Dict[int, ArcSet] = {}
    for profile in profiles:
        covered.update(profile.covered_pois)
        for poi_id, arcs in profile.arcs_by_poi.items():
            merged = arcs_by_poi.get(poi_id)
            if merged is None:
                arcs_by_poi[poi_id] = arcs.copy()
            else:
                arcs_by_poi[poi_id] = merged.union(arcs)
    point = sum(index.pois[poi_id].weight for poi_id in covered)
    aspect = 0.0
    for poi_id, arcs in arcs_by_poi.items():
        poi = index.pois[poi_id]
        restriction = _restriction_segments(poi)
        if restriction is None:
            aspect += poi.weight * arcs.measure()
        else:
            measure = 0.0
            for lo, hi in arcs.segments():
                measure += _clip_length(lo, hi, restriction)
            aspect += poi.weight * measure
    return CoverageValue(point, aspect)


class _PoIBackground:
    """Piecewise-constant survival function of the background nodes on one PoI.

    ``survival(v) = prod over background nodes covering aspect v of
    (1 - p_i)`` -- zero wherever a certain node covers.  The circle is cut
    at every arc endpoint; inside an elementary segment the set of covering
    nodes is constant, so its survival is the product at the midpoint.
    Stored as sorted segments ``(lo, hi, survival)`` spanning
    ``[0, 2*pi]``.  ``point_survival`` is the same product for point
    coverage.
    """

    __slots__ = ("segments", "point_survival", "restriction", "weight")

    def __init__(
        self,
        poi,
        contributions: Sequence[Tuple[float, ArcSet]],
        point_survival: float,
    ) -> None:
        self.point_survival = point_survival
        self.restriction = _restriction_segments(poi)
        self.weight = poi.weight
        breakpoints = {0.0, TWO_PI}
        for _, arcs in contributions:
            for lo, hi in arcs.segments():
                breakpoints.add(lo)
                breakpoints.add(hi)
        cuts = sorted(breakpoints)
        self.segments: List[Tuple[float, float, float]] = []
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo <= 1e-15:
                continue
            mid = 0.5 * (lo + hi)
            survival = 1.0
            for probability, arcs in contributions:
                if arcs.contains(mid):
                    survival *= 1.0 - probability
                    if survival == 0.0:
                        break
            self.segments.append((lo, hi, survival))

    def expected_aspect(self) -> float:
        """Expected covered aspect measure: ``integral of (1 - survival)``
        over the important aspects, times the PoI's weight."""
        # One term per overlap with an important-aspect segment, as if the
        # circle were also cut at the restriction's ends.
        restriction = ((0.0, TWO_PI),) if self.restriction is None else self.restriction
        expected = 0.0
        for lo, hi, survival in self.segments:
            if survival < 1.0:
                for r_lo, r_hi in restriction:
                    overlap = min(hi, r_hi) - max(lo, r_lo)
                    if overlap > 0.0:
                        expected += (1.0 - survival) * overlap
        return self.weight * expected

    def integrate_survival(self, lo: float, hi: float, exclude) -> float:
        """``integral of survival`` over ``[lo, hi]`` minus *exclude* segments,
        clipped to the PoI's important aspects.

        *exclude* is a sorted list of disjoint ``(lo, hi)`` segments (the
        free node's already-selected arcs on this PoI) or ``None``.
        """
        total = 0.0
        for seg_lo, seg_hi, survival in self.segments:
            if survival == 0.0:
                continue
            o_lo = lo if lo > seg_lo else seg_lo
            o_hi = hi if hi < seg_hi else seg_hi
            if o_hi <= o_lo:
                continue
            if exclude is None:
                if self.restriction is None:
                    total += survival * (o_hi - o_lo)
                else:
                    total += survival * _clip_length(o_lo, o_hi, self.restriction)
                continue
            # Subtract the parts already covered by the free node's own arcs.
            pieces = [(o_lo, o_hi)]
            for ex_lo, ex_hi in exclude:
                next_pieces = []
                for p_lo, p_hi in pieces:
                    if ex_hi <= p_lo or ex_lo >= p_hi:
                        next_pieces.append((p_lo, p_hi))
                        continue
                    if p_lo < ex_lo:
                        next_pieces.append((p_lo, ex_lo))
                    if ex_hi < p_hi:
                        next_pieces.append((ex_hi, p_hi))
                pieces = next_pieces
                if not pieces:
                    break
            if self.restriction is None:
                for p_lo, p_hi in pieces:
                    total += survival * (p_hi - p_lo)
            else:
                for p_lo, p_hi in pieces:
                    total += survival * _clip_length(p_lo, p_hi, self.restriction)
        return total


class SelectionEvaluator:
    """Incremental expected-coverage evaluator for one greedy selection phase.

    One node (the *free* node, delivery probability ``p_free``) is having
    its collection chosen greedily; every other node in ``M`` -- the
    command center, the contact peer's already-fixed selection, and all
    cached-metadata nodes -- is frozen background.  For a candidate photo,
    the marginal expected gain decomposes per covered PoI:

    * point:   ``w * p_free * point_survival(poi)`` if the free node's
      tentative selection does not already cover the PoI,
    * aspect:  ``w * p_free * integral of background survival`` over the
      photo's aspect arc minus aspects the tentative selection already
      covers.

    Background survival profiles are built lazily per PoI, only when some
    candidate photo actually covers that PoI, and stay frozen: committed
    photos enter later queries as *exclude* segments instead.  Every
    simulation, served request and CLI run selects through this one
    evaluator.
    """

    def __init__(
        self,
        index: CoverageIndex,
        background: Sequence[NodeProfile],
        free_probability: float,
    ) -> None:
        if not 0.0 <= free_probability <= 1.0:
            raise ValueError(f"free_probability must be in [0, 1], got {free_probability}")
        self.index = index
        self.free_probability = free_probability
        self._profiles: Dict[int, _PoIBackground] = {}
        self._contributions, self._point_survival = _fold_profiles(background)
        # Tentative selection state for the free node.
        self._selected_arcs: Dict[int, ArcSet] = {}
        self._selected_pois: set = set()

    def _profile_for(self, poi_id: int) -> _PoIBackground:
        profile = self._profiles.get(poi_id)
        if profile is None:
            profile = _PoIBackground(
                self.index.pois[poi_id],
                self._contributions.get(poi_id, ()),
                self._point_survival.get(poi_id, 1.0),
            )
            self._profiles[poi_id] = profile
        return profile

    def _exclude_for(self, poi_id: int):
        """The free node's selected segments at *poi_id*, or ``None``."""
        selected = self._selected_arcs.get(poi_id)
        return None if selected is None else selected.segments_list()

    def gain_of(self, photo: Photo) -> CoverageValue:
        """Marginal expected-coverage gain of adding *photo* to the free node.

        Non-increasing as the tentative selection grows (the point and
        aspect components are both submodular in the selection), which is
        what licenses the lazy-greedy strategy in
        :func:`repro.core.selection.greedy_select`.
        """
        if self.free_probability <= 0.0:
            return CoverageValue.ZERO
        point_ids, arcs = self.index.incidence_arcs(photo)
        if not point_ids:
            return CoverageValue.ZERO
        point_gain = 0.0
        for poi_id in point_ids:
            if poi_id not in self._selected_pois:
                profile = self._profile_for(poi_id)
                point_gain += profile.weight * profile.point_survival
        aspect_gain = 0.0
        for poi_id, segments in arcs:
            profile = self._profile_for(poi_id)
            exclude = self._exclude_for(poi_id)
            integral = 0.0
            for lo, hi in segments:
                integral += profile.integrate_survival(lo, hi, exclude)
            if integral > 0.0:
                aspect_gain += profile.weight * integral
        p = self.free_probability
        return CoverageValue(point_gain * p, aspect_gain * p)

    def gain_of_batch(self, photos: Sequence[Photo]) -> List[CoverageValue]:
        """The initial pool scan of greedy selection: the marginal gain of
        every photo in *photos* against the same (empty) tentative selection,
        in order.  Equal to ``[self.gain_of(p) for p in photos]``."""
        return [self.gain_of(photo) for photo in photos]

    def add(self, photo: Photo) -> CoverageValue:
        """Commit *photo* to the free node's tentative selection; returns
        its marginal gain just before the commit."""
        gain = self.gain_of(photo)
        self._commit(photo)
        return gain

    def _commit(self, photo: Photo) -> Tuple[int, ...]:
        """Commit *photo* without evaluating its gain (the caller holds it).

        Returns the ids of the PoIs it touched: the photo's own, the only
        ones where the tentative selection changes.
        """
        point_ids, arcs = self.index.incidence_arcs(photo)
        self._selected_pois.update(point_ids)
        for poi_id, segments in arcs:
            arcset = self._selected_arcs.get(poi_id)
            if arcset is None:
                arcset = ArcSet()
                self._selected_arcs[poi_id] = arcset
            for lo, hi in segments:
                arcset.add_segment(lo, hi)
        return point_ids

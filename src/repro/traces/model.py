"""Contact traces: the mobility substrate of every experiment.

A contact trace is a time-ordered list of :class:`ContactRecord` --
``(start, node_a, node_b, duration)`` -- exactly what Bluetooth scanning
experiments like MIT Reality and Cambridge06 record.  All routing schemes
consume only this representation, which is why synthetic traces (see
:mod:`repro.traces.synthetic`) substitute cleanly for the real datasets.

:class:`ContactTrace` also provides the statistics the paper's modeling
relies on: per-pair inter-contact gaps (Section III-B assumes these are
roughly exponential) and aggregate contact rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["COMMAND_CENTER_ID", "ContactRecord", "ContactTrace"]

#: Node id of the command center, ``n_0`` of Definition 2.  A contact with
#: it is a gateway uplink.
COMMAND_CENTER_ID = 0


@dataclass(frozen=True, order=True)
class ContactRecord:
    """One contact: nodes *node_a* and *node_b* in range from *start* for
    *duration* seconds.  Node order is normalized so ``node_a < node_b``."""

    start: float
    node_a: int
    node_b: int
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"contact start must be non-negative, got {self.start}")
        if self.duration < 0.0:
            raise ValueError(f"contact duration must be non-negative, got {self.duration}")
        if self.node_a == self.node_b:
            raise ValueError(f"self-contact of node {self.node_a}")
        if self.node_a > self.node_b:
            a, b = self.node_b, self.node_a
            object.__setattr__(self, "node_a", a)
            object.__setattr__(self, "node_b", b)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.node_a, self.node_b)


class ContactTrace:
    """An immutable, time-sorted sequence of contacts."""

    def __init__(self, contacts: Iterable[ContactRecord], name: str = "trace") -> None:
        self._contacts: List[ContactRecord] = sorted(contacts, key=lambda c: (c.start, c.pair))
        self.name = name

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[ContactRecord]:
        return iter(self._contacts)

    def __getitem__(self, index: int) -> ContactRecord:
        return self._contacts[index]

    @property
    def contacts(self) -> Sequence[ContactRecord]:
        return tuple(self._contacts)

    def node_ids(self) -> Set[int]:
        nodes: Set[int] = set()
        for contact in self._contacts:
            nodes.add(contact.node_a)
            nodes.add(contact.node_b)
        return nodes

    @property
    def start_time(self) -> float:
        return self._contacts[0].start if self._contacts else 0.0

    @property
    def end_time(self) -> float:
        return max((c.end for c in self._contacts), default=0.0)

    @property
    def span(self) -> float:
        return self.end_time - self.start_time

    def restricted_to(self, node_ids: Iterable[int], name: Optional[str] = None) -> "ContactTrace":
        """Sub-trace of contacts whose both endpoints are in *node_ids*."""
        allowed = set(node_ids)
        return ContactTrace(
            (c for c in self._contacts if c.node_a in allowed and c.node_b in allowed),
            name=name or f"{self.name}:restricted",
        )

    def window(self, start: float, end: float, name: Optional[str] = None) -> "ContactTrace":
        """Sub-trace of contacts starting inside ``[start, end)``."""
        return ContactTrace(
            (c for c in self._contacts if start <= c.start < end),
            name=name or f"{self.name}:window",
        )

    def last_contacts(self, count: int, name: Optional[str] = None) -> "ContactTrace":
        """The final *count* contacts (the prototype demo uses the last 48)."""
        return ContactTrace(self._contacts[-count:], name=name or f"{self.name}:tail")

    def shifted(self, offset: float, name: Optional[str] = None) -> "ContactTrace":
        """Trace with all start times shifted by *offset* (>= -start_time)."""
        return ContactTrace(
            (
                ContactRecord(c.start + offset, c.node_a, c.node_b, c.duration)
                for c in self._contacts
            ),
            name=name or f"{self.name}:shifted",
        )

    def merged_with(self, other: "ContactTrace", name: Optional[str] = None) -> "ContactTrace":
        return ContactTrace(
            list(self._contacts) + list(other._contacts),
            name=name or f"{self.name}+{other.name}",
        )

    # ------------------------------------------------------------------
    # Statistics (Section III-B grounding)
    # ------------------------------------------------------------------

    def pair_intercontact_gaps(self) -> Dict[Tuple[int, int], List[float]]:
        """Per node pair, the gaps between consecutive contact starts."""
        last_seen: Dict[Tuple[int, int], float] = {}
        gaps: Dict[Tuple[int, int], List[float]] = {}
        for contact in self._contacts:
            previous = last_seen.get(contact.pair)
            if previous is not None and contact.start > previous:
                gaps.setdefault(contact.pair, []).append(contact.start - previous)
            last_seen[contact.pair] = contact.start
        return gaps

    def pair_rates(self) -> Dict[Tuple[int, int], float]:
        """MLE exponential rate per pair (contacts per second)."""
        rates: Dict[Tuple[int, int], float] = {}
        for pair, gaps in self.pair_intercontact_gaps().items():
            total = sum(gaps)
            if total > 0.0:
                rates[pair] = len(gaps) / total
        return rates

    def mean_contact_duration(self) -> float:
        if not self._contacts:
            return 0.0
        return sum(c.duration for c in self._contacts) / len(self._contacts)

    def summary(self) -> Dict[str, float]:
        """Headline statistics for documentation and sanity tests."""
        nodes = self.node_ids()
        return {
            "contacts": float(len(self._contacts)),
            "nodes": float(len(nodes)),
            "span_hours": self.span / 3600.0,
            "mean_duration_s": self.mean_contact_duration(),
            "contacts_per_node_hour": (
                2.0 * len(self._contacts) / (len(nodes) * self.span / 3600.0)
                if nodes and self.span > 0.0
                else 0.0
            ),
        }

    def __repr__(self) -> str:
        return (
            f"ContactTrace(name={self.name!r}, contacts={len(self)}, "
            f"nodes={len(self.node_ids())}, span={self.span / 3600.0:.1f}h)"
        )

"""JSON-serializable forms of experiment results.

The engine's result cache and its worker processes carry each run's
:class:`SimulationResult` through :func:`result_to_dict` /
:func:`result_from_dict`.  Round-trips are lossless for the fields the
figures use.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.coverage import CoverageValue
from ..dtn.faults import FaultCounters
from ..dtn.simulator import SampleRecord, SimulationResult

__all__ = ["result_to_dict", "result_from_dict"]


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A :class:`SimulationResult` as a JSON-serializable dict."""
    return {
        "scheme": result.scheme,
        "final_coverage": {
            "point": result.final_coverage.point,
            "aspect": result.final_coverage.aspect,
        },
        "delivered_photos": result.delivered_photos,
        "created_photos": result.created_photos,
        "contacts_processed": result.contacts_processed,
        "center_contacts": result.center_contacts,
        "delivery_latencies_s": list(result.delivery_latencies_s),
        "fault_counters": result.fault_counters.as_dict(),
        "samples": [
            {
                "time": sample.time,
                "point_coverage": sample.point_coverage,
                "aspect_coverage_deg": sample.aspect_coverage_deg,
                "delivered_photos": sample.delivered_photos,
            }
            for sample in result.samples
        ],
    }


def result_from_dict(payload: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    result = SimulationResult(
        scheme=payload["scheme"],
        final_coverage=CoverageValue(
            payload["final_coverage"]["point"], payload["final_coverage"]["aspect"]
        ),
        delivered_photos=payload["delivered_photos"],
        created_photos=payload.get("created_photos", 0),
        contacts_processed=payload.get("contacts_processed", 0),
        center_contacts=payload.get("center_contacts", 0),
        delivery_latencies_s=list(payload.get("delivery_latencies_s", [])),
        fault_counters=FaultCounters(**payload.get("fault_counters", {})),
    )
    for sample in payload["samples"]:
        result.samples.append(
            SampleRecord(
                time=sample["time"],
                point_coverage=sample["point_coverage"],
                aspect_coverage_deg=sample["aspect_coverage_deg"],
                delivered_photos=sample["delivered_photos"],
            )
        )
    return result

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
from .runner import AveragedResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "averaged_to_dict",
    "averaged_from_dict",
]

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


def averaged_to_dict(result: AveragedResult) -> Dict[str, Any]:
    return {
        "scheme": result.scheme,
        "runs": result.runs,
        "point_coverage": result.point_coverage,
        "aspect_coverage_deg": result.aspect_coverage_deg,
        "delivered_photos": result.delivered_photos,
        "sample_times": list(result.sample_times),
        "point_series": list(result.point_series),
        "aspect_series_deg": list(result.aspect_series_deg),
        "delivered_series": list(result.delivered_series),
    }


def averaged_from_dict(payload: Dict[str, Any]) -> AveragedResult:
    return AveragedResult(
        scheme=payload["scheme"],
        runs=payload["runs"],
        point_coverage=payload["point_coverage"],
        aspect_coverage_deg=payload["aspect_coverage_deg"],
        delivered_photos=payload["delivered_photos"],
        sample_times=list(payload.get("sample_times", [])),
        point_series=list(payload.get("point_series", [])),
        aspect_series_deg=list(payload.get("aspect_series_deg", [])),
        delivered_series=list(payload.get("delivered_series", [])),
    )

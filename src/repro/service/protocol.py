"""Wire protocol of the command-center service.

The service speaks newline-delimited JSON (one request object in, one
response object out, UTF-8, ``\\n``-terminated) over a plain TCP socket.
JSON is the right codec here because Python round-trips floats exactly
through ``repr``: a photo's metadata floats arrive at the server
bit-identical to the values the workload generator drew, which is what
lets a live selection match the simulator byte for byte.

Every request carries an ``op`` plus op-specific fields; every response
carries ``ok`` and echoes the request's ``id`` when one was sent.
Photos travel as the :func:`photo_to_wire` / :func:`photo_from_wire`
dict -- metadata ``(l, r, phi, d)`` plus the bookkeeping attributes the
DTN substrate needs (id, size, timestamp, owner, features).  A photo's
unknown keys are ignored, so a journal whose photos carry a field this
code no longer knows still replays.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..core.geometry import Point
from ..core.metadata import Photo, PhotoMetadata

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "photo_to_wire",
    "photo_from_wire",
    "ok_response",
    "error_response",
    "require_field",
    "require_number",
    "require_int",
]

#: Bumped when the request/response shapes change incompatibly.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A request (or photo payload) violated the wire protocol."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One JSON-lines frame: compact JSON, UTF-8, newline-terminated.

    Strict JSON: a ``nan`` or infinite float raises ``ValueError``.
    """
    payload_json = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return payload_json.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# Photo codec
# ----------------------------------------------------------------------


def photo_to_wire(photo: Photo) -> Dict[str, Any]:
    """The wire dict for *photo* (metadata floats preserved exactly)."""
    meta = photo.metadata
    return {
        "photo_id": photo.photo_id,
        "size_bytes": photo.size_bytes,
        "taken_at": photo.taken_at,
        "owner_id": photo.owner_id,
        "features": list(photo.features) if photo.features is not None else None,
        "metadata": {
            "x": meta.location.x,
            "y": meta.location.y,
            "coverage_range": meta.coverage_range,
            "field_of_view": meta.field_of_view,
            "orientation": meta.orientation,
        },
    }


def photo_from_wire(payload: Dict[str, Any]) -> Photo:
    """Rebuild a :class:`Photo` from :func:`photo_to_wire` output."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"photo must be an object, got {type(payload).__name__}")
    meta_payload = payload.get("metadata")
    if not isinstance(meta_payload, dict):
        raise ProtocolError("photo missing 'metadata' object")
    try:
        metadata = PhotoMetadata(
            location=Point(
                float(meta_payload["x"]), float(meta_payload["y"])
            ),
            coverage_range=float(meta_payload["coverage_range"]),
            field_of_view=float(meta_payload["field_of_view"]),
            orientation=float(meta_payload["orientation"]),
        )
        features = payload.get("features")
        return Photo(
            metadata=metadata,
            size_bytes=int(payload["size_bytes"]),
            taken_at=float(payload.get("taken_at", 0.0)),
            owner_id=payload.get("owner_id"),
            features=tuple(features) if features is not None else None,
            photo_id=int(payload["photo_id"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid photo payload: {exc}") from None


# ----------------------------------------------------------------------
# Response helpers
# ----------------------------------------------------------------------


def ok_response(op: str, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "op": op}
    response.update(fields)
    return response


def error_response(code: str, message: str, op: Optional[str] = None) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if op is not None:
        response["op"] = op
    return response


# ----------------------------------------------------------------------
# Field extraction
# ----------------------------------------------------------------------


def require_field(payload: Dict[str, Any], name: str) -> Any:
    if name not in payload:
        raise ProtocolError(f"missing required field {name!r}")
    return payload[name]


def require_number(payload: Dict[str, Any], name: str) -> float:
    value = require_field(payload, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def require_int(payload: Dict[str, Any], name: str) -> int:
    value = require_field(payload, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {name!r} must be an integer, got {value!r}")
    return value

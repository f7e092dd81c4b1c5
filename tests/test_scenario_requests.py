"""The one scenario-to-requests converter, and the benchmark's copy of it.

``repro.service.client.scenario_requests`` is what ``repro replay``
sends.  ``perfbench/replay.py`` keeps its own ``scenario_requests`` that
frames the same requests with an ``id``; the drift guard below holds the
two byte-identical until the benchmark imports the one in ``src``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioSpec
from repro.service.client import (
    iter_scenario_events,
    replay_scenario,
    scenario_requests,
)
from repro.service.protocol import encode_message

PERFBENCH_REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


@pytest.fixture(scope="module")
def scenario():
    # The CI service-smoke and recovery-smoke spec.
    return ScenarioSpec(scale=0.05, seed=3).build()


def _load_perfbench_replay():
    spec = importlib.util.spec_from_file_location("perfbench_replay", PERFBENCH_REPLAY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_one_request_per_event_in_simulator_order(scenario):
    events = list(iter_scenario_events(scenario))
    requests = list(scenario_requests(scenario))
    # The CI smoke jobs pin this length: 400 replayed before the kill,
    # 377 after the restart.
    assert len(events) == len(requests) == 777
    for event, request in zip(events, requests):
        assert request["time"] == event.time
    ops = [request["op"] for request in requests]
    assert ops.count("ingest") == len(scenario.photo_arrivals)
    assert set(ops) == {"ingest", "contact"}


def test_perfbench_copy_matches_byte_for_byte(scenario):
    frames = _load_perfbench_replay().scenario_requests(scenario)
    requests = list(scenario_requests(scenario))
    assert len(frames) == len(requests)
    for i, (frame, request) in enumerate(zip(frames, requests)):
        assert frame == encode_message({**request, "id": i}), i


class _RecordingClient:
    """Answers every request ``ok`` and keeps what it was sent."""

    def __init__(self) -> None:
        self.sent = []

    def request(self, op, **fields):
        self.sent.append({"op": op, **fields})
        return {"ok": True}

    def coverage(self):
        return {"variants": {}}

    def stats(self):
        return {}


@pytest.mark.parametrize("skip, limit", [(0, None), (400, None), (0, 400), (100, 50)])
def test_replay_sends_a_slice_of_the_stream(scenario, skip, limit):
    client = _RecordingClient()
    report = replay_scenario(client, scenario, limit=limit, skip=skip)
    requests = list(scenario_requests(scenario))
    expected = requests[skip:] if limit is None else requests[skip:skip + limit]
    assert client.sent == expected
    assert report.events == len(expected)
    assert report.photos == sum(1 for r in expected if r["op"] == "ingest")


@pytest.mark.parametrize("skip, limit", [(-1, None), (0, -1)])
def test_replay_rejects_negative_bounds(scenario, skip, limit):
    client = _RecordingClient()
    with pytest.raises(ValueError, match="non-negative"):
        replay_scenario(client, scenario, limit=limit, skip=skip)
    assert client.sent == []

"""Tests of the benchmark itself: inputs, span arithmetic, latency, smoke.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

common.use_source_tree()


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------


def test_due_schedule_is_deterministic_per_seed():
    assert replay.due_schedule(500, 7) == replay.due_schedule(500, 7)
    assert replay.due_schedule(500, 7) != replay.due_schedule(500, 8)


def test_due_schedule_keeps_stage_rates_and_order():
    total = 2000
    due = replay.due_schedule(total, 3)
    assert due == sorted(due)
    half = total // 2
    low_span = due[half - 1] - due[0]
    high_span = due[-1] - due[half]
    assert low_span == pytest.approx(half / replay.STAGE_RATES["low"], rel=0.01)
    assert high_span == pytest.approx(half / replay.STAGE_RATES["high"], rel=0.01)
    assert replay.stage_of(half - 1, total) == "low"
    assert replay.stage_of(half, total) == "high"


def _requests_digest() -> str:
    """sha256 of the served stream's frames, built in a fresh process (photo
    ids come from a process-wide counter, so the process must be new)."""
    import subprocess

    code = (
        "import hashlib, common, replay; common.use_source_tree()\n"
        "from repro.experiments.config import ScenarioSpec\n"
        "frames = replay.scenario_requests(ScenarioSpec(scale=0.05, seed=0).build())\n"
        "print(len(frames), hashlib.sha256(b''.join(frames)).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=common.HERE, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scenario_requests_are_deterministic():
    first = _requests_digest()
    assert first == _requests_digest()
    assert int(first.split()[0]) > 100


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    root = tracer.open("loop")  # 0 .. 10
    clock.now = 1.0
    a = tracer.open("select")  # 1 .. 5
    clock.now = 2.0
    b = tracer.open("profile")  # 2 .. 3
    clock.now = 3.0
    tracer.close(b)
    clock.now = 3.5
    c = tracer.open("profile")  # 3.5 .. 4, sibling of b
    clock.now = 4.0
    tracer.close(c)
    clock.now = 5.0
    tracer.close(a)
    clock.now = 6.0
    d = tracer.open("select")  # 6 .. 9, sibling of a
    clock.now = 9.0
    tracer.close(d)
    clock.now = 10.0
    tracer.close(root)

    self_s = spans.self_times(tracer)
    assert self_s["profile"] == pytest.approx(1.5)
    assert self_s["select"] == pytest.approx((4.0 - 1.5) + 3.0)
    assert self_s["loop"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert spans.span_totals(tracer, "select") == (2, pytest.approx(7.0))


def test_wrapped_functions_nest_and_survive_a_dump(tmp_path):
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 1.0

    tracer.request_id = 4
    tracer.wrap("outer", outer)()
    tracer.add("calls", 3)
    tracer.note_key("keys", (1, 2))
    tracer.note_key("keys", (1, 2))
    tracer.dump(str(tmp_path / "t"))

    loaded = spans.Tracer.load(str(tmp_path / "t"))
    assert spans.self_times(loaded) == {"outer": 2.0, "inner": 4.0}
    assert spans.request_spans(loaded, ["outer"]) == {4: 6.0}
    assert loaded.counters == {"calls": 3}
    assert loaded.distinct_count("keys") == 1


# ----------------------------------------------------------------------
# Due-time latency under a stall
# ----------------------------------------------------------------------


def test_due_latencies_charge_every_request_queued_behind_a_stall():
    due = [0.0, 0.1, 0.2, 0.3]
    done = [1.0, 1.01, 1.02, 1.03]  # request 0 stalled the server for 1 s
    assert replay.due_latencies(due, done) == pytest.approx([1.0, 0.91, 0.82, 0.73])


def _stalling_server(stall_s: float):
    """A JSON-lines server answering in order, stalling on its first request."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            first = True
            for line in reader:
                if first:
                    time.sleep(stall_s)
                    first = False
                request = line.decode()
                rid = request.split('"id":')[1].rstrip("}\n")
                conn.sendall(b'{"ok":true,"id":' + rid.encode() + b"}\n")
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_open_loop_replay_times_requests_from_when_they_were_due():
    stall = 0.3
    port, thread = _stalling_server(stall)
    frames = [b'{"op":"ping","id":%d}\n' % i for i in range(20)]
    due = [0.01 * i for i in range(20)]
    result = replay.replay("127.0.0.1", port, frames, due)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    latencies = result.latencies()
    # Open loop: every request went out on time despite the stall ...
    assert result.lag_max() < 0.1
    assert result.backlog_max >= 15
    # ... and each one queued behind the stall is charged the wait from its
    # own due instant: latency >= stall - due offset.
    for i, latency in enumerate(latencies):
        assert latency >= stall - due[i] - 0.005
    assert replay.decode_replies(result) == ([True] * 20, [])
    assert result.written == 20 and result.error == ""


def test_replay_against_a_dying_server_returns_partial_results():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():  # answers three requests, then drops the connection
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            for i in range(3):
                reader.readline()
                conn.sendall(b'{"ok":true,"id":%d}\n' % i)
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    frames = [b'{"op":"ping","id":%d}\n' % i for i in range(10)]
    result = replay.replay("127.0.0.1", listener.getsockname()[1], frames, [0.005 * i for i in range(10)])
    thread.join(timeout=10.0)
    oks, _ = replay.decode_replies(result)
    assert oks[:3] == [True] * 3
    assert oks[3:] == [None] * 7
    assert "closed" in result.error


def test_missing_wrap_target_is_recorded_and_survives_a_dump(tmp_path):
    tracer = spans.Tracer()
    spans._patch(tracer, "core.selection", "no_such_function", lambda fn: fn)
    spans._patch(tracer, "core.selection:NoSuchClass", "run", lambda fn: fn)
    spans._patch(tracer, "no_such_module", "run", lambda fn: fn)
    assert tracer.missing == [
        "core.selection.no_such_function",
        "core.selection:NoSuchClass.run",
        "no_such_module.run",
    ]
    tracer.dump(str(tmp_path / "t"))
    assert spans.Tracer.load(str(tmp_path / "t")).missing == tracer.missing


# ----------------------------------------------------------------------
# Smoke: every workload's legs pass their correctness checks
# ----------------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SERVED_SCALE", 0.05)
    return {
        name: dataclasses.replace(workload, sim_scale=0.05)
        for name, workload in run.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_measure_and_trace_pass_the_checks(tiny, name):
    workload = tiny[name]
    tally = run.Tally()
    metrics = run.end_to_end(*run.measure(workload, seed=1, seconds=0.0, tally=tally))
    assert tally.failures == []
    assert set(metrics) == {metric for metric, _ in run.END_TO_END + run.UNGATED}
    assert all(value > 0 for value, _, _ in metrics.values())
    assert tally.failed == 0 and tally.attempted > 0

    layers = run.trace_layers(workload, seed=1, seconds=0.0, tally=tally)
    assert tally.failures == []
    assert set(layers) == {metric for metric, _, _ in run.PER_LAYER}
    assert layers["trace.accounted_frac"] == pytest.approx(1.0, abs=0.05)
    assert layers["service.persistence.appends"] == layers["service.persistence.recovery_records"]
    if "our-scheme" in workload.sim_schemes:
        assert layers["core.selection.calls"] > 0
    else:
        assert layers["core.selection.calls"] == 0
    assert not os.listdir(common.WORK_DIR)


def test_a_crashed_leg_prints_correct_false(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise ConnectionError("server gone")

    monkeypatch.setattr(run, "measure", crash)
    code = run.main(["--workload", "table1-ours", "--seed", "1", "--seconds", "1", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 1
    assert result["correct"] is False and result["attempted"] >= 1


def test_missing_source_tree_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(common.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-ours", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

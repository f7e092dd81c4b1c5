"""Launch one command-center server for the served leg of a workload.

Run as ``python3 perfbench/serve_child.py --scale X --wal-dir D [--trace]``;
it serves ``common.SERVED_SCHEME`` with the journal at ``common.FSYNC``.
After imports it times the set-up a deployment pays -- world build,
:class:`CommandCenterServer` construction and start until the socket
listens -- and prints ``{"port": ..., "setup_s": ..., "calibrations":
[...]}`` on stdout, the host-speed figure taken right after the set-up.  With ``--trace`` the span wrappers are installed before the
server is built; a ``dump <path>`` line on stdin writes the spans and
answers ``dumped``.  The benchmark ends the server with SIGKILL.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time

import common


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    common.use_source_tree()
    from repro.experiments.config import ScenarioSpec
    from repro.service import CommandCenterServer, PersistenceConfig, RoutingConfig

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_sim_tracing(tracer)
        spans.install_service_tracing(tracer)

    def ready(host: str, port: int) -> None:
        setup_s = time.perf_counter() - started
        common.emit({"port": port, "setup_s": setup_s, "calibrations": [common.calibrate()]})

    started = time.perf_counter()
    scenario = ScenarioSpec(scale=args.scale, seed=common.SCENARIO_SEED).build()
    server = CommandCenterServer(
        pois=scenario.pois,
        config=scenario.config,
        routing=RoutingConfig(champion=common.SERVED_SCHEME),
        persistence=PersistenceConfig(wal_dir=args.wal_dir, fsync=common.FSYNC),
        ready_callback=ready,
    )
    del scenario

    def control() -> None:
        for line in sys.stdin:
            parts = line.split()
            if parts[:1] == ["dump"] and tracer is not None:
                tracer.dump(parts[1])
                common.emit({"dumped": parts[1]})

    threading.Thread(target=control, daemon=True).start()
    asyncio.run(server.run_async())


if __name__ == "__main__":
    main()

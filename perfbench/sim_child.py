"""One measured simulation run, in a fresh process.

Run as ``python3 perfbench/sim_child.py --schemes A[,B] --scale X
[--trace-out PATH]``.  Imports happen before any clock starts.
``setup_s`` is ``ScenarioSpec.build()`` plus the construction of every
``Simulation``; ``run_s`` is the summed wall time of their
``Simulation.run()`` calls, in the order given.  Prints one JSON line:
raw timings, the host-speed calibrations taken between set-up and runs
and after the runs, peak RSS, each run's result digest and final
coverage, and -- when traced -- the span file.
"""

from __future__ import annotations

import argparse
import time

import common


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--schemes", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace-out", default=None, help="trace, and dump spans here")
    args = parser.parse_args()

    common.use_source_tree()
    from repro.dtn.simulator import Simulation
    from repro.experiments.config import ScenarioSpec
    from repro.experiments.runner import _best_possible_config
    from repro.routing.registry import create_scheme

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install_sim_tracing(tracer)

    started = time.perf_counter()
    scenario = ScenarioSpec(scale=args.scale, seed=common.SCENARIO_SEED).build()
    simulations = []
    for name in args.schemes.split(","):
        config = scenario.config
        if name == "best-possible":
            config = _best_possible_config(config)
        simulations.append(
            Simulation(
                trace=scenario.trace,
                pois=scenario.pois,
                photo_arrivals=scenario.photo_arrivals,
                scheme=create_scheme(name),
                config=config,
                gateway_ids=scenario.gateway_ids,
                end_time_s=scenario.end_time_s,
            )
        )
    setup_s = time.perf_counter() - started
    calibrations = [common.calibrate()]

    run_s = 0.0
    runs = []
    for simulation in simulations:
        started = time.perf_counter()
        result = simulation.run()
        run_s += time.perf_counter() - started
        runs.append(
            {
                "scheme": result.scheme,
                "digest": common.result_digest(result),
                "point_coverage": result.final_point_coverage,
                "aspect_coverage_deg": result.final_aspect_coverage_deg,
                "delivered_photos": result.delivered_photos,
            }
        )
    calibrations.append(common.calibrate())
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibrations": calibrations,
        "peak_rss_mb": common.peak_rss_mb(),
        "runs": runs,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
        report["trace"] = args.trace_out
    common.emit(report)


if __name__ == "__main__":
    main()

"""Command-line interface: regenerate any paper experiment from a shell.

Installed as the ``repro`` console script::

    repro list                      # what can be run
    repro fig5 --scale 0.2 --runs 2
    repro fig7 --trace cambridge
    repro demo --seed 3
    repro trace-stats --scale 0.2   # Sec. III-B exponential-fit check
    repro ablation pthld            # design-knob sweeps
    repro serve --port 7616         # always-on command-center service
    repro replay --port 7616        # stream a scenario through it
    repro loadgen --plan smoke      # open-loop load + SLO gate against it

Every command prints the same text tables the benchmark harness writes to
``benchmarks/results/``.

Comparison commands accept engine flags: ``--workers N`` fans the run
units out over N worker processes (results are identical to serial),
``--cache-dir PATH`` relocates the content-addressed result cache, and
``--no-cache`` disables it (see ``docs/ENGINE.md``).  Per-unit progress
goes to stderr so piped stdout stays clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import ablations, fig3_demo, fig5, fig6, fig7, fig8
from .experiments.config import TRACE_CAMBRIDGE, TRACE_MIT
from .service.persistence import FSYNC_POLICIES
from .experiments.report import format_comparison, format_table
from .traces.synthetic import cambridge06_like, mit_reality_like

__all__ = ["main", "build_parser"]

#: ``repro ablation`` studies; the parser's choices and ``repro list``'s row
ABLATION_STUDIES = ("pthld", "theta", "floor", "churn", "gateways")


def _add_engine_flags(cmd: argparse.ArgumentParser) -> None:
    """Engine knobs shared by every comparison-running command."""
    from .experiments.engine import DEFAULT_CACHE_DIR

    cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for run units (1 = in-process serial; "
        "parallel output is identical to serial)",
    )
    cmd.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=f"content-addressed result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="run every unit fresh; do not read or write the result cache",
    )
    cmd.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument every run unit (metrics, profiling, coverage curve) "
        "and write an aggregated run manifest (see docs/OBSERVABILITY.md)",
    )
    cmd.add_argument(
        "--manifest",
        type=str,
        default=None,
        metavar="PATH",
        help="where --telemetry writes the run manifest (default: manifest.json)",
    )


def _engine_from_args(args: argparse.Namespace):
    """Build the ExperimentEngine the engine flags describe."""
    from .experiments.engine import (
        DEFAULT_CACHE_DIR,
        ExperimentEngine,
        ResultCache,
        UnitProgress,
    )

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir else DEFAULT_CACHE_DIR)

    def progress(update: UnitProgress) -> None:
        status = "cache" if update.cached else f"{update.duration_s:.1f}s"
        print(
            f"  [{update.completed}/{update.total}] {update.unit.describe()} ({status})",
            file=sys.stderr,
        )

    telemetry = bool(getattr(args, "telemetry", False))
    manifest = getattr(args, "manifest", None)
    manifest_path = manifest if manifest else ("manifest.json" if telemetry else None)
    return ExperimentEngine(
        workers=args.workers,
        cache=cache,
        progress=progress,
        telemetry=telemetry,
        manifest_path=manifest_path,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-aware photo crowdsourcing through DTNs (ICDCS'16) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for name, help_text in (
        ("fig5", "coverage vs time, five schemes (MIT trace)"),
        ("fig6", "effect of contact-duration caps"),
        ("fig7", "effect of storage capacity"),
        ("fig8", "effect of photo generation rate"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scale", type=float, default=0.2, help="scenario scale (0, 1]")
        cmd.add_argument("--runs", type=int, default=1, help="seed-varied repetitions")
        cmd.add_argument("--seed", type=int, default=0)
        _add_engine_flags(cmd)
        if name in ("fig5", "fig6"):
            cmd.add_argument(
                "--chart", action="store_true", help="also render a text chart"
            )
        if name in ("fig7", "fig8"):
            cmd.add_argument(
                "--trace", choices=[TRACE_MIT, TRACE_CAMBRIDGE], default=TRACE_MIT
            )

    demo = sub.add_parser("demo", help="the Fig. 3 prototype demonstration")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--sensors",
        action="store_true",
        help="acquire photo metadata through the simulated sensor pipeline",
    )

    latency = sub.add_parser("latency", help="delivery-latency comparison across schemes")
    latency.add_argument("--scale", type=float, default=0.2)
    latency.add_argument("--runs", type=int, default=1)
    latency.add_argument("--seed", type=int, default=0)

    dissemination = sub.add_parser(
        "dissemination", help="PoI-list dissemination delay and its coverage cost"
    )
    dissemination.add_argument("--scale", type=float, default=0.2)
    dissemination.add_argument("--runs", type=int, default=1)
    dissemination.add_argument("--seed", type=int, default=0)

    robustness = sub.add_parser(
        "robustness", help="delivered coverage under fault injection (disaster scenarios)"
    )
    robustness.add_argument("--scale", type=float, default=0.2)
    robustness.add_argument("--runs", type=int, default=1)
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=None,
        metavar="I",
        help="fault intensities in [0, 1] to sweep (default: 0 .25 .5 .75 1)",
    )
    _add_engine_flags(robustness)

    centralized = sub.add_parser(
        "centralized", help="DTN selection vs a connected server (SmartPhoto setting)"
    )
    centralized.add_argument("--scale", type=float, default=0.2)
    centralized.add_argument("--seed", type=int, default=0)

    weighted = sub.add_parser(
        "weighted", help="Section II-C: do PoI weights prioritize important targets?"
    )
    weighted.add_argument("--scale", type=float, default=0.15)
    weighted.add_argument("--seed", type=int, default=0)
    weighted.add_argument("--weight", type=float, default=8.0)

    stats = sub.add_parser(
        "trace-stats", help="synthetic-trace statistics and exponential-fit check"
    )
    stats.add_argument("--trace", choices=[TRACE_MIT, TRACE_CAMBRIDGE], default=TRACE_MIT)
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--seed", type=int, default=0)

    telemetry = sub.add_parser(
        "telemetry", help="instrumented comparison run emitting a run manifest"
    )
    telemetry.add_argument("--scale", type=float, default=0.1, help="scenario scale (0, 1]")
    telemetry.add_argument("--runs", type=int, default=1, help="seed-varied repetitions")
    telemetry.add_argument("--seed", type=int, default=0)
    _add_engine_flags(telemetry)

    metrics = sub.add_parser(
        "metrics", help="inspect a telemetry run manifest (validates it first)"
    )
    metrics.add_argument("manifest_file", help="path to a manifest.json")
    metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the aggregated metrics in Prometheus text exposition format",
    )

    serve = sub.add_parser(
        "serve", help="always-on command-center service (JSON lines + GET /metrics)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7616, help="0 = ephemeral")
    serve.add_argument("--scale", type=float, default=0.1, help="world scale (0, 1]")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--trace", choices=[TRACE_MIT, TRACE_CAMBRIDGE], default=TRACE_MIT
    )
    serve.add_argument(
        "--champion", default="our-scheme", metavar="SPEC",
        help="authoritative scheme spec (registry grammar, e.g. 'our-scheme')",
    )
    serve.add_argument(
        "--challenger", default=None, metavar="SPEC",
        help="challenger scheme spec for A/B routing (default: none)",
    )
    serve.add_argument(
        "--challenger-pct", type=float, default=0.0,
        help="percent of users deterministically routed to the challenger",
    )
    serve.add_argument("--salt", default="", help="routing hash salt")
    serve.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write the service-session manifest here on shutdown",
    )
    serve.add_argument(
        "--clamp-time", action="store_true",
        help="monotonize out-of-order request timestamps instead of "
        "rejecting them (required under concurrent load generation)",
    )
    serve.add_argument(
        "--fault-intensity", type=float, default=0.0, metavar="I",
        help="disaster fault intensity in [0, 1]: scales the server-side "
        "fault plan (live node churn, transfer drops, metadata corruption)",
    )
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="enable durable mode: journal every mutating request to a "
        "per-variant write-ahead log under DIR and recover from it on boot",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="compact the journal into a snapshot every N records "
        "(0 = never; requires --wal-dir)",
    )
    serve.add_argument(
        "--fsync", choices=list(FSYNC_POLICIES), default="interval",
        help="journal durability: fsync every append, on an interval, "
        "or leave flushing to the OS (requires --wal-dir)",
    )

    replay = sub.add_parser(
        "replay", help="feed a scenario's event stream through a live server"
    )
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, default=7616)
    replay.add_argument("--scale", type=float, default=0.1, help="must match the server's")
    replay.add_argument("--seed", type=int, default=0, help="must match the server's")
    replay.add_argument(
        "--trace", choices=[TRACE_MIT, TRACE_CAMBRIDGE], default=TRACE_MIT
    )
    replay.add_argument(
        "--limit", type=int, default=None, help="replay only the first N events"
    )
    replay.add_argument(
        "--skip", type=int, default=0, metavar="N",
        help="skip the first N events (resume a replay against a server "
        "that recovered those events from its write-ahead log)",
    )
    replay.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to exit (and write its manifest) after the replay",
    )

    loadgen = sub.add_parser(
        "loadgen", help="open-loop load generation and chaos soak against a live server"
    )
    loadgen.add_argument(
        "--plan", default="smoke", metavar="NAME|PATH",
        help="built-in plan name (smoke, soak) or a JSON plan file",
    )
    loadgen.add_argument(
        "--target", default="127.0.0.1:7616", metavar="HOST:PORT",
        help="the repro serve instance to drive",
    )
    loadgen.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the validated load-report manifest here",
    )
    loadgen.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    loadgen.add_argument(
        "--duration-scale", type=float, default=1.0, metavar="X",
        help="multiply every stage duration by X (stretch or shrink the plan)",
    )
    loadgen.add_argument(
        "--max-p99", type=float, default=None, metavar="SECONDS",
        help="override the plan's p99 latency SLO",
    )
    loadgen.add_argument(
        "--max-error-rate", type=float, default=None, metavar="FRACTION",
        help="override the plan's error-rate SLO",
    )
    loadgen.add_argument(
        "--min-attainment", type=float, default=None, metavar="FRACTION",
        help="override the plan's rate-attainment SLO on gated stages",
    )
    loadgen.add_argument(
        "--kill-every", type=float, default=None, metavar="SECONDS",
        help="override the plan's chaos: mean connection-kill interval per worker",
    )

    ablation = sub.add_parser("ablation", help="design-knob sweeps")
    ablation.add_argument("study", choices=ABLATION_STUDIES)
    ablation.add_argument("--scale", type=float, default=0.2)
    ablation.add_argument("--runs", type=int, default=1)
    ablation.add_argument("--seed", type=int, default=0)
    _add_engine_flags(ablation)

    return parser


def _cmd_list() -> int:
    rows = [
        ["fig5", "coverage vs time, 5 schemes"],
        ["fig6", "contact-duration caps"],
        ["fig7", "storage sweep (--trace mit|cambridge)"],
        ["fig8", "generation-rate sweep (--trace mit|cambridge)"],
        ["demo", "Fig. 3 prototype demo (9 nodes, 40 photos; --sensors)"],
        ["latency", "delivery-latency percentiles per scheme"],
        ["dissemination", "PoI-list spread delay and its coverage cost"],
        ["robustness", "coverage degradation under fault injection"],
        ["centralized", "DTN vs connected-server selection efficiency"],
        ["weighted", "PoI-weight prioritization under a scarce uplink"],
        ["trace-stats", "Sec. III-B exponential inter-contact check"],
        ["telemetry", "instrumented run: metrics + profile -> manifest.json"],
        ["metrics", "validate and summarize a run manifest (--prometheus)"],
        ["serve", "always-on command-center service (--challenger for A/B)"],
        ["replay", "stream a scenario through a live server (--shutdown)"],
        ["loadgen", "open-loop load + chaos soak with SLO gating (--plan smoke|soak)"],
        ["ablation", " | ".join(ABLATION_STUDIES)],
    ]
    print(format_table(["command", "what it reproduces"], rows))
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from .traces.analysis import exponential_fit_report, rate_heterogeneity
    from .traces.graph import graph_summary

    builder = mit_reality_like if args.trace == TRACE_MIT else cambridge06_like
    hours = (300.0 if args.trace == TRACE_MIT else 200.0) * args.scale
    trace = builder(seed=args.seed, duration_hours=hours)
    print(f"trace: {trace!r}")
    print("\ncontact graph:")
    for key, value in graph_summary(trace).items():
        print(f"  {key:18s} {value:.2f}")
    print("\npair-rate heterogeneity:")
    for key, value in rate_heterogeneity(trace).items():
        print(f"  {key:18s} {value:.4g}")
    fits = exponential_fit_report(trace, min_gaps=10)
    if fits:
        good = sum(1 for f in fits if f.ks_pvalue > 0.05)
        print(f"\nexponential fits (pairs with >=10 gaps): {len(fits)}")
        print(f"  KS p > 0.05 for {good}/{len(fits)} pairs "
              "(Sec. III-B assumes per-pair exponential inter-contact times)")
    else:
        print("\nno pair has enough gaps for a fit at this scale")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    common = dict(scale=args.scale, num_runs=args.runs, seed=args.seed)
    engine = _engine_from_args(args)
    engine_common = dict(common, engine=engine)
    if args.study == "pthld":
        print(format_comparison(ablations.sweep_validity_threshold(**engine_common),
                                title="Eq. 1 validity threshold sweep"))
    elif args.study == "theta":
        print(format_comparison(ablations.sweep_effective_angle(**engine_common),
                                title="effective angle sweep"))
    elif args.study == "floor":
        print(format_comparison(ablations.sweep_probability_floor(**engine_common),
                                title="cold-start probability floor sweep"))
    elif args.study == "churn":
        print(format_comparison(ablations.sweep_churn(**common),
                                title="participation churn sweep"))
    else:
        print(format_comparison(ablations.compare_gateway_strategies(**common),
                                title="gateway placement strategies"))
    if args.study in ("pthld", "theta", "floor"):
        _note_manifest(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments.config import ScenarioSpec
    from .service import CommandCenterServer, PersistenceConfig, RoutingConfig

    spec = ScenarioSpec(
        trace_name=args.trace,
        scale=args.scale,
        seed=args.seed,
        fault_intensity=args.fault_intensity,
    )
    scenario = spec.build()
    try:
        routing = RoutingConfig(
            champion=args.champion,
            challenger=args.challenger,
            challenger_pct=args.challenger_pct,
            salt=args.salt,
        )
    except ValueError as exc:
        print(f"invalid routing config: {exc}", file=sys.stderr)
        return 2
    persistence = None
    if args.wal_dir is not None:
        try:
            persistence = PersistenceConfig(
                wal_dir=args.wal_dir,
                snapshot_every=args.snapshot_every,
                fsync=args.fsync,
            )
        except ValueError as exc:
            print(f"invalid persistence config: {exc}", file=sys.stderr)
            return 2
    elif args.snapshot_every:
        print("--snapshot-every requires --wal-dir", file=sys.stderr)
        return 2
    server = CommandCenterServer(
        pois=scenario.pois,
        config=scenario.config,
        routing=routing,
        host=args.host,
        port=args.port,
        manifest_path=args.manifest,
        time_policy="clamp" if args.clamp_time else "strict",
        persistence=persistence,
        ready_callback=lambda host, port: print(
            f"repro service listening on {host}:{port} "
            f"(champion={routing.champion!r}"
            + (
                f", challenger={routing.challenger!r}"
                f" at {routing.challenger_pct:g}%"
                if routing.challenger
                else ""
            )
            + (
                f", wal={persistence.wal_dir} fsync={persistence.fsync}"
                if persistence is not None
                else ""
            )
            + ")",
            file=sys.stderr,
            flush=True,
        ),
    )
    for variant, recovery in server.recoveries.items():
        print(
            f"recovered {variant}: snapshot seq {recovery.snapshot_seq}, "
            f"{recovery.replayed_records} journal records replayed "
            f"in {recovery.duration_s:.3f}s",
            file=sys.stderr,
            flush=True,
        )
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    if args.manifest:
        print(f"service manifest written to {args.manifest}", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .loadgen import resolve_plan, run_load
    from .loadgen.report import build_load_report, describe_result
    from .obs.manifest import write_manifest

    slo_overrides = {
        key: value
        for key, value in (
            ("max_p99_s", args.max_p99),
            ("max_error_rate", args.max_error_rate),
            ("min_rate_attainment", args.min_attainment),
        )
        if value is not None
    }
    try:
        plan = resolve_plan(args.plan)
        if args.seed is not None:
            plan = replace(plan, seed=args.seed)
        if args.duration_scale != 1.0:
            plan = plan.scaled(args.duration_scale)
        if slo_overrides:
            plan = replace(plan, slo=replace(plan.slo, **slo_overrides))
        if args.kill_every is not None:
            plan = replace(plan, chaos=replace(plan.chaos, kill_every_s=args.kill_every))
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 2

    host, _, port_text = args.target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"invalid --target {args.target!r} (expected HOST:PORT)", file=sys.stderr)
        return 2
    host = host or "127.0.0.1"

    try:
        result = run_load(
            plan, host, port,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
    except OSError as exc:
        print(f"cannot reach server at {host}:{port}: {exc}", file=sys.stderr)
        return 1
    report = build_load_report(result)
    if args.report:
        write_manifest(args.report, report)
        print(f"load report written to {args.report}", file=sys.stderr)
    print(describe_result(report))
    # SLO violations gate CI: distinct exit code so wrappers can tell
    # "server unreachable" (1) from "server too slow" (3).
    return 0 if report["slo"]["passed"] else 3


def _cmd_replay(args: argparse.Namespace) -> int:
    from .experiments.config import ScenarioSpec
    from .service import ServiceClient, replay_scenario

    spec = ScenarioSpec(trace_name=args.trace, scale=args.scale, seed=args.seed)
    scenario = spec.build()
    try:
        client = ServiceClient(host=args.host, port=args.port)
    except OSError as exc:
        print(f"cannot reach server at {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    with client:
        report = replay_scenario(
            client,
            scenario,
            limit=args.limit,
            skip=args.skip,
            shutdown=args.shutdown,
            progress=lambda n: print(f"  {n} events replayed", file=sys.stderr),
        )
    print(report.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


def _note_manifest(engine) -> None:
    """Tell the user (on stderr) where the telemetry manifest landed."""
    if engine.telemetry and engine.manifest_path is not None:
        print(f"telemetry manifest written to {engine.manifest_path}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:

    if args.command == "list":
        return _cmd_list()
    if args.command == "telemetry":
        from .experiments.telemetry_study import run_telemetry_study, telemetry_report

        args.telemetry = True  # the study is pointless without instrumentation
        engine = _engine_from_args(args)
        manifest = run_telemetry_study(
            scale=args.scale, num_runs=args.runs, seed=args.seed, engine=engine
        )
        print(telemetry_report(manifest))
        _note_manifest(engine)
        return 0
    if args.command == "metrics":
        from .experiments.telemetry_study import telemetry_report
        from .obs.manifest import ManifestError, load_manifest

        try:
            manifest = load_manifest(args.manifest_file)
        except (OSError, ValueError) as exc:  # ManifestError is a ValueError
            kind = "invalid" if isinstance(exc, ManifestError) else "unreadable"
            print(f"{kind} manifest {args.manifest_file}: {exc}", file=sys.stderr)
            return 1
        if args.prometheus:
            from .obs.registry import registry_from_snapshot

            print(registry_from_snapshot(manifest["metrics"]).to_prometheus(), end="")
        else:
            print(telemetry_report(manifest))
        return 0
    if args.command == "demo":
        outcomes = fig3_demo.run(seed=args.seed, use_sensor_pipeline=args.sensors)
        print(fig3_demo.report(outcomes))
        return 0
    if args.command == "latency":
        from .experiments.latency_study import latency_report, run_latency_study

        summaries = run_latency_study(scale=args.scale, num_runs=args.runs, seed=args.seed)
        print(latency_report(summaries))
        return 0
    if args.command == "robustness":
        from .experiments.robustness_study import (
            DEFAULT_INTENSITIES,
            robustness_report,
            run_robustness_study,
        )

        intensities = args.intensities if args.intensities else DEFAULT_INTENSITIES
        engine = _engine_from_args(args)
        outcome = run_robustness_study(
            scale=args.scale, num_runs=args.runs, seed=args.seed,
            intensities=intensities, engine=engine,
        )
        print(robustness_report(outcome))
        _note_manifest(engine)
        return 0
    if args.command == "centralized":
        from .experiments.centralized_study import run_centralized_study

        comparison = run_centralized_study(scale=args.scale, seed=args.seed)
        rows = [
            ["our-scheme (DTN)", f"{comparison.dtn_coverage.point:.1f}",
             f"{comparison.dtn_coverage.aspect_degrees:.0f}", str(comparison.dtn_delivered)],
            ["server, same bytes", f"{comparison.centralized_budgeted.point:.1f}",
             f"{comparison.centralized_budgeted.aspect_degrees:.0f}", "-"],
            ["server, unbounded", f"{comparison.centralized_unbounded.point:.1f}",
             f"{comparison.centralized_unbounded.aspect_degrees:.0f}", "-"],
        ]
        print(format_table(["selection world", "point", "aspect-deg", "delivered"], rows))
        print(
            f"\nDTN efficiency vs budget-matched server: "
            f"point {comparison.efficiency_point():.0%}, "
            f"aspect {comparison.efficiency_aspect():.0%} "
            f"({comparison.num_candidates} candidate photos)"
        )
        return 0
    if args.command == "weighted":
        from .experiments.weighted_study import run_weighted_study

        outcome = run_weighted_study(scale=args.scale, seed=args.seed, weight=args.weight)
        rows = [
            ["important point", f"{outcome.important_point_weighted:.2f}",
             f"{outcome.important_point_unweighted:.2f}"],
            ["important aspect (deg)", f"{outcome.important_aspect_weighted_deg:.0f}",
             f"{outcome.important_aspect_unweighted_deg:.0f}"],
            ["other point", f"{outcome.other_point_weighted:.2f}",
             f"{outcome.other_point_unweighted:.2f}"],
        ]
        print(format_table(["metric", "weights on", "weights off"], rows))
        print(f"\nprioritization gain on important PoIs: "
              f"{outcome.prioritization_gain():+.2f} point coverage "
              f"(weight {outcome.weight:g}, scarce uplink)")
        return 0
    if args.command == "dissemination":
        from .experiments.dissemination_study import run_dissemination_study

        outcome = run_dissemination_study(
            scale=args.scale, num_runs=args.runs, seed=args.seed
        )
        print("PoI-list arrival quantiles (hours):")
        for q, hours in outcome.arrival_quantiles_h.items():
            print(f"  {q:.0%} of nodes by {hours:.1f}h")
        print(f"informed fraction: {outcome.informed_fraction:.2f}")
        print("\npoint coverage with/without dissemination delay:")
        for name in outcome.with_delay:
            print(
                f"  {name:15s} {outcome.with_delay[name].point_coverage:.3f} / "
                f"{outcome.without_delay[name].point_coverage:.3f} "
                f"(cost {outcome.coverage_cost(name):.3f})"
            )
        return 0
    if args.command == "trace-stats":
        return _cmd_trace_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "ablation":
        return _cmd_ablation(args)

    if args.command == "fig5":
        engine = _engine_from_args(args)
        results = fig5.run(scale=args.scale, num_runs=args.runs, seed=args.seed,
                           engine=engine)
        print(fig5.report(results))
        if args.chart:
            from .experiments.asciiplot import line_chart

            series = {name: result.point_series for name, result in results.items()}
            print("\npoint coverage vs time:")
            print(line_chart(series))
        _note_manifest(engine)
    elif args.command == "fig6":
        engine = _engine_from_args(args)
        results = fig6.run(scale=args.scale, num_runs=args.runs, seed=args.seed,
                           engine=engine)
        print(fig6.report(results))
        if args.chart:
            from .experiments.asciiplot import line_chart

            series = {name: result.point_series for name, result in results.items()}
            print("\npoint coverage vs time:")
            print(line_chart(series))
        _note_manifest(engine)
    elif args.command == "fig7":
        engine = _engine_from_args(args)
        sweep = fig7.run(trace_name=args.trace, scale=args.scale,
                         num_runs=args.runs, seed=args.seed, engine=engine)
        print(fig7.report(sweep, trace_name=args.trace))
        _note_manifest(engine)
    elif args.command == "fig8":
        engine = _engine_from_args(args)
        sweep = fig8.run(trace_name=args.trace, scale=args.scale,
                         num_runs=args.runs, seed=args.seed, engine=engine)
        print(fig8.report(sweep, trace_name=args.trace))
        _note_manifest(engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())

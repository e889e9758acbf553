"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``        -- enumerate workloads, scenarios and schemes;
* ``simulate``    -- run one scenario under chosen schemes
  (``--json`` emits the machine-readable ``repro-sim/v1`` payload);
* ``experiment``  -- regenerate a paper table/figure by id;
* ``faults``      -- run the fault-injection campaign against the
  functional security engine (exits non-zero on any silent
  corruption);
* ``trace``       -- record a structured event trace of one scenario
  (plus a functional fault slice) and dump it as JSONL;
* ``profile``     -- wall-time-per-stage and cProfile view of the
  simulator itself;
* ``bench``       -- write (and optionally check) a
  ``BENCH_<date>.json`` simulator-performance snapshot;
* ``check``       -- differential-oracle correctness harness: replay
  seeded streams through the engine and the naive reference model,
  diff every observable (``--quick`` for CI, ``--deep`` nightly);
* ``chaos``       -- execution-chaos harness: inject worker crashes,
  hangs, lost results and checkpoint-store damage into supervised
  sweeps and campaigns, asserting payloads stay byte-identical to a
  clean run (``--mode daemon`` runs the daemon kill-restart story
  instead);
* ``gc``          -- prune old ``runs/<id>/`` directories and
  orphaned result-store blobs.

Fan-out commands (``simulate``, ``experiment``, ``report``, ``faults``)
accept the resilience flags ``--timeout``, ``--retries``, ``--run-id``,
``--resume`` and ``--runs-dir`` (see ``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import label
from repro.schemes.registry import SCHEME_NAMES
from repro.sim.parallel import default_jobs
from repro.sim.runner import run_scenario
from repro.sim.scenario import (
    REALWORLD_SCENARIOS,
    SELECTED_SCENARIOS,
    all_scenarios,
    make_scenario,
)
from repro.workloads.registry import WORKLOADS


def _jobs(args: argparse.Namespace) -> int:
    """Effective worker count: ``--jobs``, else REPRO_JOBS/CPU count."""
    return args.jobs if args.jobs is not None else default_jobs()


def _supervisor(args: argparse.Namespace):
    """Build the run's Supervisor from the resilience flags (or None).

    ``None`` leaves the ambient default in force: each fan-out runs
    under a fresh supervisor with the default policy and no
    checkpoint.  Any explicit
    flag -- ``--run-id``, ``--resume``, ``--timeout``, ``--retries`` --
    pins an explicit supervisor for the whole command; ``--run-id`` and
    ``--resume`` (the same thing) checkpoint every task in the result
    store under ``--runs-dir`` (see docs/resilience.md).
    """
    from repro.sim.resilient import ResiliencePolicy, Supervisor

    run_id = getattr(args, "resume", None) or getattr(args, "run_id", None)
    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", None)
    if run_id is None and timeout is None and retries is None:
        return None
    policy = ResiliencePolicy(
        timeout_seconds=timeout,
        max_retries=retries if retries is not None else 3,
    )
    return Supervisor(
        policy=policy,
        run_id=run_id,
        runs_dir=getattr(args, "runs_dir", None),
    )


def _supervised(args: argparse.Namespace):
    """Context manager activating this command's supervisor (if any)."""
    from repro.sim.resilient import supervision

    supervisor = _supervisor(args)
    if supervisor is not None and supervisor.checkpointing:
        print(
            f"[resilient] run {supervisor.run_id} "
            f"(store: {supervisor.store_dir()})",
            file=sys.stderr,
        )
    return supervision(supervisor)


def _engine_config(args: argparse.Namespace):
    """SoCConfig honoring the command's ``--engine`` flag (None = default)."""
    engine = getattr(args, "engine", "scalar")
    if engine == "scalar":
        return None
    from repro.common.config import SoCConfig

    return SoCConfig(sim_engine=engine)


def _find_scenario(name: str):
    for scenario in list(SELECTED_SCENARIOS) + list(REALWORLD_SCENARIOS):
        if scenario.name == name:
            return scenario
    for scenario in all_scenarios():
        if scenario.name == name:
            return scenario
    raise SystemExit(f"unknown scenario {name!r}; try `repro list scenarios`")


def cmd_list(args: argparse.Namespace) -> int:
    """List workloads, scenarios, schemes and/or experiments."""
    what = args.what
    if what in ("workloads", "all"):
        print("# workloads (Table 4)")
        for name, spec in sorted(WORKLOADS.items()):
            print(
                f"  {name:8s} {spec.kind.value:4s} "
                f"pattern={spec.pattern_label:5s} traffic={spec.traffic_label}"
            )
    if what in ("scenarios", "all"):
        print("# selected scenarios (Sec. 5.4)")
        for scenario in SELECTED_SCENARIOS:
            print(f"  {scenario.name:4s} {'+'.join(scenario.workload_names)}")
        print("# real-world pipelines (Sec. 5.5)")
        for scenario in REALWORLD_SCENARIOS:
            print(f"  {scenario.name:10s} {' -> '.join(scenario.workload_names)}")
        print(f"# full sweep: {len(all_scenarios())} scenarios (cpu+gpu+npu+npu)")
    if what in ("schemes", "all"):
        print("# schemes (Table 5)")
        for name in SCHEME_NAMES:
            print(f"  {name:28s} {label(name)}")
    if what in ("experiments", "all"):
        print("# experiments (paper artifacts)")
        for key, module in ALL_EXPERIMENTS.items():
            note = getattr(module, "PAPER_NOTE", "").split(";")[0]
            print(f"  {key:14s} {note}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate one scenario under the requested schemes."""
    if args.workloads:
        names = args.workloads.split("+")
        if len(names) != 4:
            raise SystemExit("--workloads needs cpu+gpu+npu+npu")
        scenario = make_scenario("custom", *names)
    else:
        scenario = _find_scenario(args.scenario)

    schemes = ["unsecure"] + [
        s for s in args.schemes.split(",") if s != "unsecure"
    ]
    with _supervised(args):
        runs = run_scenario(
            scenario, schemes, config=_engine_config(args),
            duration_cycles=args.duration, seed=args.seed,
            jobs=_jobs(args),
        )
    base = runs["unsecure"]
    if args.json:
        from repro.obs.bench import sim_payload

        payload = sim_payload(
            scenario, runs, args.duration, args.seed, baseline="unsecure"
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"scenario {scenario.name}: {'+'.join(scenario.workload_names)}")
    print(f"{'scheme':28s} {'norm exec':>9s} {'traffic MB':>10s} {'misses':>8s}")
    for name in schemes:
        run = runs[name]
        print(
            f"{label(name):28s} "
            f"{run.mean_normalized_exec_time(base):9.3f} "
            f"{run.total_traffic_bytes / 1e6:10.2f} "
            f"{run.security_cache_misses:8d}"
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one paper artifact and print its table."""
    try:
        module = ALL_EXPERIMENTS[args.id]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {args.id!r}; known: {sorted(ALL_EXPERIMENTS)}"
        )
    from repro.experiments.report import PARALLEL_EXPERIMENTS

    kwargs = {}
    if args.duration is not None:
        kwargs["duration_cycles"] = args.duration
    if args.sample is not None and args.id in (
        "fig15", "fig16", "fig17", "fig18",
    ):
        kwargs["sample"] = args.sample
    if args.id in PARALLEL_EXPERIMENTS:
        kwargs["jobs"] = _jobs(args)
    with _supervised(args):
        result = module.run(**kwargs)
    if isinstance(result, dict):  # fig19 panels
        for panel in result.values():
            print(panel.format_table())
            print()
    else:
        print(result.format_table())
    if args.plot and args.id in ("fig15", "fig17"):
        from repro.experiments import sweep
        from repro.experiments.common import default_sweep_sample
        from repro.experiments.plotting import ascii_cdf

        schemes = module.SCHEMES
        results = sweep.sweep_results(
            kwargs.get("sample") or default_sweep_sample(),
            kwargs.get("duration_cycles"),
        )
        series = {
            name: sweep.normalized_exec_times(results, name)
            for name in schemes
        }
        print()
        print(ascii_cdf(series))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every artifact into one markdown report."""
    from repro.experiments.report import generate_report

    def progress(key: str) -> None:
        print(f"[report] running {key} ...", file=sys.stderr)

    with _supervised(args):
        report = generate_report(
            duration_cycles=args.duration,
            sample=args.sample,
            seed=args.seed,
            progress=progress,
            jobs=_jobs(args),
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection campaign; fail on silent corruption."""
    from repro.faults.campaign import CampaignConfig, run_campaign
    from repro.secure_memory.failure import FAILURE_MODES

    config = CampaignConfig(
        seed=args.seed,
        trials=1 if args.smoke else args.trials,
        attacks=tuple(args.attacks.split(",")) if args.attacks else (),
        policies=tuple(args.policies.split(",")),
        failure_modes=(
            tuple(args.modes.split(",")) if args.modes else FAILURE_MODES
        ),
    )
    with _supervised(args):
        result = run_campaign(config, jobs=_jobs(args))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    print(result.format_table())
    if not result.clean:
        for cell in result.fatal_cells():
            print(
                f"FATAL: {cell.attack} policy={cell.policy} "
                f"mode={cell.failure_mode} granularity={cell.granularity}: "
                f"{'; '.join(cell.details)}",
                file=sys.stderr,
            )
        for cell in result.error_cells():
            print(
                f"ERROR: {cell.attack} policy={cell.policy} "
                f"mode={cell.failure_mode} granularity={cell.granularity}: "
                f"{cell.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Execution-chaos harness: fail unless payloads stay byte-identical."""
    from repro.faults.exec_chaos import run_chaos

    if args.mode == "daemon":
        from repro.service.chaos import run_daemon_chaos

        report = run_daemon_chaos(
            tenants=args.tenants,
            duration=args.duration,
            seed=args.seed,
            engines=args.engines,
            kills=args.kills,
            progress=lambda line: print(line, file=sys.stderr),
        )
        print(report.format())
        return 0 if report.passed else 1

    report = run_chaos(
        sample=args.sample,
        duration=args.duration,
        seed=args.seed,
        crash_rate=args.crash_rate,
        lost_rate=args.lost_rate,
        timeout=args.timeout,
        schemes=args.schemes.split(","),
        jobs=_jobs(args),
        runs_dir=args.runs_dir,
        skip_sweep=args.skip_sweep,
        skip_campaign=args.skip_campaign,
        echo=lambda line: print(line, file=sys.stderr),
    )
    print(report.format())
    return 0 if report.passed else 1


def cmd_gc(args: argparse.Namespace) -> int:
    """Prune old run directories and orphaned result-store blobs."""
    from repro.sim.resilient import default_runs_dir
    from repro.sim.store_gc import collect_garbage

    runs_dir = args.runs_dir if args.runs_dir else default_runs_dir()
    report = collect_garbage(
        runs_dir,
        keep=args.keep,
        store_max_age_seconds=args.store_max_age,
        dry_run=args.dry_run,
    )
    print(report.format())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a structured event trace of one scenario run."""
    from repro.obs import ObsContext
    from repro.obs.export import summary_report, write_trace_jsonl
    from repro.obs.timeline import build_timeline, format_timeline

    scenario = _find_scenario(args.scenario)
    obs = ObsContext.enabled(capacity=args.capacity)
    runs = run_scenario(
        scenario,
        [args.scheme],
        duration_cycles=args.duration,
        seed=args.seed,
        obs_factory=lambda: obs,
    )
    run = runs[args.scheme]
    if not args.no_faults:
        # The timing layer never corrupts anything; a small functional
        # fault slice adds quarantine/heal/overflow events to the trace.
        from repro.faults.campaign import traced_fault_slice

        traced_fault_slice(obs, seed=args.seed)

    events = list(obs.tracer.events())
    out = args.output or f"trace_{scenario.name}_{args.scheme}.jsonl"
    count = write_trace_jsonl(
        events,
        out,
        extra={
            "scenario": scenario.name,
            "scheme": args.scheme,
            "seed": args.seed,
            "duration_cycles": args.duration,
            "dropped": obs.tracer.dropped,
        },
    )
    print(
        summary_report(
            obs.registry,
            tracer=obs.tracer,
            title=f"trace {scenario.name}/{args.scheme}",
        )
    )
    if args.timeline:
        print()
        print(format_timeline(build_timeline(run.trace, buckets=args.buckets)))
    print(f"\nwrote {count} events to {out} (dropped {obs.tracer.dropped})")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the simulator itself over one scenario."""
    from repro.obs.profiler import (
        format_stage_report,
        profile_scenario,
        profile_with_cprofile,
    )

    scenario = _find_scenario(args.scenario)
    schemes = args.schemes.split(",")
    config = _engine_config(args)
    if args.no_cprofile:
        _, registry = profile_scenario(
            scenario, schemes, args.duration, args.seed, config
        )
        table = None
    else:
        _, registry, table = profile_with_cprofile(
            scenario, schemes, args.duration, args.seed, config, top=args.top
        )
    print(f"# stage wall time: {scenario.name} ({', '.join(schemes)})")
    print(format_stage_report(registry))
    if table is not None:
        print()
        print(table)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Write (and optionally regression-check) a bench snapshot."""
    from repro.obs import bench

    scenario = _find_scenario(args.scenario)
    schemes = args.schemes.split(",")
    tiers = ("scalar", "fast") if args.engine == "both" else (args.engine,)
    wall_by_engine: dict = {}
    sweep_by_engine: dict = {}
    runs = None
    for tier in tiers:
        tier_runs, wall_by_engine[tier] = bench.measure(
            scenario,
            schemes,
            duration_cycles=args.duration,
            seed=args.seed,
            repeat=args.repeat,
            engine=tier,
        )
        if runs is None:
            runs = tier_runs  # both tiers are bit-identical
        if not args.no_sweep:
            sweep_by_engine[tier] = bench.measure_sweep(
                sample=args.sweep_sample or bench.SWEEP_SAMPLE,
                duration_cycles=args.sweep_duration or bench.SWEEP_DURATION,
                seed=args.seed,
                jobs=_jobs(args),
                repeat=args.sweep_repeat,
                engine=tier,
            )
    sim = bench.sim_payload(scenario, runs, args.duration, args.seed)
    wall = wall_by_engine[tiers[0]]
    sweep = sweep_by_engine.get(tiers[0])
    engines = (
        bench.engines_comparison(wall_by_engine, sweep_by_engine or None)
        if args.engine == "both"
        else None
    )
    snapshot = bench.make_snapshot(
        sim, wall, args.repeat, sweep=sweep, engine=args.engine,
        engines=engines,
    )
    path = bench.snapshot_path(
        args.output, engine=args.engine if args.engine != "both" else None
    )
    bench.write_snapshot(snapshot, path)
    for tier in tiers:
        tier_wall = wall_by_engine[tier]
        for scheme in schemes:
            timing = tier_wall[scheme]
            print(
                f"{scheme:22s} [{tier}] min {timing['min']:.4f}s "
                f"mean {timing['mean']:.4f}s over {args.repeat} runs"
            )
        tier_sweep = sweep_by_engine.get(tier)
        if tier_sweep is not None:
            print(
                f"{'sweep':22s} [{tier}] min "
                f"{tier_sweep['wall_seconds']['min']:.4f}s "
                f"({tier_sweep['scenarios']} scenarios x "
                f"{len(tier_sweep['schemes'])} schemes, "
                f"jobs={tier_sweep['jobs']})"
            )
    if engines is not None and "speedup" in engines:
        pairs = ", ".join(
            f"{k} {v:.2f}x" for k, v in engines["speedup"].items()
        )
        print(f"{'speedup (scalar/fast)':22s} {pairs}")
    print(f"wrote {path}")
    if args.check:
        baseline = bench.load_snapshot(args.check)
        regressions = bench.compare_snapshots(
            baseline, snapshot, tolerance=args.tolerance
        )
        if regressions:
            for line in regressions:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print(
            f"no wall-time regressions vs {args.check} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the differential-oracle correctness tiers."""
    import contextlib

    from repro.check import runner as check_runner

    tier = "deep" if args.deep else "quick"
    bug = (
        check_runner.inject_layout_bug()
        if args.inject_layout_bug
        else contextlib.nullcontext()
    )
    with bug:
        report = check_runner.run_check(
            tier,
            seed=args.seed,
            golden_dir=args.golden,
            echo=print,
            engine=args.engine,
        )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant daemon, or its in-process load selftest."""
    import asyncio
    import json
    import signal

    from repro.service.daemon import ServiceDaemon
    from repro.service.load import run_selftest

    secret = bytes.fromhex(args.service_secret) if args.service_secret else None

    if args.selftest:
        report = run_selftest(
            tenants=args.tenants,
            connections=args.connections,
            engines=args.engines,
            duration=args.duration,
            socket_path=args.socket,
            progress=lambda line: print(f"  {line}", flush=True),
        )
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"load report -> {args.output}")
        print(
            f"selftest: {report['sessions_completed']}/{report['tenants']} "
            f"sessions, {report['requests_served']} requests, engines "
            f"{report['engines']}, parity {report['parity_checked']} "
            f"checked in {report['drive_seconds']:.2f}s"
        )
        for line in report["failures"][:20]:
            print(f"FAIL {line}", file=sys.stderr)
        return 0 if report["ok"] else 1

    if (args.socket is None) == (args.port is None):
        print("error: exactly one of --socket / --port", file=sys.stderr)
        return 2

    async def serve() -> None:
        daemon = ServiceDaemon(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            service_secret=secret,
            state_dir=args.state_dir,
            max_tenants=args.max_tenants,
            max_inflight=args.max_inflight,
            max_step_bytes=args.max_step_bytes,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await daemon.start()
        where = args.socket or f"{args.host}:{daemon.port}"
        print(f"repro daemon listening on {where}", flush=True)
        try:
            await stop.wait()
        finally:
            # SIGTERM is a graceful drain: stop accepting, park every
            # fsync'd tenant journal, then exit 0.
            drained = await daemon.close()
            if args.state_dir:
                print(
                    f"repro daemon drained {drained} tenant journals",
                    flush=True,
                )
            print("repro daemon shut down cleanly", flush=True)

    asyncio.run(serve())
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """One-shot client verbs against a running daemon."""
    import json

    from repro.service.client import ServiceClient, ServiceError

    secret = args.secret.encode() if args.secret else b""
    try:
        with ServiceClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            if args.verb == "ping":
                body = client.ping()
            elif args.verb == "stats":
                body = client.stats()
            elif args.verb == "open":
                body = client.open(
                    args.tenant,
                    secret,
                    scenario=args.scenario,
                    scheme=args.scheme,
                    engine=args.engine,
                    duration=args.duration,
                    seed=args.seed,
                    data_bytes=args.data_bytes,
                )
            elif args.verb == "step":
                body = client.step(args.tenant, secret, requests=args.count)
            elif args.verb == "put":
                body = client.put(
                    args.tenant, secret, args.addr,
                    bytes.fromhex(args.data),
                )
            elif args.verb == "get":
                data = client.get(
                    args.tenant, secret, args.addr, args.size
                )
                body = {"addr": args.addr, "data_hex": data.hex()}
            elif args.verb == "snapshot":
                body = client.snapshot(args.tenant, secret)
            elif args.verb == "report":
                body = client.report(args.tenant, secret)
            else:  # close
                body = client.close(args.tenant, secret)
    except ServiceError as exc:
        print(
            json.dumps({"error": {"code": exc.code, "message": exc.message}})
        )
        return 1
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(body, indent=None if args.compact else 1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Unified multi-granular MAC & integrity-tree memory protection "
            "(ISCA'25 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flag(
        p: argparse.ArgumentParser, both: bool = False
    ) -> None:
        choices = ["scalar", "fast"] + (["both"] if both else [])
        p.add_argument(
            "--engine", choices=choices, default="scalar",
            help="simulation tier: scalar (pure stdlib, default) or fast "
            "(vectorized batch engine, needs numpy; bit-identical results)"
            + (", or both (side-by-side timing)" if both else ""),
        )

    def add_jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help=(
                "worker processes for independent simulations "
                "(default: REPRO_JOBS or the CPU count; 1 = serial)"
            ),
        )

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group(
            "resilience", "supervised execution (see docs/resilience.md)"
        )
        group.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-task wall-clock timeout (hung workers are killed "
            "and the task retried)",
        )
        group.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="max retries of transient worker failures per task "
            "(default 3)",
        )
        group.add_argument(
            "--run-id", default=None, metavar="ID",
            help="name this run and checkpoint every completed task in "
            "the result store under <runs-dir>/store; tasks already "
            "there are reused, not re-executed",
        )
        group.add_argument(
            "--resume", default=None, metavar="ID",
            help="same as --run-id ID: reuse every stored task and run "
            "the rest (output stays byte-identical to an uninterrupted "
            "run)",
        )
        group.add_argument(
            "--runs-dir", default=None, metavar="DIR",
            help="checkpoint root (default: REPRO_RUNS_DIR or ./runs)",
        )

    p_list = sub.add_parser("list", help="enumerate library contents")
    p_list.add_argument(
        "what",
        choices=["workloads", "scenarios", "schemes", "experiments", "all"],
        nargs="?",
        default="all",
    )
    p_list.set_defaults(func=cmd_list)

    p_sim = sub.add_parser("simulate", help="simulate one scenario")
    p_sim.add_argument("--scenario", default="cc1")
    p_sim.add_argument(
        "--workloads", default=None, help="custom cpu+gpu+npu+npu combo"
    )
    p_sim.add_argument(
        "--schemes", default="conventional,ours,bmf_unused_ours"
    )
    p_sim.add_argument("--duration", type=float, default=20_000.0)
    p_sim.add_argument("--seed", type=int, default=0)
    add_engine_flag(p_sim)
    p_sim.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-sim/v1 JSON payload instead of a table",
    )
    add_jobs_flag(p_sim)
    add_resilience_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("id", help="fig04..fig21, tab02, tab04, tab_hw, ...")
    p_exp.add_argument("--duration", type=float, default=None)
    p_exp.add_argument("--sample", type=int, default=None)
    p_exp.add_argument(
        "--plot", action="store_true", help="ASCII CDF plot (fig15/fig17)"
    )
    add_jobs_flag(p_exp)
    add_resilience_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_rep = sub.add_parser("report", help="regenerate all artifacts")
    p_rep.add_argument("-o", "--output", default=None)
    p_rep.add_argument("--duration", type=float, default=None)
    p_rep.add_argument("--sample", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=0)
    add_jobs_flag(p_rep)
    add_resilience_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_flt = sub.add_parser(
        "faults", help="fault-injection campaign on the security engine"
    )
    p_flt.add_argument(
        "--smoke", action="store_true", help="1 trial per cell (CI gate)"
    )
    p_flt.add_argument("--seed", type=int, default=0)
    p_flt.add_argument("--trials", type=int, default=3)
    p_flt.add_argument(
        "--attacks", default=None, help="comma-separated subset of the catalog"
    )
    p_flt.add_argument("--policies", default="fixed,multigranular")
    p_flt.add_argument(
        "--modes", default=None, help="failure modes (default: all three)"
    )
    p_flt.add_argument("--json", default=None, help="also write JSON results")
    add_jobs_flag(p_flt)
    add_resilience_flags(p_flt)
    p_flt.set_defaults(func=cmd_faults)

    p_cha = sub.add_parser(
        "chaos",
        help="execution-chaos harness: crash/hang/lose workers, damage "
        "checkpoint blobs, assert byte-identical payloads",
    )
    p_cha.add_argument(
        "--mode", choices=["exec", "daemon"], default="exec",
        help="exec: pool-executor chaos story (default); "
        "daemon: SIGKILL the service daemon mid-fleet, restart from "
        "--state-dir, assert byte-identical tenant digests",
    )
    p_cha.add_argument(
        "--tenants", type=int, default=6,
        help="daemon mode: concurrent tenant sessions (default 6)",
    )
    p_cha.add_argument(
        "--engines", choices=["scalar", "fast", "mixed"], default="mixed",
        help="daemon mode: engine tier per tenant (default mixed; "
        "degrades to scalar without numpy)",
    )
    p_cha.add_argument(
        "--kills", type=int, default=2,
        help="daemon mode: seeded SIGKILL+restart cycles (default 2)",
    )
    p_cha.add_argument(
        "--sample", type=int, default=6,
        help="sweep scenarios to subject to chaos (default 6)",
    )
    p_cha.add_argument("--duration", type=float, default=800.0)
    p_cha.add_argument("--seed", type=int, default=0)
    p_cha.add_argument(
        "--crash-rate", type=float, default=0.2,
        help="seeded probability a worker hard-exits per task attempt",
    )
    p_cha.add_argument(
        "--lost-rate", type=float, default=0.0,
        help="seeded probability a computed result is dropped",
    )
    p_cha.add_argument(
        "--timeout", type=float, default=15.0,
        help="supervision timeout the injected hang must trip",
    )
    p_cha.add_argument("--schemes", default="conventional,ours")
    p_cha.add_argument(
        "--runs-dir", default=None,
        help="checkpoint root for the kill+resume and store sections "
        "(default: a temp dir, removed afterwards)",
    )
    p_cha.add_argument("--skip-sweep", action="store_true")
    p_cha.add_argument("--skip-campaign", action="store_true")
    add_jobs_flag(p_cha)
    p_cha.set_defaults(func=cmd_chaos)

    p_gc = sub.add_parser(
        "gc",
        help="prune old runs/<id>/ directories and orphaned "
        "result-store blobs",
    )
    p_gc.add_argument("--runs-dir", default=None, metavar="DIR")
    p_gc.add_argument(
        "--keep", type=int, default=5, metavar="N",
        help="newest run directories to keep (default 5)",
    )
    p_gc.add_argument(
        "--store-max-age", type=float, default=None, metavar="SECONDS",
        help="prune store blobs not reused for this long (default: "
        "older than the oldest kept run)",
    )
    p_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting",
    )
    p_gc.set_defaults(func=cmd_gc)

    p_trc = sub.add_parser(
        "trace", help="record a structured event trace (JSONL)"
    )
    p_trc.add_argument("scenario", nargs="?", default="cc1")
    p_trc.add_argument("--scheme", default="ours")
    p_trc.add_argument("--duration", type=float, default=5_000.0)
    p_trc.add_argument("--seed", type=int, default=0)
    p_trc.add_argument(
        "--capacity", type=int, default=1 << 18, help="trace ring size"
    )
    p_trc.add_argument("-o", "--output", default=None, help="JSONL path")
    p_trc.add_argument(
        "--timeline", action="store_true", help="print a cycle-bucket timeline"
    )
    p_trc.add_argument("--buckets", type=int, default=24)
    p_trc.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the functional fault slice (timing events only)",
    )
    p_trc.set_defaults(func=cmd_trace)

    p_prf = sub.add_parser(
        "profile", help="profile the simulator (stages + cProfile)"
    )
    p_prf.add_argument("scenario", nargs="?", default="cc1")
    p_prf.add_argument("--schemes", default="conventional,ours")
    p_prf.add_argument("--duration", type=float, default=5_000.0)
    p_prf.add_argument("--seed", type=int, default=0)
    p_prf.add_argument("--top", type=int, default=20)
    p_prf.add_argument(
        "--no-cprofile",
        action="store_true",
        help="stage timers only (cProfile skews absolute times)",
    )
    add_engine_flag(p_prf)
    p_prf.set_defaults(func=cmd_profile)

    p_bch = sub.add_parser(
        "bench", help="write a BENCH_<date>.json performance snapshot"
    )
    p_bch.add_argument("scenario", nargs="?", default="cc1")
    p_bch.add_argument("--schemes", default="unsecure,conventional,ours")
    p_bch.add_argument("--duration", type=float, default=1_500.0)
    p_bch.add_argument("--seed", type=int, default=0)
    p_bch.add_argument("--repeat", type=int, default=3)
    p_bch.add_argument(
        "-o", "--output", default=None,
        help="snapshot path or directory (default BENCH_<date>.json)",
    )
    p_bch.add_argument(
        "--check", default=None,
        help="baseline snapshot to compare against (non-zero on regression)",
    )
    p_bch.add_argument("--tolerance", type=float, default=0.05)
    p_bch.add_argument(
        "--no-sweep", action="store_true",
        help="skip the sweep-timing section of the snapshot",
    )
    p_bch.add_argument("--sweep-sample", type=int, default=None)
    p_bch.add_argument("--sweep-duration", type=float, default=None)
    p_bch.add_argument(
        "--sweep-repeat", type=int, default=1,
        help="sweep timing repetitions (min-of-N; CI's fast-engine "
        "speedup gate uses 3 to beat runner noise)",
    )
    add_engine_flag(p_bch, both=True)
    add_jobs_flag(p_bch)
    p_bch.set_defaults(func=cmd_bench)

    p_chk = sub.add_parser(
        "check",
        help="differential-oracle correctness harness (engine vs naive "
        "reference model)",
    )
    tier = p_chk.add_mutually_exclusive_group()
    tier.add_argument(
        "--quick", action="store_true",
        help="CI tier: seeded streams + metamorphic + golden (default)",
    )
    tier.add_argument(
        "--deep", action="store_true",
        help="nightly tier: longer streams, more geometries, timing "
        "and determinism sections",
    )
    p_chk.add_argument(
        "--seed", type=int, default=0,
        help="extra seed folded into every stream (non-zero skips the "
        "golden-corpus section, which pins seed 0)",
    )
    p_chk.add_argument(
        "--golden", default="tests/golden",
        help="golden corpus directory (default tests/golden)",
    )
    p_chk.add_argument(
        "--inject-layout-bug", action="store_true",
        help="deliberately off-by-one the compacted-MAC offset; the "
        "check must FAIL (CI uses this to prove the harness bites)",
    )
    add_engine_flag(p_chk)
    p_chk.set_defaults(func=cmd_check)

    p_srv = sub.add_parser(
        "serve",
        help="multi-tenant secure-memory daemon (repro-wire/v1; see "
        "docs/daemon.md)",
    )
    p_srv.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a Unix socket at PATH",
    )
    p_srv.add_argument(
        "--port", type=int, default=None,
        help="listen on a TCP port (0 picks a free one)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1)",
    )
    p_srv.add_argument(
        "--service-secret", default=None, metavar="HEX",
        help="hex seed of the report-signing key (default: ephemeral "
        "random key)",
    )
    p_srv.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist tenants as fsync'd repro-tenant/v1 journals under "
        "DIR; a restarted daemon rehydrates them on open (crash-safe)",
    )
    p_srv.add_argument(
        "--max-tenants", type=int, default=None, metavar="N",
        help="admission control: shed opens beyond N live tenants",
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission control: shed requests beyond N in flight",
    )
    p_srv.add_argument(
        "--max-step-bytes", type=int, default=None, metavar="BYTES",
        help="admission control: shed step windows whose observable "
        "payload would exceed BYTES (~64 bytes/row)",
    )
    p_srv.add_argument(
        "--selftest", action="store_true",
        help="in-process load driver: boot a daemon, drive --tenants "
        "concurrent sessions, assert per-session byte-parity vs "
        "in-process runs, exit non-zero on any divergence",
    )
    p_srv.add_argument(
        "--tenants", type=int, default=64,
        help="selftest: concurrent tenant sessions (default 64)",
    )
    p_srv.add_argument(
        "--connections", type=int, default=8,
        help="selftest: multiplexed client connections (default 8)",
    )
    p_srv.add_argument(
        "--engines", choices=["scalar", "fast", "mixed"], default="mixed",
        help="selftest: engine tier per tenant (mixed alternates; "
        "degrades to scalar without numpy)",
    )
    p_srv.add_argument(
        "--duration", type=float, default=400.0,
        help="selftest: per-tenant trace duration in cycles (default 400)",
    )
    p_srv.add_argument(
        "-o", "--output", default=None,
        help="selftest: write the repro-load/v1 report JSON here",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_cli = sub.add_parser(
        "client",
        help="one-shot client verbs against a running daemon",
    )
    p_cli.add_argument(
        "verb",
        choices=["ping", "stats", "open", "step", "put", "get", "snapshot",
                 "report", "close"],
    )
    p_cli.add_argument("--socket", default=None, metavar="PATH")
    p_cli.add_argument("--port", type=int, default=None)
    p_cli.add_argument("--host", default="127.0.0.1")
    p_cli.add_argument(
        "--tenant", default="cli", help="tenant name (default cli)"
    )
    p_cli.add_argument(
        "--secret", default="", help="tenant secret (authenticates verbs)"
    )
    p_cli.add_argument(
        "--scenario", default="cc1", help="open: scenario name"
    )
    p_cli.add_argument("--scheme", default="ours", help="open: scheme name")
    add_engine_flag(p_cli)
    p_cli.add_argument(
        "--duration", type=float, default=2000.0,
        help="open: trace duration in cycles",
    )
    p_cli.add_argument("--seed", type=int, default=0, help="open: trace seed")
    p_cli.add_argument(
        "--data-bytes", type=int, default=0,
        help="open: size of the functional data shard (0 = none)",
    )
    p_cli.add_argument(
        "--count", type=int, default=None,
        help="step: request window size (default: drain the session)",
    )
    p_cli.add_argument(
        "--addr", type=int, default=0, help="put/get: byte address"
    )
    p_cli.add_argument(
        "--data", default="", help="put: payload as hex (64B-line multiple)"
    )
    p_cli.add_argument(
        "--size", type=int, default=64, help="get: bytes to read"
    )
    p_cli.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )
    p_cli.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

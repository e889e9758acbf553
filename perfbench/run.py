"""Benchmark entry point: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 35 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Earlier lines give the platform, the
simulated-result digests, the tail percentile and its position count,
the daemon latencies over every client-observed sample, and (traced)
the reconciliation of layer self times against the end-to-end time
and the workload split.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Workload -> (simulated scenario, data-plane ops, daemon loop).
WORKLOADS = {
    "stream": ("cc1", "stream", "closed"),
    "scatter": ("ff1", "scatter", "closed"),
    "mixed": ("c1", "mixed", "mixed"),
}
#: Requests per simulated trace set (one device-mix replay, before the
#: warm-up pass doubles it).
SIM_REQUESTS = 2500
#: Least measured rounds: every simulator trace set and daemon group
#: repeats several times, whatever the host's speed.
LEAST_ROUNDS = 12
#: The workload split a traced run confirms: (figure, comparison,
#: threshold, counted).  A counted comparison that fails is a failed
#: operation.  The coarse share is only reported: it is a property of
#: the seed's traces, and over 20 seeds ``ff1`` reaches 0.27-0.30 and
#: ``cc1`` falls to 0.43 at this trace size (perfbench/README.md).
SPLIT = {
    "stream": (("core.coarse_share", ">", 0.5, False),
               ("crypto.macs_per_line_read", ">=", 64, True)),
    "scatter": (("core.coarse_share", "<", 0.25, False),
                ("crypto.macs_per_line_read", "==", 1, True)),
}
COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "==": operator.eq}
#: Host seconds one round takes, about, when traced; a traced run
#: measures ``--seconds`` / this many rounds in each pass, and at least
#: one per simulator trace set.
TRACED_ROUND_SECONDS = 6.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def platform_info() -> Dict[str, object]:
    from repro.engine_fast import fast_engine_available, numpy_version

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version(),
        "cpu_count": os.cpu_count(),
        "fast_engine": fast_engine_available(),
        "machine": platform.machine(),
    }


#: The CPU this process and the daemon are pinned to, then a spare one
#: that neither uses (absent on a one-CPU machine).
CPUS: List[int] = []
#: Host seconds :func:`reference_loop` takes on the reference machine
#: (2 vCPUs of a shared Xeon host, CPython 3.11) when no other tenant
#: slows it.
REFERENCE_S = 0.003


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop: the machine's speed now."""
    t = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - t


def spare_reference() -> float:
    """Fastest of three :func:`reference_loop` runs on the spare CPU.

    Neither this process's other threads nor the daemon run there, so
    CPU time the program burns outside its timed calls cannot slow it.
    """
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CPUS[1]})
    try:
        return min(reference_loop() for _ in range(3))
    finally:
        os.sched_setaffinity(0, own)


def at_reference_speed(values: Dict[str, float], reference: float) -> Dict[str, float]:
    """Express host-time metrics at the reference machine's speed.

    Other tenants of a shared host slow every virtual CPU of this
    machine for minutes at a time, by up to a third, and such a phase
    slows a whole run: even the fastest repetition of identical work.
    Each timing is scaled by ``REFERENCE_S`` over the run's fastest
    :func:`spare_reference`, which the same phase slows too.  Memory is
    not scaled; the raw figures are printed beside the result.
    """
    from perfbench.metrics import END_TO_END

    factor = reference / REFERENCE_S
    out = {}
    for name, _unit, better in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = values[name]
        elif better == "higher":
            out[name] = values[name] * factor
        else:
            out[name] = values[name] / factor
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for daemon, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Pass:
    """One daemon plus the three planes of one workload."""

    def __init__(self, args, workdir: Path, setup, tally, traced: bool, tag: str):
        from perfbench.daemon_phase import Daemon
        from perfbench.data_phase import DataPhase
        from perfbench.sim_phase import SimPhase
        from repro.engine_fast import fast_engine_available

        scenario, data, loop = WORKLOADS[args.workload]
        self.kind = loop
        #: Fastest :func:`spare_reference` of the run (none on one CPU).
        self.reference: Optional[float] = None
        self.sim = SimPhase(scenario, args.seed, SIM_REQUESTS, setup, tally,
                            fast_engine_available())
        self.data = DataPhase(data, args.seed, setup, tally)
        self.daemon = Daemon(ROOT, workdir, traced)
        self.daemon.start()
        try:
            self.loop = self._loop(args, loop, setup, tally, tag)
        except BaseException:
            self.daemon.kill()
            raise

    def _loop(self, args, loop, setup, tally, tag):
        """The daemon loop, its sessions sized to a request count.

        Like the simulator's trace sets, so that one round's work does
        not hang on the seed.
        """
        from perfbench.daemon_phase import ClosedLoop, MixedLoop
        from perfbench.sim_phase import sized_duration
        from repro.sim.scenario import selected_scenario

        def sized(session: str, requests: int, groups: int) -> List[float]:
            scenario = selected_scenario(session)
            return [sized_duration(scenario, args.seed * 16 + g, requests)
                    for g in range(groups)]

        if loop == "closed":
            session = "cc1" if args.workload == "stream" else "ff1"
            requests = ClosedLoop.WINDOWS[args.workload] * ClosedLoop.WINDOW
            return ClosedLoop(self.daemon, args.workload, args.seed, setup, tally,
                              tag, sized(session, requests, ClosedLoop.GROUPS))
        return MixedLoop(
            self.daemon, args.seed, setup, tally, tag,
            sized("cc1", MixedLoop.BULK_REQUESTS, MixedLoop.GROUPS),
            sized("ff1", MixedLoop.SMALL_STEPS * MixedLoop.WINDOW, MixedLoop.GROUPS),
        )

    def round(self, index: int, measure: bool, rec=None) -> None:
        if len(CPUS) > 1:
            fastest = spare_reference()
            self.reference = min(fastest, self.reference or fastest)
        self.loop.requests.measuring = measure
        self.sim.round(index, measure, rec)
        self.data.round(index, measure, rec)
        self.loop.round(index, measure)

    def close(self, tally) -> Dict:
        try:
            self.loop.finish()
        finally:
            summary = self.daemon.stop(tally)
        self.loop.verify_replays()
        return summary or {}


def run_rounds(step: Callable[[int, bool], None], seconds: float) -> int:
    """Discard a warm-up round, then measure rounds until time is up."""
    step(0, False)
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        step(index, True)
        if index >= LEAST_ROUNDS and time.perf_counter() >= deadline:
            return index
        index += 1


def measured_run(args, workdir: Path) -> Dict:
    from perfbench.metrics import END_TO_END, SetupLog, Tally, result_line

    setup, tally = SetupLog(), Tally()
    run = Pass(args, workdir / "run", setup, tally, traced=False, tag="m")
    try:
        rounds = run_rounds(run.round, args.seconds)
    finally:
        run.close(tally)
    values: Dict[str, float] = {}
    values.update(run.sim.metrics())
    values.update(run.data.metrics())
    values.update(run.loop.metrics())
    values["setup_s"] = setup.seconds()
    values["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "raw_metrics": values,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "platform": platform_info(),
        "step_tail": run.loop.tail_info,
        "client_latency_ms": run.loop.raw(),
        "daemon_start_s": run.daemon.start_s,
        "reference_loop_ms": run.reference * 1e3 if run.reference else None,
        "sim_digests": run.sim.scheme_digests(),
        "failures": tally.messages,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    speed = run.reference or REFERENCE_S
    return result_line(tally, at_reference_speed(values, speed), END_TO_END)


def traced_run(args, workdir: Path) -> Dict:
    from perfbench import tracing
    from perfbench.metrics import PER_LAYER, SetupLog, Tally, result_line
    from perfbench.sim_phase import TRACE_SETS
    from repro.core import addressing

    setup, tally = SetupLog(), Tally()
    rounds = max(TRACE_SETS, int(args.seconds / TRACED_ROUND_SECONDS))

    plain = Pass(args, workdir / "plain", setup, tally, traced=False, tag="u")
    try:
        for index in range(rounds + 1):
            plain.round(index, index > 0)
    finally:
        plain.close(tally)

    rec = tracing.Recorder()
    rec.calibration.update(tracing.calibrate())
    traced = Pass(args, workdir / "traced", setup, tally, traced=True, tag="t")
    try:
        traced.round(0, False)
        addressing.clear_layout_cache()
        rec.install()
        try:
            for index in range(1, rounds + 1):
                traced.round(index, True, rec)
        finally:
            rec.uninstall()
        layout = addressing.layout_cache_stats()
    finally:
        daemon_summary = traced.close(tally)
    mg_reads = {
        i for i, (plane, label) in enumerate(rec.ops)
        if plane == "functional" and label == "multigranular|get"
    }
    mac_id = rec.name_id("crypto.compute_mac")
    macs = sum(
        1 for name, op in zip(rec.name, rec.span_op)
        if name == mac_id and op in mg_reads
    )
    # Scale the calibrated wrapper costs of each in-process plane to
    # the overhead measured against the untraced pass of the same work.
    estimated = tracing.compensation(rec)
    scale = {
        plane: max(0.0, traced_s - untraced_s) / estimated[plane]
        for plane, untraced_s, traced_s in (
            ("sim", plain.sim.seconds, traced.sim.seconds),
            ("functional", plain.data.seconds, traced.data.seconds),
        )
        if estimated.get(plane)
    }
    summary = tracing.summarize(rec, scale=scale)

    layers: Dict[str, List[float]] = {}
    tracing.merge(layers, summary["layers"])
    tracing.merge(layers, daemon_summary.get("layers", {}))

    def layer(name: str) -> List[float]:
        return layers.get(name, [0, 0.0])

    values: Dict[str, float] = {}
    for name in (
        "sim.step", "schemes.process", "mem.cache.access", "mem.channel.submit",
        "core.tracker.observe", "core.gran_table.resolve",
        "core.addressing.mac_line_addr", "subtree.trusted", "tree.read_counter",
        "tree.increment_counter", "crypto.generate_otp", "crypto.xor_bytes",
        "crypto.compute_mac", "crypto.nested_mac", "service.store.append",
    ):
        values[f"{name}.calls"], values[f"{name}.self_s"] = layer(name)
    for name in ("secure_memory.read", "secure_memory.write",
                 "secure_memory.session.step"):
        values[f"{name}.self_s"] = layer(name)[1]
    values["engine_fast.prepare_s"] = layer("engine_fast.prepare")[1]
    values["engine_fast.loop_s"] = layer("engine_fast.loop")[1]
    fast_calls = summary["fast"][0] + daemon_summary.get("fast", [0, 0])[0]
    fast_falls = summary["fast"][1] + daemon_summary.get("fast", [0, 0])[1]
    values["engine_fast.fallback_share"] = fast_falls / fast_calls if fast_calls else 0.0
    values["workloads.build_traces_s"] = layer("workloads.build_traces")[1]
    values.update(traced.sim.layer_stats())
    looked = layout["hits"] + layout["misses"]
    values["core.addressing.layout_cache.hit_ratio"] = (
        layout["hits"] / looked if looked else 0.0
    )
    values["secure_memory.switches"] = traced.data.switches
    values["crypto.macs_per_line_read"] = macs / max(1, len(mg_reads))

    planes = {
        "sim": (plain.sim.seconds, traced.sim.seconds,
                summary["planes"].get("sim", 0.0)),
        "functional": (plain.data.seconds, traced.data.seconds,
                       summary["planes"].get("functional", 0.0)),
        "daemon": (plain.loop.requests.seconds, traced.loop.requests.seconds,
                   daemon_summary.get("planes", {}).get("daemon", 0.0)),
    }
    for plane, (untraced_s, traced_s, layered) in planes.items():
        overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        values[f"trace.overhead.{plane}"] = overhead
        print(
            f"reconcile {plane}: end-to-end {untraced_s:.4f} s untraced, "
            f"layer self times {layered:.4f} s, remainder "
            f"{untraced_s - layered:.4f} s "
            f"({(untraced_s - layered) / untraced_s if untraced_s else 0:.1%}); "
            f"traced end-to-end {traced_s:.4f} s, tracing overhead {overhead:+.1%}, "
            f"wrapper cost x{scale.get(plane, 1.0):.2f} of calibration"
        )
    values["sim.unattributed_s"] = planes["sim"][0] - planes["sim"][2]

    values.update(service_metrics(traced, daemon_summary, tally))
    values["service.start_s"] = plain.daemon.start_s
    requests = plain.loop.requests.attempted + traced.loop.requests.attempted
    failed = plain.loop.requests.failed + traced.loop.requests.failed
    values["service.failed_share"] = failed / requests if requests else 0.0

    split: Dict[str, object] = {
        "coarse_share": values["core.coarse_share"],
        "macs_per_line_read": values["crypto.macs_per_line_read"],
        "wait_ms": values["service.wait_ms"],
    }
    holds = {}
    for name, op, threshold, counted in SPLIT.get(args.workload, ()):
        ok = COMPARE[op](values[name], threshold)
        holds[f"{name} {op} {threshold}"] = ok
        if counted:
            tally.check(ok, f"workload split: {name} is {values[name]:.4g}, "
                            f"not {op} {threshold}")
    split["holds"] = holds
    print("split " + json.dumps({args.workload: split}, sort_keys=True))
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace_rounds": rounds,
        "platform": platform_info(), "calibration_s": rec.calibration,
        "failures": tally.messages,
    }, sort_keys=True, default=str))
    return result_line(tally, values, PER_LAYER)


def service_metrics(run: Pass, summary: Dict, tally) -> Dict[str, float]:
    """Daemon-side timings matched to client requests by ``tenant|op|seq``."""
    from perfbench.metrics import median

    log = run.loop.requests.log
    matched = []
    for _plane, label, _name, start, end, seconds in summary.get("roots", []):
        client = log.get(label)
        if client is None or label.startswith("warm-"):
            continue
        tenant, op, _seq = label.split("|")
        matched.append((op, dict(client, round=tenant.rsplit("-", 1)[-1]),
                        start, end, seconds))
    handle = {"step": [], "get": [], "put": []}
    wire, wait = [], []
    largest = max((c["size"] for op, c, *_ in matched if op == "step"), default=0)
    bulk, bulk_end, small_start = [], {}, {}
    for op, client, start, end, seconds in matched:
        if op in handle and client["role"] != "bulk":
            handle[op].append(seconds * 1e3)
        if op == "step" and client["size"] == largest:
            bulk.append(seconds * 1e3)
        if client["role"] == "bulk":
            bulk_end[client["round"]] = end
        if client["role"] == "small":
            wait.append((start - client["sent"]) * 1e3)
            small_start.setdefault(client["round"], []).append(start)
        else:
            wire.append((client["latency"] - (end - start)) * 1e3)
            if run.kind == "closed":
                wait.append((start - client["sent"]) * 1e3)
    if run.kind == "mixed":
        # The daemon steps inline on its event loop, so a small request
        # queued behind its round's bulk step starts after that step ends.
        late = sum(
            1 for r, starts in small_start.items() for start in starts
            if r not in bulk_end or start < bulk_end[r]
        )
        tally.check(late == 0, f"{late} small requests did not queue behind a bulk step")
    return {
        "service.handle_ms.step": median(handle["step"]),
        "service.handle_ms.get": median(handle["get"]),
        "service.handle_ms.put": median(handle["put"]),
        "service.wire_ms": median(wire),
        "service.wait_ms": median(wait),
        "service.bulk_step_ms": median(bulk),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One CPU for this process and, inherited, the daemon: only one of
    # them computes at a time, and a request then never waits for the
    # host to wake the other, idle virtual CPU, which on a shared host
    # varies by more than a sub-millisecond request costs.  The next CPU
    # stays spare for the reference loop.
    CPUS[:] = sorted(os.sched_getaffinity(0))[:2]
    os.sched_setaffinity(0, {CPUS[0]})
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result = (traced_run if args.trace else measured_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

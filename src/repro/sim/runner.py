"""Scenario runners: simulate scheme sets over shared traces.

Traces are generated once per scenario and replayed through every
scheme, so scheme comparisons are paired.  ``static_device`` needs the
per-device exhaustive granularity search of Sec. 5.3
(``Static-device-best``); the search results are memoized per workload
because the paper's search is likewise an offline warmup.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SoCConfig
from repro.common.constants import GRANULARITIES
from repro.schemes.registry import build_scheme
from repro.schemes.static import StaticGranularScheme
from repro.sim.scenario import DEFAULT_DURATION_CYCLES, Scenario
from repro.sim.soc import RunResult, simulate
from repro.workloads.generator import Trace

# LRU-bounded memo of the per-device exhaustive search: long sweeps
# and duration scans would otherwise grow it without limit (one entry
# per distinct workload/duration/trace-length/config quadruple).  The
# key includes the SoCConfig itself (frozen, hence hashable): the best
# static granularity of a workload depends on channel bandwidth, cache
# sizes and engine latencies, so a result found under one config must
# never be served under another.
_STATIC_BEST_CACHE_MAX = 512
_static_best_cache: "OrderedDict[Tuple[str, float, int, SoCConfig], int]" = (
    OrderedDict()
)


def clear_static_best_cache() -> None:
    """Drop all memoized static-best search results (tests, sweeps)."""
    _static_best_cache.clear()


def sim_duration(default: float = DEFAULT_DURATION_CYCLES) -> float:
    """Per-device compute duration; override with REPRO_SIM_DURATION."""
    raw = os.environ.get("REPRO_SIM_DURATION")
    if raw is None:
        return default
    return float(raw)


def best_static_granularity(
    trace: Trace, config: Optional[SoCConfig] = None
) -> int:
    """Exhaustively pick the best fixed granularity for one device.

    Runs the device's trace in isolation under each of the four
    granularities and returns the fastest -- the paper's per-device
    exhaustive search (Sec. 3.3), memoized per workload/trace shape.
    """
    config = config or SoCConfig()
    key = (trace.spec.name, trace.compute_cycles, len(trace.entries), config)
    cached = _static_best_cache.get(key)
    if cached is not None:
        _static_best_cache.move_to_end(key)
        return cached

    best_granularity = GRANULARITIES[0]
    best_cost = float("inf")
    for granularity in GRANULARITIES:
        scheme = StaticGranularScheme(
            config, {0: granularity}, config.memory.protected_bytes
        )
        result = simulate([trace], scheme, config, warmup=True)
        # Isolated runs hide bandwidth pressure (one device cannot
        # saturate the channel), so score latency *plus* the channel
        # time its traffic would occupy under contention -- otherwise
        # the search blindly prefers coarse granularities whose
        # coverage debt settles after the last request.
        cost = (
            result.devices[0].finish_cycle
            + result.total_traffic_bytes / config.memory.bytes_per_cycle
        )
        if cost < best_cost:
            best_cost = cost
            best_granularity = granularity
    _static_best_cache[key] = best_granularity
    while len(_static_best_cache) > _STATIC_BEST_CACHE_MAX:
        _static_best_cache.popitem(last=False)
    return best_granularity


def best_static_granularities(
    traces: Sequence[Trace], config: Optional[SoCConfig] = None
) -> Dict[int, int]:
    """Per-device granularities for the ``Static-device-best`` scheme.

    The paper's exhaustive per-device search (Sec. 5.3): each device's
    trace is scored in isolation under every granularity and the best
    is kept (memoized per workload -- the paper treats this as an
    offline warmup).
    """
    return {
        index: best_static_granularity(trace, config)
        for index, trace in enumerate(traces)
    }


def _run_schemes_over_traces(
    traces: Sequence[Trace],
    footprint: int,
    scheme_names: Sequence[str],
    config: SoCConfig,
    warmup: bool,
    obs_factory=None,
) -> Dict[str, RunResult]:
    """Replay already-built traces under each scheme (the serial core).

    Shared by the serial path below and by the worker bodies in
    :mod:`repro.sim.parallel`, so both produce identical results.
    """
    results: Dict[str, RunResult] = {}
    for name in scheme_names:
        device_granularities = None
        if name == "static_device":
            device_granularities = best_static_granularities(traces, config)
        scheme = build_scheme(
            name, config, footprint_bytes=footprint,
            device_granularities=device_granularities,
            obs=obs_factory() if obs_factory is not None else None,
        )
        results[name] = simulate(traces, scheme, config, warmup=warmup)
    return results


def run_scenario(
    scenario: Scenario,
    scheme_names: Sequence[str],
    config: Optional[SoCConfig] = None,
    duration_cycles: Optional[float] = None,
    seed: int = 0,
    warmup: bool = True,
    obs_factory=None,
    jobs: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Simulate one scenario under several schemes over shared traces.

    ``warmup`` (default on) replays each trace once before measuring,
    so dynamic schemes are evaluated in their trained steady state --
    the regime the paper's long simulations report.

    ``obs_factory``, when given, is called once per scheme (it takes no
    arguments) and must return an :class:`~repro.obs.ObsContext`; each
    scheme gets its own context so traces and metrics stay per-run.

    ``jobs`` above 1 fans the scheme list out over worker processes
    (``None`` consults ``REPRO_JOBS``, else stays serial).  Parallel
    results are :class:`~repro.sim.parallel.SlimRunResult` payloads --
    numerically identical, but without the live ``.scheme`` object.
    Live tracing (``obs_factory``) always forces the serial path, since
    per-run observability objects cannot cross a process boundary.
    """
    config = config or SoCConfig()
    duration = duration_cycles if duration_cycles is not None else sim_duration()

    from repro.sim import parallel, resilient  # runner is imported by parallel

    workers = parallel.resolve_jobs(jobs)
    # A checkpointing supervisor routes even serial runs through the
    # fan-out, so checkpoints exist at the same task granularity
    # whatever the worker count.
    if (
        (workers > 1 or resilient.current_supervisor().checkpointing)
        and obs_factory is None
        and len(scheme_names) > 1
    ):
        [(_, runs)] = parallel.run_scenarios(
            [scenario], scheme_names, config, duration, seed, warmup,
            jobs=workers,
        )
        return runs
    traces, footprint = scenario.build_traces(duration, seed)
    return _run_schemes_over_traces(
        traces, footprint, scheme_names, config, warmup, obs_factory
    )


def run_many(
    scenarios: Sequence[Scenario],
    scheme_names: Sequence[str],
    config: Optional[SoCConfig] = None,
    duration_cycles: Optional[float] = None,
    seed: int = 0,
    warmup: bool = True,
    jobs: Optional[int] = None,
) -> List[Tuple[Scenario, Dict[str, RunResult]]]:
    """Run a list of scenarios; returns (scenario, results) pairs.

    ``jobs`` above 1 dispatches the whole cross-product to
    :func:`repro.sim.parallel.run_scenarios` (slim, picklable results);
    ``None`` consults ``REPRO_JOBS`` and otherwise stays serial.  A
    checkpointing supervisor (``--run-id``/``--resume``) also routes the
    serial case through the fan-out so checkpoints are written and
    reused at the same task granularity regardless of ``jobs``.
    """
    from repro.sim import parallel, resilient  # runner is imported by parallel

    workers = parallel.resolve_jobs(jobs)
    if workers > 1 or resilient.current_supervisor().checkpointing:
        return parallel.run_scenarios(
            scenarios, scheme_names, config, duration_cycles, seed, warmup,
            jobs=workers,
        )
    return [
        (
            scenario,
            run_scenario(
                scenario, scheme_names, config, duration_cycles, seed, warmup
            ),
        )
        for scenario in scenarios
    ]


def sweep_scenarios(
    scenarios: Sequence[Scenario], sample: Optional[int] = None
) -> List[Scenario]:
    """Deterministically subsample a scenario list for sweep experiments.

    The full 250-scenario sweep is exact but slow in pure Python; the
    default subsample keeps every k-th scenario (uniform over the
    cross-product ordering).  Set ``REPRO_FULL_SWEEP=1`` to force the
    complete sweep.
    """
    if os.environ.get("REPRO_FULL_SWEEP") == "1" or sample is None:
        return list(scenarios)
    if sample >= len(scenarios):
        return list(scenarios)
    stride = len(scenarios) / sample
    return [scenarios[int(i * stride)] for i in range(sample)]

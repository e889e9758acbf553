"""Heterogeneous SoC simulation: scenarios, event loop, runners, metrics."""

from repro.sim import metrics

from repro.sim.parallel import (
    SlimRunResult,
    default_jobs,
    resolve_jobs,
    run_scenarios,
    slim_result,
)
from repro.sim.runner import (
    best_static_granularities,
    best_static_granularity,
    run_many,
    run_scenario,
    sim_duration,
    sweep_scenarios,
)
from repro.sim.scenario import (
    DEFAULT_DURATION_CYCLES,
    REALWORLD_SCENARIOS,
    SELECTED_GROUPS,
    SELECTED_SCENARIOS,
    Scenario,
    all_scenarios,
    make_scenario,
    selected_scenario,
)
from repro.sim.soc import (
    DeviceResult,
    ResultView,
    RunResult,
    device_config_for,
    simulate,
)

__all__ = [
    "metrics",
    "SlimRunResult",
    "default_jobs",
    "resolve_jobs",
    "run_scenarios",
    "slim_result",
    "best_static_granularities",
    "best_static_granularity",
    "run_many",
    "run_scenario",
    "sim_duration",
    "sweep_scenarios",
    "DEFAULT_DURATION_CYCLES",
    "REALWORLD_SCENARIOS",
    "SELECTED_GROUPS",
    "SELECTED_SCENARIOS",
    "Scenario",
    "all_scenarios",
    "make_scenario",
    "selected_scenario",
    "DeviceResult",
    "ResultView",
    "RunResult",
    "device_config_for",
    "simulate",
]

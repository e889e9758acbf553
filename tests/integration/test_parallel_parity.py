"""Parallel execution must be bit-identical to serial execution.

The parallel engine (``repro.sim.parallel``) re-runs the exact same
pure simulation functions in worker processes and reduces results in
submission order, so every figure, table and JSON payload must come
out byte-for-byte the same at any ``jobs`` value.  These tests pin
that contract on a sweep sample, a fault-campaign slice and a seeded
warmup scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import sweep
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.sim.parallel import (
    SlimRunResult,
    default_jobs,
    resolve_jobs,
    run_scenarios,
    slim_result,
)
from repro.sim.runner import clear_static_best_cache, run_many, run_scenario
from repro.sim.scenario import REALWORLD_SCENARIOS, selected_scenario
from repro.sim.soc import RunResult

DURATION = 1200.0
SCHEMES = ("unsecure", "conventional", "static_device", "ours")


def _payloads(pairs):
    """Canonical JSON rendering of run_many-style output."""
    out = []
    for scenario, runs in pairs:
        base = runs["unsecure"]
        out.append(
            {
                "scenario": scenario.name,
                "schemes": {
                    name: run.to_dict(baseline=base)
                    for name, run in runs.items()
                },
            }
        )
    return json.dumps(out, sort_keys=True)


class TestScenarioParity:
    def test_run_scenario_schemes_identical(self):
        scenario = selected_scenario("cc1")
        clear_static_best_cache()
        serial = run_scenario(scenario, SCHEMES, None, DURATION, seed=3)
        clear_static_best_cache()
        parallel = run_scenario(
            scenario, SCHEMES, None, DURATION, seed=3, jobs=4
        )
        assert _payloads([(scenario, serial)]) == _payloads(
            [(scenario, parallel)]
        )

    def test_parallel_results_are_slim(self):
        scenario = selected_scenario("cc1")
        runs = run_scenario(scenario, SCHEMES, None, DURATION, seed=0, jobs=4)
        assert all(isinstance(r, SlimRunResult) for r in runs.values())

    def test_serial_results_stay_live(self):
        scenario = selected_scenario("cc1")
        runs = run_scenario(scenario, SCHEMES, None, DURATION, seed=0, jobs=1)
        assert all(isinstance(r, RunResult) for r in runs.values())
        assert runs["ours"].scheme is not None

    def test_per_device_finish_cycles_and_traffic(self):
        scenario = selected_scenario("f1")
        serial = run_scenario(scenario, SCHEMES, None, DURATION, seed=7)
        parallel = run_scenario(
            scenario, SCHEMES, None, DURATION, seed=7, jobs=3
        )
        for name in SCHEMES:
            s, p = serial[name], parallel[name]
            assert [d.finish_cycle for d in s.devices] == [
                d.finish_cycle for d in p.devices
            ]
            assert s.total_traffic_bytes == p.total_traffic_bytes
            assert s.security_cache_misses == p.security_cache_misses
            assert s.metrics == p.metrics

    def test_warmup_off_parity(self):
        scenario = selected_scenario("cc1")
        serial = run_scenario(
            scenario, SCHEMES, None, DURATION, seed=5, warmup=False
        )
        parallel = run_scenario(
            scenario, SCHEMES, None, DURATION, seed=5, warmup=False, jobs=4
        )
        assert _payloads([(scenario, serial)]) == _payloads(
            [(scenario, parallel)]
        )

    def test_obs_factory_forces_serial(self):
        from repro.obs import ObsContext

        scenario = selected_scenario("cc1")
        obs = []

        def factory():
            ctx = ObsContext.enabled(capacity=1024)
            obs.append(ctx)
            return ctx

        runs = run_scenario(
            scenario, ("ours",), None, DURATION, obs_factory=factory, jobs=8
        )
        # Live tracing cannot cross a process boundary: the run must
        # have happened in this process, against our contexts.
        assert obs and isinstance(runs["ours"], RunResult)
        assert runs["ours"].trace


class TestSweepParity:
    def test_run_many_cross_product_identical(self):
        scenarios = list(REALWORLD_SCENARIOS)
        serial = run_many(scenarios, SCHEMES, None, DURATION, seed=1)
        parallel = run_many(scenarios, SCHEMES, None, DURATION, seed=1, jobs=4)
        assert _payloads(serial) == _payloads(parallel)

    def test_run_scenarios_matches_run_many_order(self):
        scenarios = list(REALWORLD_SCENARIOS)
        parallel = run_scenarios(
            scenarios, SCHEMES, None, DURATION, seed=2, jobs=4
        )
        assert [s.name for s, _ in parallel] == [s.name for s in scenarios]
        for _, runs in parallel:
            assert list(runs) == list(SCHEMES)

    def test_sweep_results_parity(self):
        sweep.clear_cache()
        serial = sweep.sweep_results(3, DURATION, seed=0, schemes=SCHEMES)
        sweep.clear_cache()
        parallel = sweep.sweep_results(
            3, DURATION, seed=0, schemes=SCHEMES, jobs=4
        )
        sweep.clear_cache()
        assert _payloads(serial) == _payloads(parallel)


class TestCampaignParity:
    def test_campaign_matrix_identical(self):
        config = CampaignConfig(
            trials=1, attacks=("data_bitflip", "node_rollback", "data_rollback")
        )
        serial = run_campaign(config)
        parallel = run_campaign(config, jobs=4)
        assert serial.to_json() == parallel.to_json()
        assert serial.format_table() == parallel.format_table()


class TestPlumbing:
    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert default_jobs() == 3

    def test_slim_result_idempotent(self):
        scenario = selected_scenario("cc1")
        runs = run_scenario(scenario, ("ours",), None, DURATION)
        slim = slim_result(runs["ours"])
        assert slim_result(slim) is slim
        assert slim.to_dict() == runs["ours"].to_dict()


@pytest.fixture(autouse=True)
def _no_env_jobs(monkeypatch):
    """Parity assertions assume jobs=None means serial."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)

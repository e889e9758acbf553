"""Checkpoint/resume parity: an interrupted run, resumed, must be
byte-identical to an uninterrupted one.

Uses the chaos ``abort_after`` hook to kill a supervised sweep and a
supervised campaign mid-flight, then resumes from the content-addressed
store and asserts (a) exactly the committed tasks are reused and only
the rest re-execute (valid-blob counts) and (b) the final payloads
match clean serial and clean parallel runs exactly.  A warm re-run
under a fresh run id reuses the store the same way.
"""

from __future__ import annotations

import pytest

from repro.experiments.sweep import canonical_payloads
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.exec_chaos import ChaosSpec
from repro.secure_memory.failure import FAILURE_MODES
from repro.sim.parallel import sweep_task_keys
from repro.faults.exec_chaos import valid_blobs
from repro.sim.resilient import (
    ExecutionAborted,
    ResiliencePolicy,
    ResultStore,
    Supervisor,
    default_store_dir,
    supervision,
)
from repro.sim.runner import (
    clear_static_best_cache,
    run_many,
    run_scenario,
    sweep_scenarios,
)
from repro.sim.scenario import all_scenarios

DURATION = 400.0
SAMPLE = 3
SCHEMES = ("conventional", "ours")
JOBS = 2
POLICY = ResiliencePolicy(timeout_seconds=60.0, seed=0)


def _scenarios():
    return sweep_scenarios(all_scenarios(), SAMPLE)


def _sweep_payloads(jobs):
    clear_static_best_cache()
    results = run_many(
        _scenarios(), SCHEMES, duration_cycles=DURATION, seed=0, jobs=jobs
    )
    return canonical_payloads(results, SCHEMES)


def _committed(runs_dir):
    return len(valid_blobs(ResultStore(default_store_dir(runs_dir))))


class TestSweepResumeParity:
    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        clean_serial = _sweep_payloads(jobs=1)
        clean_parallel = _sweep_payloads(jobs=4)
        assert clean_parallel == clean_serial  # supervised-parallel parity

        keys = sweep_task_keys(_scenarios(), SCHEMES, jobs=JOBS)
        total = len(keys)
        abort_after = max(1, total // 3)

        killer = Supervisor(
            policy=POLICY, run_id="resume-test", runs_dir=tmp_path,
            chaos=ChaosSpec(seed=0, abort_after=abort_after),
        )
        with pytest.raises(ExecutionAborted):
            with supervision(killer):
                _sweep_payloads(jobs=JOBS)

        done_before = _committed(tmp_path)
        assert 0 < done_before < total  # genuinely interrupted mid-run

        resumer = Supervisor(
            policy=POLICY, run_id="resume-test", runs_dir=tmp_path,
        )
        with supervision(resumer):
            resumed = _sweep_payloads(jobs=JOBS)

        # Exactly the committed tasks were reused, the rest executed ...
        assert resumer.report.resume_skips == done_before
        assert resumer.report.completed == total - done_before
        # ... and the store now holds every task exactly once.
        assert _committed(tmp_path) == total
        # Byte-parity against both uninterrupted runs.
        assert resumed == clean_serial
        assert resumed == clean_parallel

    def test_full_resume_executes_nothing(self, tmp_path):
        clean = _sweep_payloads(jobs=1)
        first = Supervisor(
            policy=POLICY, run_id="full", runs_dir=tmp_path,
        )
        with supervision(first):
            _sweep_payloads(jobs=JOBS)

        again = Supervisor(policy=POLICY, run_id="full", runs_dir=tmp_path)
        with supervision(again):
            replayed = _sweep_payloads(jobs=JOBS)
        assert replayed == clean
        assert again.report.attempts == 0
        assert again.report.resume_skips == len(
            sweep_task_keys(_scenarios(), SCHEMES, jobs=JOBS)
        )


CAMPAIGN = CampaignConfig(
    seed=0,
    trials=1,
    attacks=("data_bitflip", "counter_tamper"),
    failure_modes=(FAILURE_MODES[0],),
)


class TestCampaignResumeParity:
    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path):
        clean_serial = run_campaign(CAMPAIGN, jobs=1).to_json()
        clean_parallel = run_campaign(CAMPAIGN, jobs=4).to_json()
        assert clean_parallel == clean_serial

        killer = Supervisor(
            policy=POLICY, run_id="camp", runs_dir=tmp_path,
            chaos=ChaosSpec(seed=0, abort_after=2),
        )
        with pytest.raises(ExecutionAborted):
            with supervision(killer):
                run_campaign(CAMPAIGN, jobs=JOBS)

        done_before = _committed(tmp_path)
        assert done_before >= 2

        # Campaign keys name (attack, policy, mode, granularity) cells,
        # independent of the worker count -- resuming at a *different*
        # jobs value must work.
        resumer = Supervisor(policy=POLICY, run_id="camp", runs_dir=tmp_path)
        with supervision(resumer):
            resumed = run_campaign(CAMPAIGN, jobs=4)
        assert resumer.report.resume_skips == done_before
        assert resumed.to_json() == clean_serial


class TestWarmStoreReuse:
    def test_warm_store_rerun_reuses_90_percent(self, tmp_path):
        clean_serial = run_campaign(CAMPAIGN, jobs=1).to_json()
        first = Supervisor(policy=POLICY, run_id="cold", runs_dir=tmp_path)
        with supervision(first):
            run_campaign(CAMPAIGN, jobs=JOBS)
        # Fresh run id -- only the store is shared.
        second = Supervisor(policy=POLICY, run_id="warm", runs_dir=tmp_path)
        with supervision(second):
            warm_json = run_campaign(CAMPAIGN, jobs=JOBS).to_json()
        assert warm_json == clean_serial
        stats = second.report
        total = stats.resume_skips + stats.completed
        assert total > 0
        assert stats.resume_skips / total >= 0.9
        assert stats.attempts == 0  # nothing needed executing at all


class TestRunsSharingOneStore:
    """Run ids share ``<runs-dir>/store``; only the same work is reused."""

    @pytest.mark.parametrize(
        "knobs",
        [
            ({"seed": 1}, {"seed": 2}),
            # Same trace count and footprint at both durations: only
            # the trace contents tell the two runs apart.
            ({"duration_cycles": 400.0}, {"duration_cycles": 600.0}),
        ],
        ids=["seed", "duration"],
    )
    def test_scenario_runs_differing_in_one_knob_match_unsupervised(
        self, tmp_path, knobs
    ):
        scenario = next(
            s for s in all_scenarios() if s.name == "gcc+sten+ncf+sfrnn"
        )

        def payloads(overrides):
            clear_static_best_cache()
            args = {"duration_cycles": DURATION, "seed": 0, **overrides}
            runs = run_scenario(scenario, SCHEMES, jobs=1, **args)
            return canonical_payloads([(scenario, runs)], SCHEMES)

        for run_id, overrides in zip(("first", "second"), knobs):
            unsupervised = payloads(overrides)
            supervisor = Supervisor(
                policy=POLICY, run_id=run_id, runs_dir=tmp_path
            )
            with supervision(supervisor):
                assert payloads(overrides) == unsupervised
            assert supervisor.report.resume_skips == 0
        assert _committed(tmp_path) == 2

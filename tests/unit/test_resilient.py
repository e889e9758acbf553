"""Unit coverage of the supervised execution engine (repro.sim.resilient)."""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults.exec_chaos import ChaosSpec, corrupt_blob, valid_blobs
from repro.sim import resilient
from repro.sim.resilient import (
    ExecutionAborted,
    LostResultError,
    ResiliencePolicy,
    ResultStore,
    Supervisor,
    SupervisionReport,
    current_supervisor,
    supervised_map,
    supervision,
    task_digest,
)


def double(x):
    return x * 2


def boom(x):
    raise ValueError(f"bad item {x}")


_PID_DIR_ENV = "SUPERVISED_MAP_TEST_DIR"


def record_pid_and_fail(x):
    """Touch a per-pid marker, then raise: proves where execution ran."""
    marker_dir = os.environ[_PID_DIR_ENV]
    with open(os.path.join(marker_dir, str(os.getpid())), "a") as fh:
        fh.write(f"{x}\n")
    raise RuntimeError(f"deterministic task bug on {x}")


def nap(x):
    time.sleep(0.7)
    return x


class TestResiliencePolicy:
    def test_backoff_is_deterministic(self):
        policy = ResiliencePolicy(seed=7)
        assert policy.backoff("k", 1) == policy.backoff("k", 1)
        assert policy.backoff("k", 1) != policy.backoff("other", 1)

    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(
            backoff_base_seconds=0.1, backoff_cap_seconds=0.4
        )
        delays = [policy.backoff("k", attempt) for attempt in (1, 2, 3, 9)]
        assert all(d > 0 for d in delays)
        # base * 1.5 jitter ceiling; the cap bounds late attempts.
        assert max(delays) <= 0.4 * 1.5
        assert delays[0] <= 0.1 * 1.5

    def test_seed_changes_jitter(self):
        a = ResiliencePolicy(seed=0).backoff("k", 1)
        b = ResiliencePolicy(seed=1).backoff("k", 1)
        assert a != b


class TestSupervisedMapSerial:
    def test_plain_map(self):
        assert supervised_map(double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_key_count_must_match(self):
        with pytest.raises(ValueError, match="one-to-one"):
            supervised_map(double, [1, 2], jobs=1, keys=["only-one"])

    def test_keys_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            supervised_map(double, [1, 2], jobs=1, keys=["k", "k"])

    def test_commit_hook_sees_every_finished_task(self):
        seen = []
        out = supervised_map(
            double, [1, 2, 3], jobs=1,
            commit=lambda index, value: seen.append((index, value)),
        )
        assert out == [2, 4, 6]
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_task_error_raises_after_one_retry(self):
        report = SupervisionReport()
        with pytest.raises(ValueError, match="bad item"):
            supervised_map(boom, [1], jobs=1, keys=["k"], report=report)
        # Serial path fails on first execution (no worker to retry in).
        assert report.completed == 0

    def test_abort_after_chaos_hook(self, tmp_path):
        class Abort:
            abort_after = 2

        supervisor = Supervisor(run_id="r1", runs_dir=tmp_path, chaos=Abort())
        with pytest.raises(ExecutionAborted):
            supervisor.map(
                double, [1, 2, 3, 4], keys=["a", "b", "c", "d"], jobs=1
            )
        # Both tasks finished before the abort were committed first.
        assert len(valid_blobs(ResultStore(supervisor.store_dir()))) == 2


def local_function_map(jobs):
    """``supervised_map`` over a function defined inside this one."""

    def triple(x):
        return x * 3

    report = SupervisionReport()
    return supervised_map(triple, [1, 2], jobs=jobs, report=report), report


class TestSupervisedMapParallel:
    def test_unpicklable_local_function_falls_back_serially(self, caplog):
        # A local function cannot be pickled to a worker (AttributeError
        # or PicklingError, by Python version): that is infrastructure,
        # not a task bug, so each task runs serially with a warning.
        with caplog.at_level("WARNING", logger="repro.resilient"):
            out, report = local_function_map(jobs=2)
        assert out == [3, 6]
        assert report.serial_fallbacks == 2
        assert any(
            "infrastructure failure" in record.getMessage()
            for record in caplog.records
        )

    def test_clean_parallel_map_keeps_order(self):
        report = SupervisionReport()
        out = supervised_map(double, [3, 1, 2], jobs=2, report=report)
        assert out == [6, 2, 4]
        assert report.retries == 0 and report.serial_fallbacks == 0

    def test_task_error_never_runs_in_parent(self, tmp_path, monkeypatch):
        """A deterministic task error is raised, never replayed serially
        in the parent (which would re-run every side effect there)."""
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        with pytest.raises(RuntimeError, match="deterministic task bug"):
            supervised_map(record_pid_and_fail, [1, 2, 3, 4], jobs=4)
        executed_pids = {int(name) for name in os.listdir(tmp_path)}
        assert executed_pids, "task never ran anywhere"
        assert os.getpid() not in executed_pids

    def test_infrastructure_classifier(self):
        infra = resilient._infrastructure_failure
        assert infra(BrokenProcessPool("dead"))
        assert infra(OSError("fork refused"))
        assert infra(pickle.PicklingError("no"))
        assert infra(TypeError("cannot pickle '_thread.lock'"))
        assert infra(
            AttributeError("Can't pickle local object 'f.<locals>.<lambda>'")
        )
        assert not infra(TypeError("bad operand"))
        assert not infra(AttributeError("no such attr"))
        assert not infra(RuntimeError("task bug"))
        assert not infra(ValueError("task bug"))

    def test_pool_break_charges_only_tasks_a_worker_could_run(self):
        finished, crashed, running, queued = (Future() for _ in range(4))
        finished.set_result(1)  # its worker moved on before the break
        crashed.set_exception(BrokenProcessPool("worker died"))
        queued.set_exception(BrokenProcessPool("worker died"))
        inflight = {finished: 0, crashed: 1, running: 2, queued: 3}
        suspects = resilient._break_suspects(inflight, workers=2)
        assert suspects == {crashed, running}

    def test_queued_behind_a_hang_never_charged(self):
        # Two workers, a 1 s timeout and 0.7 s naps; nap-3 hangs.  nap-2
        # waits a whole nap for a worker, so a clock started at submit
        # (or at running(), which CPython reports for queued calls)
        # would time it out before the hang's own deadline.
        keys = [f"nap-{i}" for i in range(6)]
        report = SupervisionReport()
        out = supervised_map(
            nap, list(range(6)), jobs=2, keys=keys,
            policy=ResiliencePolicy(timeout_seconds=1.0),
            chaos=ChaosSpec(hang_keys=("nap-3",), hang_seconds=30.0),
            report=report,
        )
        assert out == list(range(6))
        assert report.timeouts == 1
        assert report.retries == 1  # the hang's own; nobody else charged


class TestAmbientSupervision:
    def test_default_is_supervised(self):
        supervisor = current_supervisor()
        assert isinstance(supervisor, Supervisor)
        assert not supervisor.checkpointing

    def test_explicit_supervisor_wins(self):
        mine = Supervisor(run_id="mine")
        with supervision(mine):
            assert current_supervisor() is mine
        default = current_supervisor()
        assert default is not mine and not default.checkpointing

    def test_none_context_is_noop(self):
        with supervision(None) as active:
            assert active is None

    def test_nested_supervisors_stack(self):
        outer, inner = Supervisor(), Supervisor()
        with supervision(outer):
            with supervision(inner):
                assert current_supervisor() is inner
            assert current_supervisor() is outer


class TestSupervisor:
    def test_checkpointing_requires_keys(self, tmp_path):
        supervisor = Supervisor(run_id="r1", runs_dir=tmp_path)
        with pytest.raises(ValueError, match="keys"):
            supervisor.map(double, [1, 2])

    def test_map_checkpoints_and_reuses_in_process(self, tmp_path):
        supervisor = Supervisor(run_id="r1", runs_dir=tmp_path)
        keys = ["a", "b"]
        out = supervisor.map(
            double, [1, 2], keys=keys, kind="sweep", context="ctx", jobs=1
        )
        assert out == [2, 4]
        assert (tmp_path / "r1").is_dir()  # anchors `repro gc`
        # An identical fan-out later in the same process (bench repeat,
        # cleared memo) is served from the store.
        out2 = supervisor.map(
            double, [1, 2], keys=keys, kind="sweep", context="ctx", jobs=1
        )
        assert out2 == [2, 4]
        assert supervisor.report.resume_skips == 2

    def test_store_resume_skips_finished(self, tmp_path):
        keys = ["a", "b", "c"]
        first = Supervisor(run_id="r1", runs_dir=tmp_path)
        assert first.map(double, [1, 2, 3], keys=keys, jobs=1) == [2, 4, 6]
        assert first.report.completed == 3
        # A fresh run id shares the store: every task is reused and
        # nothing executes.
        again = Supervisor(run_id="r2", runs_dir=tmp_path)
        assert again.map(double, [1, 2, 3], keys=keys, jobs=1) == [2, 4, 6]
        assert again.report.resume_skips == 3 and again.report.attempts == 0
        # The digest pins the function: another one over the same keys
        # is never served the stored results.
        other = Supervisor(run_id="r3", runs_dir=tmp_path)
        with pytest.raises(ValueError, match="bad item"):
            other.map(boom, [1, 2, 3], keys=keys, jobs=1)

    def test_resume_after_abort_runs_only_unfinished(self, tmp_path):
        class Abort:
            abort_after = 2

        keys = ["a", "b", "c", "d"]
        crashed = Supervisor(run_id="r1", runs_dir=tmp_path, chaos=Abort())
        with pytest.raises(ExecutionAborted):
            crashed.map(double, [1, 2, 3, 4], keys=keys, jobs=1)
        resumed = Supervisor(run_id="r1", runs_dir=tmp_path)  # --resume r1
        out = resumed.map(double, [1, 2, 3, 4], keys=keys, jobs=1)
        assert out == [2, 4, 6, 8]
        # The two tasks committed before the crash are not run again.
        assert resumed.report.resume_skips == 2
        assert resumed.report.attempts == 2
        assert resumed.report.completed == 2

    def test_corrupt_blob_reexecutes_only_that_task(self, tmp_path):
        keys = ["a", "b"]
        first = Supervisor(run_id="r1", runs_dir=tmp_path)
        assert first.map(double, [1, 2], keys=keys, jobs=1) == [2, 4]
        store = ResultStore(first.store_dir())
        corrupt_blob(store.path(task_digest("map", "", "a", double)))
        again = Supervisor(run_id="r1", runs_dir=tmp_path)
        assert again.map(double, [1, 2], keys=keys, jobs=1) == [2, 4]
        # Damage is not fatal: it is counted, only "a" re-executes, and
        # its commit heals the blob.
        assert again.report.dropped_results == 1
        assert again.report.resume_skips == 1
        assert again.report.completed == 1
        assert len(valid_blobs(store)) == 2

    def test_blobs_of_another_code_tree_are_not_reused(
        self, tmp_path, monkeypatch
    ):
        keys = ["a", "b"]
        monkeypatch.setattr(resilient, "code_fingerprint", lambda: "0" * 64)
        old = Supervisor(run_id="old-tree", runs_dir=tmp_path)
        assert old.map(double, [1, 2], keys=keys, jobs=1) == [2, 4]
        monkeypatch.undo()
        new = Supervisor(run_id="new-tree", runs_dir=tmp_path)
        assert new.map(double, [1, 2], keys=keys, jobs=1) == [2, 4]
        assert new.report.resume_skips == 0 and new.report.completed == 2
        assert len(valid_blobs(ResultStore(new.store_dir()))) == 4

    def test_task_digest_varies_with_context(self):
        a = task_digest("sweep", "ctx-a", "k", double)
        b = task_digest("sweep", "ctx-b", "k", double)
        assert a != b

    def test_lost_result_error_is_transient(self):
        assert LostResultError("x").transient is True

    def test_run_dir_requires_run_id(self):
        with pytest.raises(ValueError):
            Supervisor().run_dir()

    def test_declares_resilience_counters(self):
        from repro.obs import ObsContext

        obs = ObsContext.enabled(capacity=64)
        Supervisor(obs=obs)
        snapshot = obs.registry.snapshot("resilience")
        assert snapshot.get("resilience.exec_retry") == 0
        assert snapshot.get("resilience.exec_resume_skip") == 0


class TestRunsDir:
    def test_env_override(self, monkeypatch, tmp_path):
        from repro.sim.resilient import default_runs_dir

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert default_runs_dir() == tmp_path / "elsewhere"

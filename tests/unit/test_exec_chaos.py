"""Unit coverage of the execution-chaos harness (repro.faults.exec_chaos)."""

from __future__ import annotations

import json

import pytest

from repro.faults.exec_chaos import (
    ChaosReport,
    ChaosSpec,
    break_blob_schema,
    corrupt_blob,
    tear_blob,
    valid_blobs,
)
from repro.sim.resilient import MISSING, ResultStore, task_digest


class TestChaosSpec:
    def test_decisions_are_deterministic(self):
        spec = ChaosSpec(seed=3, crash_rate=0.5, lost_rate=0.3)
        keys = [f"task-{i}" for i in range(20)]
        first = [spec.decide(key, 0) for key in keys]
        second = [spec.decide(key, 0) for key in keys]
        assert first == second
        assert set(first) <= {"crash", "lose", None}

    def test_seed_changes_story(self):
        keys = [f"task-{i}" for i in range(50)]
        a = [ChaosSpec(seed=0, crash_rate=0.5).decide(k, 0) for k in keys]
        b = [ChaosSpec(seed=1, crash_rate=0.5).decide(k, 0) for k in keys]
        assert a != b

    def test_no_fault_at_or_beyond_fault_attempts(self):
        """The convergence guarantee: retries eventually run clean."""
        spec = ChaosSpec(
            seed=0, crash_rate=1.0, hang_keys=("h",), fault_attempts=2
        )
        for key in ("h", "task-1", "task-2"):
            assert spec.decide(key, 2) is None
            assert spec.decide(key, 5) is None
            assert spec.decide(key, 0) is not None

    def test_hang_only_on_first_attempt(self):
        spec = ChaosSpec(seed=0, hang_keys=("h",))
        assert spec.decide("h", 0) == "hang"
        assert spec.decide("h", 1) is None
        assert spec.decide("other", 0) is None

    def test_rates_partition_the_roll(self):
        crash_only = ChaosSpec(seed=0, crash_rate=1.0)
        lose_only = ChaosSpec(seed=0, lost_rate=1.0)
        quiet = ChaosSpec(seed=0)
        assert crash_only.decide("k", 0) == "crash"
        assert lose_only.decide("k", 0) == "lose"
        assert quiet.decide("k", 0) is None

    def test_spec_is_picklable(self):
        import pickle

        spec = ChaosSpec(seed=2, crash_rate=0.2, hang_keys=("a",))
        assert pickle.loads(pickle.dumps(spec)) == spec


def _value(x):
    return x


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "store")
    for key in ("a", "b", "c"):
        store.commit(task_digest("sweep", "ctx", key, _value), key, {"x": key})
    return store


class TestStoreDamageHelpers:
    def test_each_helper_invalidates_only_its_blob(self, store):
        blobs = valid_blobs(store)
        assert len(blobs) == 3
        damages = (corrupt_blob, tear_blob, break_blob_schema)
        for i, (damage, path) in enumerate(zip(damages, blobs)):
            damage(path)
            assert path.exists() and store.load(path.stem) is MISSING
            assert valid_blobs(store) == blobs[i + 1:]

    def test_damage_keeps_the_rest_of_the_envelope(self, store):
        path = valid_blobs(store)[0]
        before = json.loads(path.read_text(encoding="utf-8"))
        corrupt_blob(path)
        after = json.loads(path.read_text(encoding="utf-8"))
        assert after["payload"] != before["payload"]
        assert {k: v for k, v in after.items() if k != "payload"} == {
            k: v for k, v in before.items() if k != "payload"
        }
        break_blob_schema(path)
        assert json.loads(path.read_text(encoding="utf-8"))["schema"] == (
            "repro-result/v0"
        )

    def test_torn_blob_is_not_json(self, store):
        path = valid_blobs(store)[0]
        tear_blob(path)
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text(encoding="utf-8"))


class TestChaosReport:
    def test_pass_fail_rollup(self):
        report = ChaosReport()
        report.add("one", True, "fine")
        assert report.passed
        report.add("two", False, "diverged")
        assert not report.passed

    def test_format(self):
        report = ChaosReport()
        report.add("sweep under chaos", True, "payloads identical")
        text = report.format()
        assert "[PASS] sweep under chaos: payloads identical" in text
        assert "chaos CLEAN" in text

    def test_format_failure(self):
        report = ChaosReport()
        report.add("sweep under chaos", False, "payloads DIVERGED")
        text = report.format()
        assert "[FAIL]" in text
        assert "chaos FAILED" in text

"""Every wrong output counts as a failed operation."""

import itertools
import os
import shutil
from pathlib import Path

import pytest

from perfbench import sim_phase
from perfbench.daemon_phase import ClosedLoop, Conn, Daemon, Requests
from perfbench.data_phase import DataPhase
from perfbench.metrics import SetupLog, Tally
from repro.secure_memory.engine import SecureMemory
from repro.sim.scenario import selected_scenario

ROOT = Path(__file__).resolve().parents[2]


def test_corrupted_read_counts_as_failed(monkeypatch):
    setup, tally = SetupLog(), Tally()
    phase = DataPhase("scatter", 3, setup, tally)
    phase.round(0, False)
    assert tally.failed == 0
    original = SecureMemory.read

    def corrupt(self, addr, size):
        data = bytearray(original(self, addr, size))
        data[0] ^= 1
        return bytes(data)

    monkeypatch.setattr(SecureMemory, "read", corrupt)
    phase.round(1, False)
    gets = sum(1 for kind, _, _ in phase.ops if kind == "get")
    assert tally.failed == 2 * gets  # one per get, under both policies


def test_changed_simulation_digest_counts_as_failed(monkeypatch):
    setup, tally = SetupLog(), Tally()
    phase = sim_phase.SimPhase("ff1", 1, 150, setup, tally, fast_available=False)
    phase.round(0, False)
    assert tally.failed == 0
    counter = itertools.count()
    monkeypatch.setattr(sim_phase, "digest", lambda result: str(next(counter)))
    phase.round(3, False)  # same trace set as round 0
    assert tally.failed == len(sim_phase.SIM_CONFIGS)


def test_error_reply_counts_as_failed():
    tally = Tally()
    requests = Requests(tally)
    shed = {"ok": False, "error": {"code": "overloaded", "message": "busy"}}
    assert requests.finish("t|step|1", "step", 0.0, shed, 0.001) is None
    assert requests.finish("t|step|2", "step", 0.0, {"ok": True, "body": {}}, 0.001) == {}
    assert (tally.attempted, tally.failed) == (2, 1)
    assert (requests.attempted, requests.failed) == (2, 1)


def test_corrupted_daemon_get_counts_as_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    workdir = ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    setup, tally = SetupLog(), Tally()
    daemon = Daemon(ROOT, workdir, traced=False)
    daemon.start()
    try:
        ff1 = selected_scenario("ff1")
        requests = ClosedLoop.WINDOWS["scatter"] * ClosedLoop.WINDOW
        durations = [sim_phase.sized_duration(ff1, 5 * 16 + g, requests)
                     for g in range(ClosedLoop.GROUPS)]
        loop = ClosedLoop(daemon, "scatter", 5, setup, tally, "test", durations)
        loop.round(1, True)
        assert tally.failed == 0, tally.messages
        original = Conn.recv

        def corrupt(self):
            reply, at = original(self)
            data = reply.get("body", {}).get("data_hex")
            if data:
                flipped = "1" if data[0] == "0" else "0"
                reply["body"]["data_hex"] = flipped + data[1:]
            return reply, at

        monkeypatch.setattr(Conn, "recv", corrupt)
        loop.round(2, True)
        monkeypatch.setattr(Conn, "recv", original)
        assert tally.failed == 16, tally.messages  # every get of the round
        assert all("get" in m for m in tally.messages)
        loop.finish()
    finally:
        daemon.stop(tally)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    assert tally.failed == 16
    assert not os.path.exists(daemon.socket)


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        ([10.0 + i * 0.01 for i in range(10)], [12.0 + i * 0.01 for i in range(10)],
         "higher", "gain"),
        ([10.0 + i * 0.01 for i in range(10)], [7.0 + i * 0.01 for i in range(10)],
         "higher", "regression"),
        ([10.0 + i * 0.01 for i in range(10)], [10.0 + i * 0.01 for i in range(10)],
         "lower", "same"),
        ([5.0, 15.0] * 5, [9.0, 11.0] * 5, "higher", "unresolved"),
    ],
)
def test_ab_verdicts(parent, change, better, verdict):
    from perfbench.ab import verdict as judge

    got = judge(parent, change, list(zip(parent, change)), better, 0.1)
    assert got["verdict"] == verdict

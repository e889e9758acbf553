"""``DaemonHarness`` and the two verdicts the daemon gates share.

The harness spawns a real ``repro serve`` subprocess; the load driver
(``scripts/load_daemon.py``) and ``repro chaos --mode daemon`` judge it
with :meth:`DaemonHarness.drain` (clean shutdown) and
:func:`repro.service.load.parity_failure` (per tenant).
"""

import asyncio
import signal
import subprocess
import sys

from repro.secure_memory.session import EngineSession
from repro.service import protocol
from repro.service.chaos import DaemonHarness, short_socket_path
from repro.service.load import parity_failure, run_load

SERVICE_KEY = b"harness-service-key"


def make_harness(tmp_path):
    return DaemonHarness(
        short_socket_path("h"), SERVICE_KEY, state_dir=str(tmp_path)
    )


def test_load_through_the_harness_drains_clean(tmp_path):
    harness = make_harness(tmp_path)

    async def drive():
        await harness.start()
        return await run_load(
            tenants=2, connections=1, engines="scalar", duration=300.0,
            socket_path=harness.socket_path,
            service_secret=harness.service_secret,
        )

    try:
        report = asyncio.run(drive())
        verdict = harness.drain()
    finally:
        harness.cleanup()
    assert report["ok"], report["failures"]
    assert report["parity_checked"] == 2
    assert verdict == []
    assert harness.exit_code == 0


def test_sigkilled_daemon_fails_the_drain_verdict(tmp_path):
    harness = make_harness(tmp_path)
    try:
        asyncio.run(harness.start())
        harness.proc.kill()
        harness.proc.wait()
        verdict = harness.drain()
    finally:
        harness.cleanup()
    assert harness.exit_code == -signal.SIGKILL
    assert any("daemon exited -9" in line for line in verdict), verdict
    assert any("still exists" in line for line in verdict), verdict


def test_daemon_ignoring_sigterm_is_killed_and_named_an_orphan(tmp_path):
    harness = make_harness(tmp_path)
    harness.proc = subprocess.Popen(
        [sys.executable, "-c",
         "import signal, time\n"
         "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
         "print('ready', flush=True)\n"
         "time.sleep(60)\n"],
        stdout=subprocess.PIPE, text=True,
    )
    assert harness.proc.stdout.readline() == "ready\n"
    verdict = harness.drain(timeout=0.3)
    assert harness.proc is None
    assert harness.exit_code == -signal.SIGKILL
    assert "orphan" in verdict[0]


def test_report_signed_under_another_key_fails_parity():
    params = {
        "scenario": "cc1", "scheme": "ours", "engine": "scalar",
        "duration": 300.0, "seed": 3, "window": 0,
    }
    session = EngineSession.from_params(
        tenant="t", secret=b"k",
        **{key: params[key] for key in params if key != "window"},
    )
    session.step(None)
    entry = {
        "tenant": "t", "secret": b"k", "params": params,
        "digest": session.observable_digest(), "rows": None,
    }
    entry["report"] = protocol.sign_report(session.report(), SERVICE_KEY)
    assert parity_failure(entry, SERVICE_KEY) is None
    entry["report"] = protocol.sign_report(session.report(), b"another key")
    assert "signature does not verify" in parity_failure(entry, SERVICE_KEY)

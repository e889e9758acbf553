"""Daemon restart chaos: SIGKILL mid-fleet, rehydrate, prove parity.

``python -m repro chaos --mode daemon`` is the durability twin of the
execution-chaos harness (:mod:`repro.faults.exec_chaos`): it spawns a
real ``repro serve`` subprocess with a ``--state-dir``, drives a small
heterogeneous tenant fleet through the resilient async client, and
**SIGKILLs the daemon at seeded step-count thresholds** -- then
restarts it against the same state dir and lets the clients
reconnect, re-attach and resume.  The property under test is the
paper-grade one the whole service stack promises: every tenant's final
observable digest, signed attestation and (seq-deduplicated) row
stream are **byte-identical** to an uninterrupted in-process replay of
the same parameters.

Further sections damage the final journal entry (a torn append),
verify the daemon heals it on rehydration and the lost window simply
re-executes; replay a byte-identical duplicate ``step`` and verify it
never double-applies; and saturate admission control to verify typed
retryable sheds.  One SIGTERM at the end checks the graceful-drain
path of ``repro serve`` end to end.

:class:`DaemonHarness` is the one spawner of ``repro serve``
subprocesses; ``scripts/load_daemon.py`` drives its load through it
too, and both judge the daemon with the same two verdicts:
:meth:`DaemonHarness.drain` for a clean shutdown and
:func:`repro.service.load.parity_failure` per tenant.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.faults.exec_chaos import ChaosReport
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.load import (
    drive_tenant,
    inprocess_digest,
    parity_failure,
    tenant_params,
)
from repro.service.store import TenantStore

#: Step windows the chaos fleet rotates through -- all bounded and
#: small (a whole-run window would give the killer nothing to
#: interrupt; small windows keep the kill thresholds reachable even
#: for short traces).
CHAOS_WINDOWS = (23, 31, 41, 53)


def _python_env() -> Dict[str, str]:
    """Subprocess env whose PYTHONPATH resolves this very ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else src + os.pathsep + current
    return env


def short_socket_path(tag: str = "d") -> str:
    """A fresh Unix-socket path short enough for ``sun_path`` (~104 B)."""
    name = f"repro-{tag}-{uuid.uuid4().hex[:10]}.sock"
    return os.path.join(tempfile.gettempdir(), name)


class DaemonHarness:
    """One ``python -m repro serve --socket PATH`` subprocess.

    It spawns the daemon, waits for its socket, SIGKILLs and revives
    it, and drains it with SIGTERM under the clean-shutdown verdict.
    """

    def __init__(
        self,
        socket_path: str,
        service_secret: bytes,
        state_dir: Optional[str] = None,
        extra_args: Sequence[str] = (),
    ) -> None:
        self.socket_path = socket_path
        self.service_secret = service_secret
        self.state_dir = state_dir
        self.extra_args = list(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        #: The exit status :meth:`drain` collected.
        self.exit_code: Optional[int] = None

    def spawn(self) -> None:
        args = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--service-secret", self.service_secret.hex(),
        ]
        if self.state_dir is not None:
            args += ["--state-dir", self.state_dir]
        args += self.extra_args
        self.proc = subprocess.Popen(
            args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_python_env(),
        )

    async def await_socket(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                out = self.proc.stdout.read() if self.proc.stdout else ""
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"accepting: {out[-2000:]}"
                )
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                await asyncio.sleep(0.05)
            finally:
                probe.close()
        raise RuntimeError(f"daemon socket {self.socket_path} never came up")

    async def start(self) -> None:
        self.spawn()
        await self.await_socket()

    def kill(self) -> None:
        """SIGKILL: no drain, no fsync beyond what already happened."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.communicate()  # reap it and close its pipe
            self.proc = None

    async def restart(self) -> None:
        self.kill()
        await self.start()

    def drain(self, timeout: float = 30.0) -> List[str]:
        """SIGTERM the daemon and judge its shutdown: failures, [] if clean.

        Clean is exit 0 within ``timeout`` with the clean-shutdown line
        (and, with a state dir, the drained-journals line) and the
        socket unlinked.  A daemon still running after ``timeout`` is
        SIGKILLed and reported as an orphan.
        """
        proc, self.proc = self.proc, None
        if proc is None:
            return ["no daemon to drain"]
        failures = []
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            failures.append(
                f"daemon ignored SIGTERM for {timeout:g} s "
                "(orphan process, killed)"
            )
        out = out or ""
        self.exit_code = proc.returncode
        if proc.returncode != 0:
            failures.append(
                f"daemon exited {proc.returncode}; output:\n{out[-2000:]}"
            )
        elif "shut down cleanly" not in out:
            failures.append("daemon exited 0 without the clean-shutdown line")
        elif self.state_dir is not None and "drained" not in out:
            failures.append("daemon exited 0 without the graceful-drain line")
        if os.path.exists(self.socket_path):
            failures.append(
                f"socket {self.socket_path} still exists after shutdown"
            )
        return failures

    def cleanup(self) -> None:
        if self.proc is not None:
            self.kill()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)


class KillSchedule:
    """SIGKILL the daemon when the fleet crosses seeded window counts.

    Thresholds are pure functions of the seed, so one chaos story
    replays identically.  The task that crosses a threshold performs
    the kill + restart inline (serialized by a lock); everyone else
    rides the client's reconnect-and-reattach path.
    """

    def __init__(
        self, harness: DaemonHarness, seed: int, kills: int, spread: int = 3
    ) -> None:
        self.harness = harness
        self.points: List[int] = []
        point = 2
        for index in range(kills):
            digest = hashlib.blake2b(
                f"daemon-chaos:{seed}:{index}".encode(), digest_size=8
            ).digest()
            point += 2 + int(int.from_bytes(digest, "little") / 2**64 * spread)
            self.points.append(point)
        self.pending = list(self.points)
        self.windows = 0
        self.kills_fired = 0
        self._lock = asyncio.Lock()

    async def on_window(self) -> None:
        self.windows += 1
        if not self.pending or self.windows < self.pending[0]:
            return
        async with self._lock:
            if not self.pending or self.windows < self.pending[0]:
                return  # another task already fired this point
            self.pending.pop(0)
            self.kills_fired += 1
            await self.harness.restart()


def dedupe_rows(rows: List[List[object]]) -> List[List[object]]:
    """Drop re-emitted rows (same global seq) after watermark regressions.

    A torn final journal entry legitimately re-executes its window
    after restart; the client-side row accumulation then holds that
    window twice.  Row seq (column 0) is globally unique per session,
    so first-occurrence wins reconstructs the canonical stream.
    """
    seen = set()
    out: List[List[object]] = []
    for row in rows:
        if row[0] in seen:
            continue
        seen.add(row[0])
        out.append(row)
    return out


async def _section_kill_restart(
    report: ChaosReport,
    tenants: int,
    engines: str,
    duration: float,
    seed: int,
    kills: int,
    connections: int,
    progress,
) -> None:
    socket_path = short_socket_path("fleet")
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-state-")
    service_secret = hashlib.blake2b(
        f"chaos-service:{seed}".encode(), digest_size=32
    ).digest()
    harness = DaemonHarness(
        socket_path, service_secret, state_dir=state_dir
    )
    failures: List[str] = []
    results: List[Dict[str, object]] = []
    try:
        await harness.start()
        schedule = KillSchedule(harness, seed, kills)
        clients = [
            AsyncServiceClient(socket_path=socket_path, retries=8)
            for _ in range(min(connections, tenants) or 1)
        ]
        await asyncio.gather(*(c.connect() for c in clients))
        try:

            async def one(index: int):
                params = tenant_params(index, engines, duration)
                params["window"] = CHAOS_WINDOWS[index % len(CHAOS_WINDOWS)]
                try:
                    entry = await drive_tenant(
                        clients[index % len(clients)],
                        f"chaos-{index:04d}",
                        f"chaos-secret-{index:04d}".encode(),
                        params,
                        on_window=schedule.on_window,
                    )
                except Exception as exc:
                    failures.append(f"chaos-{index:04d}: {exc!r}")
                    return None
                # A window re-executed after a kill streams its rows twice.
                entry["rows"] = dedupe_rows(entry["rows"])
                return entry

            outcome = await asyncio.gather(
                *(one(i) for i in range(tenants))
            )
            results = [r for r in outcome if r is not None]
        finally:
            for client in clients:
                await client.close_connection()
        if progress:
            progress(
                f"fleet done: {len(results)}/{tenants} tenants, "
                f"{schedule.kills_fired} kill(s)"
            )
        drain = harness.drain()

        # ---- parity: daemon-under-chaos vs uninterrupted in-process ----
        parity = [parity_failure(entry, service_secret) for entry in results]
        failures += [failure for failure in parity if failure is not None]
        parity_ok = parity.count(None)
        report.add(
            "kill-restart parity",
            not failures
            and len(results) == tenants
            and schedule.kills_fired == kills,
            f"{parity_ok}/{tenants} tenants byte-identical across "
            f"{schedule.kills_fired} SIGKILL+restart(s)"
            + (f"; failures: {failures[:3]}" if failures else ""),
        )
        report.add(
            "graceful drain",
            not drain,
            "; ".join(drain)
            or "SIGTERM exit=0, journals drained, socket unlinked",
        )
    finally:
        harness.cleanup()


async def _section_torn_tail(
    report: ChaosReport, duration: float, seed: int
) -> None:
    socket_path = short_socket_path("torn")
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-torn-")
    service_secret = hashlib.blake2b(
        f"chaos-torn:{seed}".encode(), digest_size=32
    ).digest()
    harness = DaemonHarness(
        socket_path, service_secret, state_dir=state_dir
    )
    tenant, secret = "torn-victim", b"torn-secret"
    params = {
        "scenario": "cc1", "scheme": "ours", "engine": "scalar",
        "duration": duration, "seed": seed, "window": 50,
    }
    try:
        await harness.start()
        client = AsyncServiceClient(socket_path=socket_path, retries=8)
        await client.connect()
        try:
            opened = await client.open(
                tenant, secret,
                scenario=params["scenario"], scheme=params["scheme"],
                engine=params["engine"], duration=params["duration"],
                seed=params["seed"],
            )
            # Size windows off the real trace length so three of them
            # land strictly mid-run: the torn entry must hold progress
            # the dropped-and-re-executed check can observe regressing.
            params["window"] = max(10, int(opened["total_requests"]) // 6)
            rows: List[List[object]] = []
            for _ in range(3):
                stepped = await client.step(
                    tenant, secret, requests=params["window"]
                )
                rows.extend(stepped["observables"])
            issued_before = stepped["issued"]

            # Crash, then forge the torn append: the final committed
            # entry is cut mid-line, exactly what a kill inside
            # write() leaves behind.
            harness.kill()
            journal_path = TenantStore(state_dir).path_for(tenant)
            lines = journal_path.read_text(encoding="utf-8").splitlines(
                keepends=True
            )
            torn = lines[-1][: max(4, len(lines[-1]) // 2)].rstrip("\n")
            journal_path.write_text(
                "".join(lines[:-1]) + torn, encoding="utf-8"
            )
            await harness.start()

            attach = await client.open(tenant, secret)
            regressed = attach["snapshot"]["issued"]
            healed = (
                attach.get("rehydrated") is True
                and attach.get("dropped_entries", 0) >= 1
                and regressed < issued_before
            )
            # The journal file itself must be clean again (prefix only).
            reloaded = TenantStore(state_dir).load(tenant)
            healed = healed and (
                reloaded is not None and reloaded[0].dropped_entries == 0
            )
            done = False
            digest = None
            while not done:
                stepped = await client.step(
                    tenant, secret, requests=params["window"]
                )
                done = stepped["done"]
                digest = stepped["digest"]
                rows.extend(stepped["observables"])
            clean_digest, clean_rows = inprocess_digest(
                params, tenant, secret
            )
            report.add(
                "torn journal entry heals",
                healed
                and digest == clean_digest
                and dedupe_rows(rows) == clean_rows,
                f"dropped tail re-executed: issued {issued_before} -> "
                f"{regressed} -> done, digest parity "
                f"{'ok' if digest == clean_digest else 'BAD'}",
            )
        finally:
            await client.close_connection()
    finally:
        harness.cleanup()


async def _section_duplicate_and_overload(
    report: ChaosReport, duration: float, seed: int
) -> None:
    socket_path = short_socket_path("dup")
    service_secret = hashlib.blake2b(
        f"chaos-dup:{seed}".encode(), digest_size=32
    ).digest()
    harness = DaemonHarness(
        socket_path,
        service_secret,
        extra_args=["--max-tenants", "2", "--max-step-bytes", "4096"],
    )
    try:
        await harness.start()
        client = AsyncServiceClient(socket_path=socket_path, retries=4)
        await client.connect()
        try:
            secret = b"dup-secret"
            await client.open(
                "dup-a", secret, scenario="cc1", scheme="ours",
                engine="scalar", duration=duration, seed=seed,
            )
            first = await client.step("dup-a", secret, requests=20)
            # Byte-identical duplicate (a retry after a lost response):
            # rewind the seq book so the next envelope reuses seq+tag.
            client._seqs._seqs["dup-a"] -= 1
            again = await client.step("dup-a", secret, requests=20)
            forward = await client.step("dup-a", secret, requests=20)
            report.add(
                "duplicate step is a no-op",
                again == first
                and again["issued"] == first["issued"]
                and forward["issued"] == first["issued"] + 20,
                f"replayed window answered from cache at issued="
                f"{again['issued']}, next window advanced to "
                f"{forward['issued']}",
            )

            # ---- admission control ----
            await client.open(
                "dup-b", secret, scenario="cc1", scheme="ours",
                engine="scalar", duration=duration, seed=seed,
            )
            shed_tenant = shed_budget = False
            retry_hints = []
            try:
                await client.open(
                    "dup-c", secret, scenario="cc1", scheme="ours",
                    engine="scalar", duration=duration, seed=seed,
                )
            except ServiceError as exc:
                shed_tenant = exc.code == "overloaded"
                retry_hints.append(exc.retry_after)
            try:
                await client.step("dup-b", secret, requests=500)
            except ServiceError as exc:
                shed_budget = exc.code == "overloaded"
                retry_hints.append(exc.retry_after)
            within = await client.step("dup-b", secret, requests=30)
            stats = await client.request("stats")
            shed_count = stats["metrics"].get("service.shed_requests", 0)
            report.add(
                "overload sheds are typed and retryable",
                shed_tenant
                and shed_budget
                and all(h is not None for h in retry_hints)
                and within["issued"] == 30
                and shed_count >= 2,
                f"tenant-limit + step-budget sheds with retry_after="
                f"{retry_hints}, service.shed_requests={shed_count}, "
                "bounded window accepted",
            )
        finally:
            await client.close_connection()
    finally:
        harness.cleanup()


def run_daemon_chaos(
    tenants: int = 6,
    duration: float = 400.0,
    seed: int = 0,
    engines: str = "mixed",
    kills: int = 2,
    connections: int = 3,
    progress=None,
) -> ChaosReport:
    """The full daemon-durability chaos story; returns a ChaosReport."""
    from repro.engine_fast import numpy_or_none

    if engines == "mixed" and numpy_or_none() is None:
        engines = "scalar"
    report = ChaosReport()

    async def story() -> None:
        await _section_kill_restart(
            report, tenants, engines, duration, seed, kills, connections,
            progress,
        )
        await _section_torn_tail(report, duration, seed)
        await _section_duplicate_and_overload(report, duration, seed)

    asyncio.run(story())
    return report

"""Daemon plane: client-observed latency of ``repro serve`` requests.

The daemon is a separate process (``python -m repro serve``, or the
traced launcher) on a Unix socket inside the run's work directory, with
``--state-dir`` beside it.  All load comes from this one client process
over at most two connections.  The client speaks ``repro-wire/v1``
directly through :mod:`repro.service.protocol` and never retries:
every error response (shed, rejected, failed) and every broken
connection is a failed operation.

* :class:`ClosedLoop` (stream, scatter): one tenant on one connection
  sends its next request only after the previous reply.  Each round
  opens a fresh tenant, steps its session in fixed windows, then runs
  data puts and gets, checks the signed report and closes.
* :class:`MixedLoop` (mixed): connection A opens a fresh ``cc1``
  tenant and sends one whole-run ``step``; ``OFFSET_S`` after sending
  it, connection B sends a burst of small requests of an ``ff1``
  tenant.  The daemon steps engines inline on its event loop, so the
  burst queues behind the bulk step by construction, not by a race.

Round ``i`` replays group ``i % groups``: the same session parameters
and data, so request ``j`` of a group repeats identical work every
``groups`` rounds.  The published latencies (``step_best_p50_ms`` and
the like) are over each request position's fastest repetition in the
run: on a shared host other tenants slow whole stretches of a run by a
third or more, which moves a median of raw samples by that much between
runs, while the fastest repetition of identical work moves by a few
percent.  The median and tail over every client-observed sample, which
also show stalls that hit only some repetitions, are printed beside
them (:meth:`DaemonLoop.raw`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.secure_memory.session import EngineSession, canonical_json
from repro.service import protocol

SERVICE_SECRET = bytes(range(32))
#: Seconds between sending a bulk step and the small burst behind it.
OFFSET_S = 0.02


class Daemon:
    """One ``repro serve`` subprocess and its clean-shutdown checks."""

    def __init__(self, root: Path, workdir: Path, traced: bool) -> None:
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout: Unix socket paths are capped near
        # 104 bytes and the checkout's absolute path may be long.
        self.socket = os.path.relpath(workdir / "d.sock", root)
        self.state_dir = os.path.relpath(workdir / "state", root)
        self.spans_path = workdir / "daemon-spans.json"
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.start_s = 0.0

    def start(self) -> float:
        serve = [
            "serve", "--socket", self.socket, "--state-dir", self.state_dir,
            "--service-secret", SERVICE_SECRET.hex(),
        ]
        if self.traced:
            argv = [sys.executable, "perfbench/daemon_launcher.py",
                    "--spans-out", str(self.spans_path), "--", *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        t = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=self.root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        deadline = t + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.proc.returncode} before listening: "
                    f"{self.proc.stdout.read() if self.proc.stdout else ''}"
                )
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not listen within 60 s")
                time.sleep(0.005)
            finally:
                probe.close()
        self.start_s = time.perf_counter() - t
        return self.start_s

    def stop(self, tally) -> Optional[Dict]:
        """SIGTERM; require exit 0, the clean line and an unlinked socket."""
        proc = self.proc
        if proc is None:
            return None
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            tally.check(False, "daemon ignored SIGTERM")
        tally.check(proc.returncode == 0, f"daemon exited {proc.returncode}: {out[-400:]}")
        tally.check("shut down cleanly" in out, "daemon printed no clean-shutdown line")
        tally.check(not os.path.exists(self.socket), "daemon left its socket behind")
        if self.traced and self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return None

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


class Conn:
    """One blocking connection; frames are sent and read without retries."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(path)

    def send(self, env: Dict) -> float:
        data = protocol.encode_frame(env)
        sent = time.perf_counter()
        self.sock.sendall(data)
        return sent

    def _exactly(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Tuple[Dict, float]:
        length = protocol.decode_length(self._exactly(protocol.HEADER_BYTES))
        body = protocol.decode_body(self._exactly(length))
        return body, time.perf_counter()

    def close(self) -> None:
        self.sock.close()


_ids = itertools.count(1)


class Tenant:
    """Client-side state of one tenant: name, secret, seq, row digest."""

    def __init__(self, conn: Conn, name: str, params: Dict) -> None:
        self.conn = conn
        self.name = name
        self.secret = hashlib.sha256(name.encode()).digest()
        self.params = params
        self.seq = 0
        self.windows: List[Optional[int]] = []
        self.digest = hashlib.sha256()

    def envelope(self, op: str, body: Optional[Dict] = None) -> Tuple[Dict, str]:
        self.seq += 1
        env = protocol.make_request(
            next(_ids), op, body or {}, tenant=self.name, seq=self.seq,
            secret=self.secret,
        )
        return env, f"{self.name}|{op}|{self.seq}"

    def open_body(self) -> Dict:
        return dict(self.params, secret_hex=self.secret.hex())


class Requests:
    """Every tenant request's timing, keyed by ``tenant|op|seq``."""

    def __init__(self, tally) -> None:
        self.tally = tally
        self.log: Dict[str, Dict] = {}
        #: Client-observed seconds of the measured rounds' requests.
        self.seconds = 0.0
        self.measuring = True
        self.attempted = 0
        self.failed = 0

    def finish(self, label: str, role: str, sent: float, reply: Dict,
               received: float, size: int = 0) -> Optional[Dict]:
        latency = received - sent
        self.attempted += 1
        if self.measuring:
            self.seconds += latency
        ok = bool(reply.get("ok"))
        if not ok:
            self.failed += 1
        self.tally.check(ok, f"{label}: {reply.get('error')}")
        self.log[label] = {"role": role, "sent": sent, "latency": latency,
                           "size": size}
        return reply.get("body") if ok else None

    def call(self, tenant: Tenant, op: str, body: Optional[Dict] = None,
             role: str = "", size: int = 0) -> Tuple[Optional[Dict], float]:
        env, label = tenant.envelope(op, body)
        sent = tenant.conn.send(env)
        reply, received = tenant.conn.recv()
        return self.finish(label, role or op, sent, reply, received, size), received - sent


def check_window(tally, tenant: Tenant, body: Optional[Dict], expect: Optional[int]) -> None:
    """Fold a step reply's rows into the client digest and compare."""
    if body is None:
        return
    rows = body.get("observables", [])
    for row in rows:
        tenant.digest.update(canonical_json(row).encode())
        tenant.digest.update(b"\n")
    tenant.windows.append(expect)
    tally.check(
        body.get("digest") == tenant.digest.hexdigest()
        and (expect is None or len(rows) == expect),
        f"{tenant.name}: step window of {len(rows)} rows does not match "
        "its digest or size",
    )


class DaemonLoop:
    """Shared bookkeeping of both daemon loops."""

    def __init__(self, daemon: Daemon, seed: int, setup, tally, tag: str) -> None:
        self.daemon = daemon
        self.seed = seed
        self.setup = setup
        self.tally = tally
        self.tag = tag
        self.requests = Requests(tally)
        #: op -> client-observed seconds of every measured request.
        self.samples: Dict[str, List[float]] = {"step": [], "get": [], "put": []}
        #: (op, group, position) -> fastest measured latency of that request.
        self.best: Dict[Tuple[str, int, int], float] = {}
        #: (params, windows, close digest) of every closed tenant.
        self.closed: List[Tuple[Dict, List[Optional[int]], str]] = []

    def open(self, tenant: Tenant, kind: str) -> None:
        body, latency = self.requests.call(tenant, "open", tenant.open_body())
        self.setup.add(kind, latency)
        self.tally.check(body is not None and not body.get("attached"),
                         f"{tenant.name}: open did not create a session")

    def close(self, tenant: Tenant, report: bool) -> None:
        if report:
            body, _ = self.requests.call(tenant, "report")
            self.tally.check(
                body is not None and protocol.verify_report(body, SERVICE_SECRET),
                f"{tenant.name}: report fails verify_report",
            )
        body, _ = self.requests.call(tenant, "close")
        if body is not None:
            self.tally.check(
                body.get("digest") == tenant.digest.hexdigest(),
                f"{tenant.name}: close digest differs from the rows received",
            )
            self.closed.append((tenant.params, list(tenant.windows), body["digest"]))

    def verify_replays(self) -> None:
        """Every close digest equals an in-process replay of the same steps."""
        cache: Dict[str, str] = {}
        for params, windows, got in self.closed:
            key = json.dumps([params, windows], sort_keys=True)
            if key not in cache:
                session = EngineSession.from_params(
                    **{k: v for k, v in params.items() if k != "data_bytes"}
                )
                for window in windows:
                    session.step(window)
                cache[key] = session.observable_digest()
            self.tally.check(
                cache[key] == got,
                f"close digest {got[:12]} != in-process replay {cache[key][:12]}",
            )

    def stats_check(self, conn: Conn) -> None:
        """The daemon's own shed/reject/error counters must stay at zero."""
        env = protocol.make_request(next(_ids), "stats")
        conn.send(env)
        reply, _ = conn.recv()
        metrics = reply.get("body", {}).get("metrics", {})
        bad = {
            k: v for k, v in metrics.items()
            if v and (k.startswith("service.errors.") or k in (
                "service.shed_requests", "service.rejected_frames"))
        }
        self.tally.check(reply.get("ok") and not bad, f"daemon counted failures: {bad}")

    def sample(self, measure: bool, op: str, group: int, position: int,
               latency: float) -> None:
        if measure:
            self.samples[op].append(latency)
            key = (op, group, position)
            self.best[key] = min(latency, self.best.get(key, latency))

    def metrics(self) -> Dict[str, float]:
        """Median and tail over each request position's fastest repetition."""
        from perfbench.metrics import median, tail

        ms = {op: [v * 1e3 for k, v in self.best.items() if k[0] == op]
              for op in ("step", "get", "put")}
        p, value, n = tail(ms["step"])
        self.tail_info = {"percentile": p, "positions": n}
        return {
            "step_best_p50_ms": median(ms["step"]),
            "step_best_tail_ms": value,
            "get_best_p50_ms": median(ms["get"]),
            "put_best_p50_ms": median(ms["put"]),
        }

    def raw(self) -> Dict[str, float]:
        """Median and tail over every measured client-observed sample."""
        from perfbench.metrics import median, tail

        ms = {op: [v * 1e3 for v in values] for op, values in self.samples.items()}
        p, value, n = tail(ms["step"])
        return {
            "step_p50_ms": median(ms["step"]),
            "step_tail_ms": value,
            "step_tail_percentile": p,
            "step_samples": n,
            "get_p50_ms": median(ms["get"]),
            "put_p50_ms": median(ms["put"]),
        }


class ClosedLoop(DaemonLoop):
    """stream/scatter: one tenant, one connection, closed loop."""

    GROUPS = 3
    #: Step windows per round: with ``GROUPS`` groups, 100-199 step
    #: positions, so the tail is p90 (see :func:`perfbench.metrics.tail`).
    WINDOWS = {"stream": 48, "scatter": 40}
    WINDOW = 64

    def __init__(self, daemon: Daemon, workload: str, seed: int, setup, tally,
                 tag: str, durations: List[float]) -> None:
        super().__init__(daemon, seed, setup, tally, tag)
        self.workload = workload
        self.conn = Conn(daemon.socket)
        self.scenario = "cc1" if workload == "stream" else "ff1"
        self.windows = self.WINDOWS[workload]
        self.durations = durations
        setup.need("open", 1)

    def round(self, index: int, measure: bool) -> None:
        group = index % self.GROUPS
        rng = random.Random(self.seed * 7919 + group)
        stream = self.workload == "stream"
        params = {
            "scenario": self.scenario, "scheme": "ours", "engine": "scalar",
            "duration": self.durations[group], "seed": self.seed * 16 + group,
            "data_bytes": (4 if stream else 64) * 32768,
        }
        name = f"{self.tag}-{self.workload}-{index}"
        tenant = Tenant(self.conn, name if measure else f"warm-{name}", params)
        self.open(tenant, "open")
        calls = self.requests.call
        for position in range(self.windows):
            body, latency = calls(tenant, "step", {"requests": self.WINDOW},
                                  size=self.WINDOW)
            check_window(self.tally, tenant, body, self.WINDOW)
            self.sample(measure, "step", group, position, latency)
        shadow: Dict[int, bytes] = {}
        if stream:
            chunk = rng.randrange(4) * 32768
            data = rng.randbytes(32768)
            puts = [(chunk, data)]
            gets = [chunk + rng.randrange(512) * 64 for _ in range(4)]
        else:
            lines = rng.sample(range(64 * 512), 8)
            puts = [(line * 64, rng.randbytes(64)) for line in lines]
            gets = [rng.choice(lines) * 64 for _ in range(16)]
        for position, (addr, data) in enumerate(puts):
            body, latency = calls(tenant, "put", {"addr": addr, "data_hex": data.hex()})
            for off in range(0, len(data), 64):
                shadow[addr + off] = data[off : off + 64]
            self.sample(measure, "put", group, position, latency)
        for position, addr in enumerate(gets):
            body, latency = calls(tenant, "get", {"addr": addr, "size": 64})
            got = bytes.fromhex(body["data_hex"]) if body else None
            self.tally.check(got == shadow[addr], f"{tenant.name}: get {addr:#x} != last put")
            self.sample(measure, "get", group, position, latency)
        self.close(tenant, report=True)

    def finish(self) -> None:
        self.stats_check(self.conn)
        self.conn.close()


class MixedLoop(DaemonLoop):
    """mixed: bulk whole-run steps on A, small bursts queued behind on B."""

    GROUPS = 4
    #: Small step windows per burst, for a p90 tail as in :class:`ClosedLoop`.
    SMALL_STEPS = 36
    WINDOW = 32
    #: Requests in one bulk session (``cc1``/``ours``, scalar engine).
    BULK_REQUESTS = 2400

    def __init__(self, daemon: Daemon, seed: int, setup, tally, tag: str,
                 bulk_durations: List[float], small_durations: List[float]) -> None:
        super().__init__(daemon, seed, setup, tally, tag)
        self.bulk_conn = Conn(daemon.socket)
        self.small_conn = Conn(daemon.socket)
        self.bulk_durations = bulk_durations
        self.small_durations = small_durations
        setup.need("open_bulk", 1)
        setup.need("open_small", 1)

    def round(self, index: int, measure: bool) -> None:
        group = index % self.GROUPS
        rng = random.Random(self.seed * 7919 + group)
        tag = self.tag if measure else f"warm-{self.tag}"
        bulk = Tenant(self.bulk_conn, f"{tag}-bulk-{index}", {
            "scenario": "cc1", "scheme": "ours", "engine": "scalar",
            "duration": self.bulk_durations[group], "seed": self.seed * 16 + group,
        })
        small = Tenant(self.small_conn, f"{tag}-small-{index}", {
            "scenario": "ff1", "scheme": "ours", "engine": "scalar",
            "duration": self.small_durations[group], "seed": self.seed * 16 + group,
            "data_bytes": 64 * 32768,
        })
        self.open(bulk, "open_bulk")
        self.open(small, "open_small")

        env, bulk_label = bulk.envelope("step")
        bulk_sent = bulk.conn.send(env)
        time.sleep(max(0.0, bulk_sent + OFFSET_S - time.perf_counter()))
        addr = rng.randrange(64 * 512) * 64
        data = rng.randbytes(64)
        burst = [("step", {"requests": self.WINDOW})] * self.SMALL_STEPS
        burst += [("put", {"addr": addr, "data_hex": data.hex()}),
                  ("get", {"addr": addr, "size": 64})]
        sent = []
        for op, body in burst:
            env, label = small.envelope(op, body)
            sent.append((op, label, small.conn.send(env)))
        for position, (op, label, at) in enumerate(sent):
            reply, received = small.conn.recv()
            body = self.requests.finish(label, "small", at, reply, received,
                                        self.WINDOW if op == "step" else 0)
            if op == "step":
                check_window(self.tally, small, body, self.WINDOW)
            elif op == "get":
                got = bytes.fromhex(body["data_hex"]) if body else None
                self.tally.check(got == data, f"{small.name}: get != last put")
            self.sample(measure, op, group, position, received - at)
        reply, received = bulk.conn.recv()
        body = self.requests.finish(bulk_label, "bulk", bulk_sent, reply, received,
                                    1 << 30)
        check_window(self.tally, bulk, body, None)
        self.close(bulk, report=False)
        self.close(small, report=True)

    def finish(self) -> None:
        self.stats_check(self.small_conn)
        self.bulk_conn.close()
        self.small_conn.close()

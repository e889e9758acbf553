"""Live-daemon integration: lifecycle, parity, robustness matrix.

Boots a real :class:`ServiceDaemon` on a Unix socket (or TCP port)
inside ``asyncio.run`` and drives it through real connections.  The
robustness half is the ISSUE's fuzz matrix: truncated frames,
oversized lengths, garbage JSON and mid-session disconnects must never
crash the daemon or leak a session, and must tick the
``service.rejected_frames`` counter.
"""

import asyncio
import os
import struct
import tempfile
import uuid

import pytest

from repro.secure_memory.session import EngineSession
from repro.service import protocol
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.load import run_load

DURATION = 300.0


def short_socket_path():
    # Unix socket paths cap at ~104 bytes; pytest tmp_path is too deep.
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


def with_daemon(coro):
    """Run ``coro(daemon, path)`` against a started unix-socket daemon."""
    path = short_socket_path()

    async def body():
        daemon = ServiceDaemon(socket_path=path, service_secret=b"svc-key")
        await daemon.start()
        try:
            return await coro(daemon, path)
        finally:
            await daemon.close()

    try:
        return asyncio.run(body())
    finally:
        assert not os.path.exists(path), "socket must be unlinked"


def counter(daemon, name):
    return daemon.obs.registry.snapshot().get(f"service.{name}", 0)


# ----------------------------------------------------------------------
# Lifecycle + parity
# ----------------------------------------------------------------------

def test_open_step_report_close_with_parity():
    async def scenario(daemon, path):
        async with AsyncServiceClient(socket_path=path) as client:
            secret = b"tenant-key"
            opened = await client.open(
                "t1", secret, scenario="cc1", scheme="ours",
                duration=DURATION, seed=5,
            )
            assert opened["attached"] is False
            rows = []
            done = False
            while not done:
                step = await client.step("t1", secret, requests=37)
                rows.extend(step["observables"])
                done = step["done"]
            report = await client.report("t1", secret)
            closed = await client.close("t1", secret)

        local = EngineSession.from_params(
            scenario="cc1", scheme="ours", duration=DURATION, seed=5
        )
        local_rows = []
        while not local.done:
            local_rows.extend(local.step(37))
        assert rows == local_rows
        assert closed["digest"] == local.observable_digest()
        assert report["observables"]["sha256"] == local.observable_digest()
        assert protocol.verify_report(report, b"svc-key")
        assert not protocol.verify_report(report, b"not-the-key")
        assert len(daemon.tenants) == 0

    with_daemon(scenario)


def test_sessions_survive_reconnect():
    async def scenario(daemon, path):
        secret = b"k1"
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("t1", secret, duration=DURATION)
            first = await client.step("t1", secret, requests=10)
        # New connection, same tenant: re-attach and keep stepping.
        async with AsyncServiceClient(socket_path=path) as client:
            again = await client.open("t1", secret)
            assert again["attached"] is True
            assert again["snapshot"]["issued"] == 10
            nxt = await client.step("t1", secret, requests=10)
            assert nxt["observables"][0][0] == 10  # seq continues
            assert nxt["issued"] == 20
        assert len(daemon.tenants) == 1
        return first

    with_daemon(scenario)


def test_reattach_with_wrong_key_rejected():
    async def scenario(daemon, path):
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("t1", b"right", duration=DURATION)
        async with AsyncServiceClient(socket_path=path) as client:
            with pytest.raises(ServiceError, match="another key"):
                await client.open("t1", b"wrong")
        assert len(daemon.tenants) == 1

    with_daemon(scenario)


def test_replayed_seq_is_idempotent_but_stale_seq_rejected():
    async def scenario(daemon, path):
        secret = b"k"
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("t1", secret, duration=DURATION)
            first = await client.step("t1", secret, requests=5)
            # A byte-identical replay of the committed envelope (a
            # client retry after a lost response) answers from the
            # duplicate cache -- same body, no double-apply.
            client._seqs._seqs["t1"] -= 1
            again = await client.step("t1", secret, requests=5)
            assert again == first
            assert again["issued"] == 5  # engine did NOT advance twice
            assert counter(daemon, "duplicate_replays") == 1
            # A *different* envelope at a stale/equal seq is a true
            # replay forgery: rejected recoverably, stream survives.
            client._seqs._seqs["t1"] -= 1
            with pytest.raises(ServiceError, match="stale seq"):
                await client.step("t1", secret, requests=7)
            nxt = await client.step("t1", secret, requests=5)
            assert nxt["issued"] == 10

    with_daemon(scenario)


def test_unknown_tenant_and_bad_op_errors():
    async def scenario(daemon, path):
        async with AsyncServiceClient(socket_path=path) as client:
            with pytest.raises(ServiceError, match="no open session"):
                await client.step("ghost", b"k", requests=1)
            with pytest.raises(ServiceError, match="secret_hex"):
                await client.request("open", {}, tenant="t", secret=b"")
            with pytest.raises(ServiceError, match="duration"):
                await client.open("t", b"k", duration=-5.0)
            pong = await client.request("ping")
            assert pong["pong"] is True

    with_daemon(scenario)


def test_tcp_transport():
    async def scenario():
        daemon = ServiceDaemon(port=0)
        await daemon.start()
        try:
            async with AsyncServiceClient(port=daemon.port) as client:
                await client.open("t1", b"k", duration=DURATION)
                step = await client.step("t1", b"k")
                assert step["done"]
        finally:
            await daemon.close()

    asyncio.run(scenario())


def test_concurrent_smoke_with_mixed_engines():
    """In-loop miniature of the CI daemon job (parity across tenants)."""
    path = short_socket_path()

    async def body():
        daemon = ServiceDaemon(socket_path=path)
        return await run_load(
            tenants=16,
            connections=4,
            engines="mixed",
            duration=DURATION,
            daemon=daemon,
        )

    report = asyncio.run(body())
    assert report["ok"], report["failures"]
    assert report["sessions_completed"] == 16
    assert report["parity_checked"] == 16
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Robustness matrix (fuzz over a live socket)
# ----------------------------------------------------------------------

async def _raw(path, payload: bytes, expect_reply: bool):
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(payload)
    await writer.drain()
    reply = None
    if expect_reply:
        frame = await asyncio.wait_for(protocol.read_frame(reader), 5)
        reply = frame[1] if frame else None
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return reply


def test_frame_damage_counts_rejected_frames_without_crashing():
    async def scenario(daemon, path):
        # 1. oversized declared length
        reply = await _raw(
            path, struct.pack(">I", protocol.MAX_FRAME_BYTES + 1), True
        )
        assert reply is not None and reply["ok"] is False
        # 2. zero length
        await _raw(path, struct.pack(">I", 0), True)
        # 3. truncated body (header promises more than is sent)
        await _raw(path, struct.pack(">I", 100) + b"short", False)
        # 4. truncated header
        await _raw(path, b"\x00\x01", False)
        # 5. garbage JSON of honest length (recoverable: same
        #    connection must still answer a valid ping)
        garbage = b"\xff\xfe\xfdnot json"
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(struct.pack(">I", len(garbage)) + garbage)
        ping = protocol.make_request(1, "ping")
        writer.write(protocol.encode_frame(ping))
        await writer.drain()
        first = await asyncio.wait_for(protocol.read_frame(reader), 5)
        second = await asyncio.wait_for(protocol.read_frame(reader), 5)
        assert first[1]["ok"] is False
        assert second[1]["ok"] is True and second[1]["body"]["pong"]
        writer.close()
        await writer.wait_closed()

        # let half-open connections finish tearing down
        await asyncio.sleep(0.05)
        assert counter(daemon, "rejected_frames") >= 5
        # the daemon still serves full sessions afterwards
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("alive", b"k", duration=DURATION)
            step = await client.step("alive", b"k")
            assert step["done"]
        assert len(daemon.tenants) == 1

    with_daemon(scenario)


def test_mid_session_disconnect_leaks_nothing():
    async def scenario(daemon, path):
        secret = b"k"
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("t1", secret, duration=DURATION)
            await client.step("t1", secret, requests=3)
        # Abrupt: open a connection, send half an envelope, vanish.
        env = protocol.encode_frame(
            protocol.make_request(
                9, "step", {"requests": 1}, tenant="t1", seq=99,
                secret=secret,
            )
        )
        await _raw(path, env[: len(env) // 2], False)
        await asyncio.sleep(0.05)
        assert counter(daemon, "rejected_frames") >= 1
        # Session neither leaked nor lost: re-attach and finish it.
        async with AsyncServiceClient(socket_path=path) as client:
            again = await client.open("t1", secret)
            assert again["snapshot"]["issued"] == 3
            step = await client.step("t1", secret)
            assert step["done"]
            await client.close("t1", secret)
        assert len(daemon.tenants) == 0
        snap = daemon.obs.registry.snapshot()
        assert (
            snap["service.sessions_opened"]
            == snap["service.sessions_closed"]
        )

    with_daemon(scenario)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_random_bytes_then_valid_session(seed):
    """Random garbage streams never take the daemon down."""
    import random

    rng = random.Random(seed)

    async def scenario(daemon, path):
        for _ in range(8):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            try:
                await _raw(path, blob, False)
            except (ConnectionError, asyncio.TimeoutError):
                pass
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("ok", b"k", duration=DURATION)
            step = await client.step("ok", b"k")
            assert step["done"]

    with_daemon(scenario)


def test_oversized_get_is_rejected_typed_and_the_connection_survives():
    """A get whose hex reply cannot fit one frame fails before reading."""

    async def scenario(daemon, path):
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open("t1", b"k", duration=DURATION, data_bytes=8 << 20)
            with pytest.raises(ServiceError) as caught:
                await client.get("t1", b"k", 0, 5 << 20)
            assert caught.value.code == "too-large"
            assert str(protocol.MAX_FRAME_BYTES) in caught.value.message
            assert counter(daemon, "op.get") == 1  # one attempt, no retry
            assert counter(daemon, "errors.too-large") == 1
            # The same connection still serves a small get.
            assert await client.get("t1", b"k", 0, 64) == bytes(64)
            assert counter(daemon, "connections") == 1

    with_daemon(scenario)


def test_engine_errors_stay_per_request():
    async def scenario(daemon, path):
        async with AsyncServiceClient(socket_path=path) as client:
            await client.open(
                "t1", b"k", duration=DURATION, data_bytes=1 << 16
            )
            # Unaligned put: engine raises, daemon answers an error.
            with pytest.raises(ServiceError):
                await client.request(
                    "put", {"addr": 3, "data_hex": "ab"},
                    tenant="t1", secret=b"k",
                )
            # Same session still healthy.
            await client.request(
                "put", {"addr": 0, "data_hex": "ab" * 64},
                tenant="t1", secret=b"k",
            )
            got = await client.request(
                "get", {"addr": 0, "size": 64}, tenant="t1", secret=b"k"
            )
            assert got["data_hex"] == "ab" * 64

    with_daemon(scenario)

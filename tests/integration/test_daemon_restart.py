"""Daemon durability: restart rehydration, resync, torn tails, overload.

In-process counterpart of ``python -m repro chaos --mode daemon``:
two :class:`ServiceDaemon` instances share a ``--state-dir`` and the
first is torn down under a live client.  Because every journal append
is fsync'd *before* the response leaves the daemon, a graceful close
and a SIGKILL leave identical journal bytes -- so these tests exercise
the same rehydration code paths as the subprocess chaos harness, at
unit-test speed.
"""

import asyncio
import os
import tempfile

import pytest

from repro.service import protocol
from repro.service.chaos import dedupe_rows, short_socket_path
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.load import inprocess_digest
from repro.service.store import TenantStore

DURATION = 300.0
SVC_KEY = b"svc-key"


def make_daemon(path, state, **kwargs):
    return ServiceDaemon(
        socket_path=path, service_secret=SVC_KEY, state_dir=state, **kwargs
    )


def restart_story(coro):
    """Run ``coro(path, state)`` with socket + state-dir scaffolding."""
    path = short_socket_path()
    state = tempfile.mkdtemp(prefix="repro-restart-")
    try:
        return asyncio.run(coro(path, state))
    finally:
        assert not os.path.exists(path), "socket must be unlinked"


def counter(daemon, name):
    return daemon.obs.registry.snapshot().get(f"service.{name}", 0)


def params_for(seed, window):
    return {
        "scenario": "cc1", "scheme": "ours", "engine": "scalar",
        "duration": DURATION, "seed": seed, "window": window,
    }


async def open_tenant(client, tenant, secret, params):
    return await client.open(
        tenant, secret,
        scenario=params["scenario"], scheme=params["scheme"],
        engine=params["engine"], duration=params["duration"],
        seed=params["seed"],
    )


# ----------------------------------------------------------------------
# Rehydration + parity
# ----------------------------------------------------------------------

def test_restart_resumes_with_byte_identical_digests():
    async def scenario(path, state):
        params = params_for(seed=3, window=40)
        secret = b"k1"
        d1 = make_daemon(path, state)
        await d1.start()
        client = AsyncServiceClient(socket_path=path, retries=6)
        await client.connect()
        try:
            await open_tenant(client, "t1", secret, params)
            rows = []
            first = await client.step("t1", secret, requests=40)
            rows.extend(first["observables"])
            drained = await d1.close()  # journals survive the daemon
            assert drained == 1

            d2 = make_daemon(path, state)
            await d2.start()
            # Same client, same seq book: the step fails over, the
            # client reconnects, re-attaches, the daemon rehydrates.
            done, digest = False, None
            while not done:
                stepped = await client.step("t1", secret, requests=40)
                rows.extend(stepped["observables"])
                done, digest = stepped["done"], stepped["digest"]
            assert counter(d2, "sessions_rehydrated") == 1
            report = await client.report("t1", secret)
            await d2.close()

            clean_digest, clean_rows = inprocess_digest(
                params, "t1", secret
            )
            assert digest == clean_digest
            assert dedupe_rows(rows) == clean_rows
            assert protocol.verify_report(report, SVC_KEY)
            assert report["observables"]["sha256"] == clean_digest
        finally:
            await client.close_connection()

    restart_story(scenario)


def test_fresh_client_resyncs_at_the_daemon_watermark():
    async def scenario(path, state):
        params = params_for(seed=5, window=30)
        secret = b"k2"
        d1 = make_daemon(path, state)
        await d1.start()
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "t2", secret, params)
            await client.step("t2", secret, requests=30)
        await d1.close()

        d2 = make_daemon(path, state)
        await d2.start()
        # A brand-new client (fresh seq book, e.g. a new process) must
        # resync through open: the reattach response carries the
        # persisted watermark and the restored issued count.
        async with AsyncServiceClient(socket_path=path) as client:
            attach = await client.open("t2", secret)
            assert attach["attached"] is True
            assert attach["rehydrated"] is True
            assert attach["snapshot"]["issued"] == 30
            assert client._seqs._seqs["t2"] >= attach["seq"]
            stepped = await client.step("t2", secret, requests=30)
            assert stepped["issued"] == 60
            assert stepped["observables"][0][0] == 30  # row seq continues
        await d2.close()

    restart_story(scenario)


def test_rehydration_rejects_the_wrong_key():
    async def scenario(path, state):
        params = params_for(seed=1, window=25)
        d1 = make_daemon(path, state)
        await d1.start()
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "t3", b"right", params)
        await d1.close()

        d2 = make_daemon(path, state)
        await d2.start()
        async with AsyncServiceClient(socket_path=path) as client:
            with pytest.raises(ServiceError, match="another key"):
                await client.open("t3", b"wrong")
        await d2.close()

    restart_story(scenario)


# ----------------------------------------------------------------------
# Duplicate and stale envelopes across a restart
# ----------------------------------------------------------------------

def test_duplicate_step_after_restart_is_a_no_op():
    async def scenario(path, state):
        params = params_for(seed=7, window=20)
        secret = b"k3"
        d1 = make_daemon(path, state)
        await d1.start()
        client = AsyncServiceClient(socket_path=path, retries=6)
        await client.connect()
        try:
            await open_tenant(client, "t4", secret, params)
            first = await client.step("t4", secret, requests=20)
            await d1.close()

            d2 = make_daemon(path, state)
            await d2.start()
            # The retry of the final committed window: rewind the book
            # so the next envelope is byte-identical to the one whose
            # response "got lost" in the crash.
            client._seqs._seqs["t4"] -= 1
            again = await client.step("t4", secret, requests=20)
            assert again == first  # served from the rehydrated cache
            assert counter(d2, "duplicate_replays") == 1
            nxt = await client.step("t4", secret, requests=20)
            assert nxt["issued"] == 40  # applied exactly once
            await d2.close()
        finally:
            await client.close_connection()

    restart_story(scenario)


def test_stale_seq_after_restart_is_recoverable():
    async def scenario(path, state):
        params = params_for(seed=9, window=20)
        secret = b"k4"
        d1 = make_daemon(path, state)
        await d1.start()
        client = AsyncServiceClient(socket_path=path, retries=6)
        await client.connect()
        try:
            await open_tenant(client, "t5", secret, params)
            await client.step("t5", secret, requests=20)
            await d1.close()

            d2 = make_daemon(path, state)
            await d2.start()
            # A *different* envelope at the committed seq is a forgery,
            # not a retry: rejected recoverably, session intact.
            client._seqs._seqs["t5"] -= 1
            with pytest.raises(ServiceError, match="stale seq"):
                await client.step("t5", secret, requests=99)
            stepped = await client.step("t5", secret, requests=20)
            assert stepped["issued"] == 40
            await d2.close()
        finally:
            await client.close_connection()

    restart_story(scenario)


# ----------------------------------------------------------------------
# Torn journal tail
# ----------------------------------------------------------------------

def test_torn_tail_regresses_then_heals_with_parity():
    async def scenario(path, state):
        params = params_for(seed=11, window=25)
        secret = b"k5"
        d1 = make_daemon(path, state)
        await d1.start()
        client = AsyncServiceClient(socket_path=path, retries=6)
        await client.connect()
        try:
            await open_tenant(client, "t6", secret, params)
            rows = []
            for _ in range(2):
                stepped = await client.step("t6", secret, requests=25)
                rows.extend(stepped["observables"])
            await d1.close()

            # Tear the final committed entry mid-line (a kill inside
            # the append's write()).
            journal_path = TenantStore(state).path_for("t6")
            lines = journal_path.read_text(encoding="utf-8").splitlines(
                keepends=True
            )
            journal_path.write_text(
                "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
                encoding="utf-8",
            )

            d2 = make_daemon(path, state)
            await d2.start()
            attach = await client.open("t6", secret)
            assert attach["rehydrated"] is True
            assert attach["dropped_entries"] == 1
            assert attach["snapshot"]["issued"] == 25  # regressed by one
            # Healed on disk: a clean prefix, nothing dropped.
            reloaded = TenantStore(state).load("t6")
            assert reloaded is not None and reloaded[0].dropped_entries == 0
            done, digest = False, None
            while not done:
                stepped = await client.step("t6", secret, requests=25)
                rows.extend(stepped["observables"])
                done, digest = stepped["done"], stepped["digest"]
            await d2.close()

            clean_digest, clean_rows = inprocess_digest(
                params, "t6", secret
            )
            assert digest == clean_digest
            assert dedupe_rows(rows) == clean_rows
        finally:
            await client.close_connection()

    restart_story(scenario)


def test_close_discards_persisted_state():
    async def scenario(path, state):
        params = params_for(seed=2, window=20)
        secret = b"k6"
        d1 = make_daemon(path, state)
        await d1.start()
        store = TenantStore(state)
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "t7", secret, params)
            assert store.exists("t7")
            await client.close("t7", secret)
            assert not store.exists("t7")
        await d1.close()

        d2 = make_daemon(path, state)
        await d2.start()
        async with AsyncServiceClient(socket_path=path) as client:
            # The name is free again: open creates a *fresh* session.
            opened = await open_tenant(client, "t7", secret, params)
            assert opened["attached"] is False
        await d2.close()

    restart_story(scenario)


# ----------------------------------------------------------------------
# Overload protection
# ----------------------------------------------------------------------

def test_max_tenants_sheds_typed_and_retryable():
    async def scenario(path, state):
        d = make_daemon(path, state, max_tenants=2)
        await d.start()
        params = params_for(seed=0, window=20)
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "a", b"s", params)
            await open_tenant(client, "b", b"s", params)
            with pytest.raises(ServiceError) as excinfo:
                await open_tenant(client, "c", b"s", params)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after > 0
            # Shedding is not fatal: existing tenants keep working and
            # a freed slot admits the retry.
            await client.close("a", b"s")
            opened = await open_tenant(client, "c", b"s", params)
            assert opened["attached"] is False
        assert counter(d, "shed_requests") == 1
        await d.close()

    restart_story(scenario)


def test_step_byte_budget_sheds_oversized_windows():
    async def scenario(path, state):
        d = make_daemon(path, state, max_step_bytes=64 * 32)  # ~32 rows
        await d.start()
        params = params_for(seed=0, window=20)
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "a", b"s", params)
            with pytest.raises(ServiceError) as excinfo:
                await client.step("a", b"s", requests=100)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after is not None
            # A whole-run drain (no window) must also be bounded.
            with pytest.raises(ServiceError, match="budget"):
                await client.step("a", b"s")
            stepped = await client.step("a", b"s", requests=30)
            assert stepped["issued"] == 30
        assert counter(d, "shed_requests") == 2
        await d.close()

    restart_story(scenario)


def test_max_inflight_sheds_at_the_connection_loop():
    async def scenario(path, state):
        d = make_daemon(path, state, max_inflight=1)
        await d.start()
        params = params_for(seed=0, window=20)
        async with AsyncServiceClient(socket_path=path) as client:
            await open_tenant(client, "a", b"s", params)
            # Deterministic saturation: pin the gauge rather than racing
            # real concurrent requests.
            d._inflight = 1
            with pytest.raises(ServiceError) as excinfo:
                await client.step("a", b"s", requests=20)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after > 0
            d._inflight = 0
            stepped = await client.step("a", b"s", requests=20)
            assert stepped["issued"] == 20
        assert counter(d, "shed_requests") == 1
        await d.close()

    restart_story(scenario)

    # And the stats surface reports the limits + gauge.
    async def stats_scenario(path, state):
        d = make_daemon(path, state, max_inflight=7, max_tenants=9)
        await d.start()
        async with AsyncServiceClient(socket_path=path) as client:
            stats = await client.request("stats")
        assert stats["limits"]["max_inflight"] == 7
        assert stats["limits"]["max_tenants"] == 9
        assert stats["persisted_tenants"] == 0
        await d.close()

    restart_story(stats_scenario)

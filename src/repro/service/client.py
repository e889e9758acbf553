"""Client library for the ``repro-wire/v1`` daemon.

:class:`AsyncServiceClient` is the one client: asyncio, multiplexing
many tenants over ONE connection with response dispatch by request
id.  The load driver runs thousands of tenant sessions over a handful
of connections, so tenant-count scaling never collides with
file-descriptor limits; ``repro client`` runs one verb through it
under ``asyncio.run``.

It keeps a per-tenant ``seq`` watermark; after a reconnect, ``open``
(re-attach) returns the daemon's watermark so the client can resume
above it.

Resilience
----------
Connection failures never leak raw ``ConnectionRefusedError``: the
client retries with capped, deterministic jittered exponential backoff
(:func:`reconnect_delay`, mirroring ``ResiliencePolicy.backoff``) and
raises a typed :class:`ServiceUnavailableError` naming the endpoint
and attempt count once the budget is spent.

A request that dies mid-flight is retried **idempotently**: the
envelope is built once (fixed ``seq`` and ``tag``), the client
reconnects, re-attaches the tenant via ``open`` (using the params
cached from the original ``open``, so a restarted daemon can
rehydrate), and re-sends the *same* envelope.  The daemon either
answers from its duplicate cache (the window committed before the
crash) or re-executes the deterministic window -- a retried ``step``
never double-applies.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from typing import Dict, Optional

from repro.service import protocol
from repro.service.protocol import WireError


class ServiceError(WireError):
    """An error response from the daemon, raised client-side.

    ``retry_after`` is the daemon's backoff hint in seconds when the
    error is a shed (``code == "overloaded"``), else ``None``.
    """

    code = "service-error"

    def __init__(
        self,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class ServiceUnavailableError(WireError):
    """The daemon endpoint could not be reached within the retry budget."""

    code = "service-unavailable"

    def __init__(
        self, endpoint: str, attempts: int, cause: Optional[Exception] = None
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"service at {endpoint} unavailable after "
            f"{attempts} attempt(s){detail}"
        )
        self.endpoint = endpoint
        self.attempts = attempts
        self.cause = cause


def reconnect_delay(
    endpoint: str, attempt: int, base: float = 0.05, cap: float = 1.0
) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter fraction is keyed BLAKE2b of ``endpoint:attempt`` (the
    same discipline as ``ResiliencePolicy.backoff`` in
    :mod:`repro.sim.resilient`), so retry schedules are reproducible in
    tests while still de-synchronizing distinct endpoints.
    """
    raw = min(base * (2 ** attempt), cap)
    seed = hashlib.blake2b(
        f"{endpoint}:{attempt}".encode("utf-8"),
        digest_size=8,
        person=b"repro-reconnect",
    ).digest()
    jitter = int.from_bytes(seed, "big") / float(1 << 64)
    return raw * (0.5 + jitter)


def _raise_on_error(response: Dict[str, object]) -> Dict[str, object]:
    if not response.get("ok"):
        err = response.get("error", {})
        raise ServiceError(
            err.get("code", "unknown"),
            err.get("message", "unknown error"),
            retry_after=err.get("retry_after"),
        )
    return response["body"]  # type: ignore[return-value]


class _SeqBook:
    """Per-tenant monotonic sequence numbers."""

    def __init__(self) -> None:
        self._seqs: Dict[str, int] = {}

    def next(self, tenant: str) -> int:
        seq = self._seqs.get(tenant, 0) + 1
        self._seqs[tenant] = seq
        return seq

    def resume(self, tenant: str, watermark: int) -> None:
        self._seqs[tenant] = max(self._seqs.get(tenant, 0), int(watermark))


class AsyncServiceClient:
    """Asyncio client multiplexing many tenants over one connection.

    Requests may be issued concurrently from many tasks; a single
    reader task dispatches responses to waiters by request id, so in-
    flight windows from different tenants interleave freely on the one
    stream.  Reconnects are serialized through a connection lock: the
    first task to notice a dead stream re-dials (with backoff) and
    every task re-attaches its own tenant before re-sending its
    original envelope.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        retries: int = 4,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port required")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.retries = retries
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._seqs = _SeqBook()
        self._open_params: Dict[str, Dict[str, object]] = {}
        self._waiters: Dict[int, asyncio.Future] = {}
        self._pump: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._conn_lock = asyncio.Lock()

    def endpoint(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    async def connect(self) -> "AsyncServiceClient":
        if self.socket_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.socket_path
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        self._pump = asyncio.ensure_future(self._pump_responses())
        return self

    def _connected(self) -> bool:
        return (
            self._writer is not None
            and not self._writer.is_closing()
            and self._pump is not None
            and not self._pump.done()
        )

    async def _ensure_connected(self) -> None:
        """Dial (once across concurrent tasks) if the stream is dead."""
        async with self._conn_lock:
            if self._connected():
                return
            await self.close_connection()
            await self.connect()

    async def close_connection(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
            self._pump = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_waiters(protocol.FrameError("connection closed"))

    def _fail_waiters(self, exc: Exception) -> None:
        for future in self._waiters.values():
            if not future.done():
                future.set_exception(exc)
        self._waiters.clear()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close_connection()

    async def _pump_responses(self) -> None:
        assert self._reader is not None
        failure: Exception = protocol.FrameError("connection closed")
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break  # EOF: daemon went away; fail the in-flight set
                _, response = frame
                future = self._waiters.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (protocol.FrameError, ConnectionError) as exc:
            failure = exc
        finally:
            self._fail_waiters(failure)

    async def _send_once(self, env: Dict[str, object]) -> Dict[str, object]:
        assert self._writer is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[env["id"]] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode_frame(env))
                await self._writer.drain()
            response = await future
        finally:
            self._waiters.pop(env["id"], None)
        return _raise_on_error(response)

    async def _reattach(self, tenant: str, secret: bytes) -> None:
        body = dict(self._open_params.get(tenant, {}))
        body["secret_hex"] = secret.hex()
        seq = self._seqs.next(tenant)
        env = protocol.make_request(
            next(self._ids), "open", body,
            tenant=tenant, seq=seq, secret=secret,
        )
        out = await self._send_once(env)
        self._seqs.resume(tenant, out.get("seq", seq))

    async def request(
        self,
        op: str,
        body: Optional[Dict[str, object]] = None,
        tenant: str = "",
        secret: bytes = b"",
    ) -> Dict[str, object]:
        request_id = next(self._ids)
        seq = self._seqs.next(tenant) if op in protocol.TENANT_OPS else 0
        env = protocol.make_request(
            request_id, op, body, tenant=tenant, seq=seq, secret=secret
        )
        out = await self._request_with_retry(env, op, tenant, secret)
        if op == "open":
            self._open_params[tenant] = dict(body or {})
            self._open_params[tenant].pop("secret_hex", None)
            self._seqs.resume(tenant, out.get("seq", seq))
        return out

    async def _request_with_retry(
        self,
        env: Dict[str, object],
        op: str,
        tenant: str,
        secret: bytes,
    ) -> Dict[str, object]:
        last: Optional[Exception] = None
        resync = op in protocol.TENANT_OPS and op != "open"
        need_reattach = False
        reattached = False
        for attempt in range(self.retries + 1):
            try:
                await self._ensure_connected()
                if (attempt or need_reattach) and resync:
                    await self._reattach(tenant, secret)
                    need_reattach = False
                return await self._send_once(env)
            except ServiceError as exc:
                # Another task may have re-dialed after a daemon
                # restart without re-opening *this* tenant: do it once,
                # then re-send the same envelope.  Only for tenants
                # *this client* opened -- a truly unknown tenant stays
                # an error.
                if (
                    exc.code != "unknown-tenant"
                    or not resync
                    or reattached
                    or tenant not in self._open_params
                ):
                    raise
                reattached = True
                need_reattach = True
            except (protocol.FrameError, OSError) as exc:
                last = exc
                if attempt < self.retries:
                    await asyncio.sleep(
                        reconnect_delay(self.endpoint(), attempt)
                    )
        raise ServiceUnavailableError(
            self.endpoint(), self.retries + 1, last
        )

    async def open(
        self, tenant: str, secret: bytes, **params
    ) -> Dict[str, object]:
        body = dict(params)
        body["secret_hex"] = secret.hex()
        return await self.request("open", body, tenant=tenant, secret=secret)

    async def step(
        self,
        tenant: str,
        secret: bytes,
        requests: Optional[int] = None,
    ) -> Dict[str, object]:
        body = {} if requests is None else {"requests": requests}
        return await self.request("step", body, tenant=tenant, secret=secret)

    async def put(
        self, tenant: str, secret: bytes, addr: int, data: bytes
    ) -> Dict[str, object]:
        body = {"addr": addr, "data_hex": data.hex()}
        return await self.request("put", body, tenant=tenant, secret=secret)

    async def get(
        self, tenant: str, secret: bytes, addr: int, size: int = 64
    ) -> bytes:
        body = {"addr": addr, "size": size}
        out = await self.request("get", body, tenant=tenant, secret=secret)
        return bytes.fromhex(out["data_hex"])

    async def report(self, tenant: str, secret: bytes) -> Dict[str, object]:
        return await self.request("report", tenant=tenant, secret=secret)

    async def close(self, tenant: str, secret: bytes) -> Dict[str, object]:
        return await self.request("close", tenant=tenant, secret=secret)

"""The multi-tenant asyncio daemon serving keyed engine shards.

One :class:`ServiceDaemon` listens on a Unix socket or TCP port and
serves many concurrent tenants.  Each tenant owns a keyed
:class:`~repro.secure_memory.session.EngineSession` shard -- scalar or
fast engine per the requested ``engine`` -- with its own
quarantine/key-epoch state; sessions live in the daemon, not the
connection, so a tenant may reconnect (or multiplex many tenants over
one connection) and keep stepping the same shard.

Engine stepping is synchronous CPU work executed on the event loop:
shards are single-threaded deterministic simulators, so serving a
window inline is both the simplest and the only ordering that keeps
per-tenant byte-parity.  Concurrency comes from interleaving *windows*
of many tenants, and from batched ingestion -- a whole-run ``step`` on
a fast shard replays through the prebuilt ``engine_fast`` arenas in a
single fused pass.

Durability (``--state-dir``): every tenant gets an fsync'd
``repro-tenant/v1`` journal (:mod:`repro.service.store`) recording the
opening snapshot and each committed step window's digest.  A restarted
daemon lazily **rehydrates** a persisted tenant on its next ``open``:
the session is rebuilt from the journaled params and replayed to the
recorded watermark, asserting the recorded observable digest after
every window, so a reattaching client resumes with byte-identical
digests and attestation versus an uninterrupted run.  A torn tail
entry (crash mid-append) is dropped and healed; the lost window simply
re-executes on retry.

Overload protection: admission control (``max_tenants``,
``max_inflight``, a per-tenant step-window byte budget) sheds load
with typed retryable ``overloaded`` errors carrying a ``retry_after``
hint -- counted in ``service.shed_requests`` -- instead of stalling or
exhausting memory.

Failure containment (the fuzz suite drives every row of the failure
matrix in docs/daemon.md): framing damage counts
``service.rejected_frames`` and drops only the offending connection;
well-framed garbage earns an error response; per-op errors
(unknown tenant, bad auth, engine exceptions) are confined to an
error response for that request id.  A byte-identical *duplicate* of
the last committed request (a client retry after a lost response) is
answered idempotently from a per-tenant response cache -- a retried
``step`` never double-applies.  No path crashes the daemon or leaks a
session.
"""

from __future__ import annotations

import asyncio
import hmac
import os
import secrets as _secrets
from typing import Dict, List, Optional, Tuple

from repro.obs import ObsContext
from repro.secure_memory.session import EngineSession
from repro.service import protocol
from repro.service.protocol import (
    AuthError,
    EnvelopeError,
    FrameError,
    OverloadError,
    TooLargeError,
    UnknownTenantError,
    WireError,
)
from repro.service.store import TenantStore

#: Engine knobs ``open`` accepts, with bounds that keep one tenant from
#: monopolizing the daemon.
MAX_DURATION_CYCLES = 200_000.0
MAX_DATA_BYTES = 1 << 24

#: Canonical-JSON size estimate of one observable row, used to convert
#: the per-window byte budget into a row cap.
STEP_ROW_BYTES = 64

#: The ``open`` params the tenant journal header binds (and rehydration
#: replays); everything :meth:`EngineSession.from_params` accepts.
SESSION_PARAM_KEYS = (
    "scenario", "scheme", "engine", "duration", "seed", "warmup",
    "data_bytes",
)


class TenantShard:
    """One tenant's session plus its authentication/durability state."""

    __slots__ = ("name", "secret", "kid", "seq", "session", "journal",
                 "last")

    def __init__(
        self, name: str, secret: bytes, session: EngineSession
    ) -> None:
        self.name = name
        self.secret = secret
        self.kid = protocol.kid_for(secret)
        self.seq = 0
        self.session = session
        #: ``repro-tenant/v1`` journal when the daemon persists state.
        self.journal = None
        #: ``(seq, tag, body)`` of the last committed mutating request,
        #: so a byte-identical retry is answered without re-applying.
        self.last: Optional[Tuple[int, str, Dict[str, object]]] = None


class ServiceDaemon:
    """Asyncio front-end over per-tenant engine shards."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        service_secret: Optional[bytes] = None,
        obs: Optional[ObsContext] = None,
        state_dir: Optional[str] = None,
        max_tenants: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_step_bytes: Optional[int] = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port required")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.service_secret = service_secret or _secrets.token_bytes(32)
        self.obs = obs or ObsContext.disabled()
        self.counters = self.obs.registry.group("service")
        self.counters.declare(
            "shed_requests", "duplicate_replays", "sessions_rehydrated",
            "rejected_frames",
        )
        self.tenants: Dict[str, TenantShard] = {}
        self.store = TenantStore(state_dir) if state_dir else None
        self.max_tenants = max_tenants
        self.max_inflight = max_inflight
        self.max_step_bytes = max_step_bytes
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._peers: set = set()
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port
            )
            if self.port == 0:
                self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> int:
        """Graceful drain: stop accepting, park journals, unlink socket.

        Returns the number of tenant journals drained (flushed and
        closed; every append was already fsync'd, so a parked journal
        is durable by construction).  Persisted sessions are *not*
        deleted -- a restarted daemon rehydrates them on ``open``.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Sever live connections: a drained daemon must not keep
        # serving (or resurrecting) tenants through lingering streams.
        for writer in list(self._peers):
            writer.close()
        self._peers.clear()
        drained = 0
        for shard in list(self.tenants.values()):
            if shard.journal is not None:
                shard.journal.close()
                drained += 1
            self.counters.bump("sessions_closed")
        self.tenants.clear()
        if self.socket_path and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._closed.set()
        return drained

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then shut down cleanly."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.close()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self.counters.bump("connections")
        self._peers.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except FrameError as exc:
                    self.counters.bump("rejected_frames")
                    if getattr(exc, "recoverable", False):
                        # Stream still synchronized: answer and go on.
                        await self._send(
                            writer, protocol.error_response(None, exc)
                        )
                        continue
                    # Desynchronized: best-effort error, then drop.
                    try:
                        await self._send(
                            writer, protocol.error_response(None, exc)
                        )
                    except (ConnectionError, RuntimeError):
                        pass
                    break
                if frame is None:
                    break  # clean EOF
                _, request = frame
                if (
                    self.max_inflight is not None
                    and self._inflight >= self.max_inflight
                ):
                    response = self._shed(
                        request.get("id"),
                        f"daemon at max inflight ({self.max_inflight})",
                        retry_after=0.05,
                    )
                else:
                    self._inflight += 1
                    try:
                        response = await self._dispatch(request)
                    finally:
                        self._inflight -= 1
                await self._send(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._peers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer, payload: Dict[str, object]) -> None:
        writer.write(protocol.encode_frame(payload))
        await writer.drain()

    def _shed(
        self, request_id, why: str, retry_after: float
    ) -> Dict[str, object]:
        """One admission-control rejection: typed, retryable, counted."""
        self.counters.bump("shed_requests")
        exc = OverloadError(f"{why}; retry later", retry_after=retry_after)
        self.counters.bump(f"errors.{exc.code}")
        return protocol.error_response(request_id, exc)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        request_id = request.get("id")
        try:
            op = protocol.validate_envelope(request)
            self.counters.bump(f"op.{op}")
            if op in protocol.SERVICE_OPS:
                body = self._service_op(op)
            elif op == "open":
                body = self._op_open(request)
            else:
                # Yield once so concurrently connected clients can be
                # admitted (or shed) while this envelope holds a slot.
                await asyncio.sleep(0)
                body = self._tenant_op(op, request)
            return protocol.ok_response(request_id, body)
        except WireError as exc:
            # Shed sites bump service.shed_requests themselves; here we
            # only classify the error for the per-code counters.
            self.counters.bump(f"errors.{exc.code}")
            return protocol.error_response(request_id, exc)
        except Exception as exc:  # engine errors stay per-request
            self.counters.bump("errors.internal")
            return protocol.error_response(request_id, exc)

    def _service_op(self, op: str) -> Dict[str, object]:
        if op == "ping":
            return {"pong": True}
        body: Dict[str, object] = {  # stats
            "tenants": len(self.tenants),
            "service_kid": protocol.kid_for(self.service_secret),
            "inflight": self._inflight,
            "limits": {
                "max_tenants": self.max_tenants,
                "max_inflight": self.max_inflight,
                "max_step_bytes": self.max_step_bytes,
            },
            "metrics": self.obs.registry.snapshot(),
        }
        if self.store is not None:
            body["persisted_tenants"] = self.store.count()
        return body

    # ------------------------------------------------------------------
    # open: attach, rehydrate, or create
    # ------------------------------------------------------------------

    def _admit_tenant(self) -> None:
        if (
            self.max_tenants is not None
            and len(self.tenants) >= self.max_tenants
        ):
            self.counters.bump("shed_requests")
            raise OverloadError(
                f"tenant limit of {self.max_tenants} reached; retry later",
                retry_after=0.25,
            )

    def _op_open(self, request: Dict[str, object]) -> Dict[str, object]:
        tenant = request["tenant"]
        body = request.get("body", {})
        secret = bytes.fromhex(body.get("secret_hex", ""))
        shard = self.tenants.get(tenant)
        if shard is not None:
            # Re-attach: same key proves the same principal; the shard
            # (and its seq watermark) survives reconnects.
            if request["kid"] != shard.kid:
                raise AuthError(
                    f"tenant {tenant!r} already open under another key"
                )
            protocol.verify_tag(shard.secret, request)
            self.counters.bump("sessions_reattached")
            return {
                "attached": True,
                "seq": shard.seq,
                "snapshot": shard.session.snapshot(),
            }
        if not secret:
            raise EnvelopeError("open requires a non-empty secret_hex")
        if self.store is not None and self.store.exists(tenant):
            return self._op_rehydrate(tenant, secret, request)
        protocol.verify_tag(secret, request)
        self._admit_tenant()
        duration = float(body.get("duration", 2000.0))
        if not 0 < duration <= MAX_DURATION_CYCLES:
            raise EnvelopeError(
                f"duration {duration} outside (0, {MAX_DURATION_CYCLES}]"
            )
        data_bytes = int(body.get("data_bytes", 0))
        if not 0 <= data_bytes <= MAX_DATA_BYTES:
            raise EnvelopeError(
                f"data_bytes {data_bytes} outside [0, {MAX_DATA_BYTES}]"
            )
        params = {
            "scenario": body.get("scenario", "cc1"),
            "scheme": body.get("scheme", "ours"),
            "engine": body.get("engine", "scalar"),
            "duration": duration,
            "seed": int(body.get("seed", 0)),
            "warmup": bool(body.get("warmup", False)),
            "data_bytes": data_bytes,
        }
        session = EngineSession.from_params(
            tenant=tenant, secret=secret, **params
        )
        shard = TenantShard(tenant, secret, session)
        shard.seq = request["seq"]
        if self.store is not None:
            shard.journal = self.store.create(tenant, shard.kid, params)
            shard.journal.record_open(shard.seq, session.snapshot())
        self.tenants[tenant] = shard
        self.counters.bump("sessions_opened")
        return {
            "attached": False,
            "seq": shard.seq,
            "engine": session.engine,
            "total_requests": session.total_requests,
        }

    def _op_rehydrate(
        self, tenant: str, secret: bytes, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Rebuild a persisted tenant from its journal, then attach.

        The journal header binds the key id: a different key cannot
        hijack persisted state.  Replay verifies the recorded
        observable digest after every step window; an entry that fails
        verification (tamper, torn write that still parsed) ends the
        usable prefix exactly like a torn tail -- the journal heals to
        the good prefix and the dropped windows re-execute on retry.
        """
        assert self.store is not None
        loaded = self.store.load(tenant)
        if loaded is None:
            # Header damage: nothing trustworthy survived.  Retry the
            # open as a fresh session (the store discarded the file).
            return self._op_open(request)
        journal, entries = loaded
        if request["kid"] != journal.header.get("kid"):
            raise AuthError(
                f"tenant {tenant!r} persisted under another key"
            )
        protocol.verify_tag(secret, request)
        self._admit_tenant()
        params = dict(journal.header.get("params", {}))
        damaged = journal.dropped_entries
        while True:
            session = EngineSession.from_params(
                tenant=tenant, secret=secret,
                **{k: params[k] for k in SESSION_PARAM_KEYS if k in params},
            )
            ok, seq, last, valid = self._replay(session, entries)
            if ok:
                break
            damaged += len(entries) - len(valid)
            entries = valid
        if damaged:
            journal.truncate_to(entries)
        shard = TenantShard(tenant, secret, session)
        shard.seq = seq
        shard.last = last
        shard.journal = journal
        self.tenants[tenant] = shard
        self.counters.bump("sessions_rehydrated")
        return {
            "attached": True,
            "rehydrated": True,
            "dropped_entries": damaged,
            "seq": shard.seq,
            "snapshot": session.snapshot(),
        }

    @staticmethod
    def _replay(
        session: EngineSession, entries: List[Dict[str, object]]
    ) -> Tuple[bool, int, Optional[Tuple[int, str, Dict[str, object]]],
               List[Dict[str, object]]]:
        """Apply journal entries in order; verify digests as recorded.

        Returns ``(ok, seq_watermark, last_response, valid_prefix)``.
        ``ok=False`` means entry ``len(valid_prefix)`` lied about the
        deterministic replay (digest or issued mismatch): the caller
        truncates to the prefix and replays a fresh session.
        """
        seq = 0
        last: Optional[Tuple[int, str, Dict[str, object]]] = None
        for index, entry in enumerate(entries):
            kind = entry.get("type")
            try:
                if kind == "open":
                    seq = int(entry["seq"])
                elif kind == "step":
                    target = int(entry["issued"])
                    rows = session.step_to(target)
                    if (
                        session.issued != target
                        or session.observable_digest() != entry["digest"]
                    ):
                        return False, 0, None, entries[:index]
                    seq = int(entry["seq"])
                    last = (seq, str(entry["tag"]), {
                        "observables": rows,
                        "issued": session.issued,
                        "total_requests": session.total_requests,
                        "done": session.done,
                        "digest": str(entry["digest"]),
                    })
                elif kind == "put":
                    session.put(
                        int(entry["addr"]),
                        bytes.fromhex(entry["data_hex"]),
                    )
                    seq = int(entry["seq"])
                    last = (seq, str(entry["tag"]), {"ok": True})
                else:
                    return False, 0, None, entries[:index]
            except (KeyError, ValueError, TypeError):
                return False, 0, None, entries[:index]
        return True, seq, last, entries

    # ------------------------------------------------------------------
    # Tenant ops
    # ------------------------------------------------------------------

    def _tenant_op(
        self, op: str, request: Dict[str, object]
    ) -> Dict[str, object]:
        tenant = request["tenant"]
        shard = self.tenants.get(tenant)
        if shard is None:
            if self.store is not None and self.store.exists(tenant):
                # Persisted but not yet rehydrated: only `open` may
                # rehydrate (it carries the secret); tell the client to
                # resync there rather than desyncing the stream.
                raise UnknownTenantError(
                    f"tenant {tenant!r} has no open session "
                    "(persisted state exists; re-open to rehydrate)"
                )
            raise UnknownTenantError(
                f"tenant {tenant!r} has no open session"
            )
        protocol.verify_tag(shard.secret, request)
        seq = request["seq"]
        if (
            shard.last is not None
            and seq == shard.last[0]
            and hmac.compare_digest(shard.last[1], request["tag"])
        ):
            # Byte-identical retry of the last committed request (the
            # response was lost in transit): answer idempotently, never
            # double-apply.
            self.counters.bump("duplicate_replays")
            return dict(shard.last[2])
        if seq <= shard.seq:
            raise AuthError(
                f"stale seq {seq} (watermark {shard.seq})"
            )
        shard.seq = seq
        session = shard.session
        body = request.get("body", {})

        if op == "step":
            requests = body.get("requests")
            if requests is not None:
                requests = int(requests)
                if requests <= 0:
                    raise EnvelopeError("step requests must be positive")
            if self.max_step_bytes is not None:
                budget_rows = max(1, self.max_step_bytes // STEP_ROW_BYTES)
                window = (
                    requests
                    if requests is not None
                    else max(0, session.total_requests - session.issued)
                )
                if window > budget_rows:
                    self.counters.bump("shed_requests")
                    raise OverloadError(
                        f"step window of {window} rows exceeds the "
                        f"{self.max_step_bytes}-byte budget "
                        f"(~{budget_rows} rows); retry with a bounded "
                        "window",
                        retry_after=0.0,
                    )
            window_rows = session.step(requests)
            self.counters.bump("requests_stepped", len(window_rows))
            result = {
                "observables": window_rows,
                "issued": session.issued,
                "total_requests": session.total_requests,
                "done": session.done,
                "digest": session.observable_digest(),
            }
            if shard.journal is not None:
                shard.journal.record_step(
                    seq, request["tag"], session.issued, result["digest"]
                )
            shard.last = (seq, request["tag"], result)
            return result
        if op == "put":
            addr = int(body.get("addr", 0))
            data_hex = body.get("data_hex", "")
            session.put(addr, bytes.fromhex(data_hex))
            if shard.journal is not None:
                shard.journal.record_put(seq, request["tag"], addr, data_hex)
            result = {"ok": True}
            shard.last = (seq, request["tag"], result)
            return result
        if op == "get":
            addr = int(body.get("addr", 0))
            size = int(body.get("size", 64))
            limit = protocol.max_get_bytes(request.get("id"))
            if size > limit:
                # Refuse before reading: the hex reply could never be
                # framed, and a retry would only repeat the read.
                raise TooLargeError(
                    f"get of {size} bytes exceeds the {limit}-byte reply "
                    f"limit of one {protocol.MAX_FRAME_BYTES}-byte frame; "
                    "split it into smaller gets"
                )
            data = session.get(addr, size)
            result = {"data_hex": data.hex()}
            shard.last = (seq, request["tag"], result)
            return result
        if op == "snapshot":
            result = session.snapshot()
            shard.last = (seq, request["tag"], result)
            return result
        if op == "report":
            self.counters.bump("reports_signed")
            result = protocol.sign_report(
                session.report(), self.service_secret
            )
            shard.last = (seq, request["tag"], result)
            return result
        # close: drop the shard and its persisted state (the name is
        # free again; a closed tenant is gone, not resumable).
        del self.tenants[tenant]
        if shard.journal is not None:
            shard.journal.unlink()
        elif self.store is not None:
            self.store.discard(tenant)
        self.counters.bump("sessions_closed")
        return {
            "closed": True,
            "issued": session.issued,
            "digest": session.observable_digest(),
        }

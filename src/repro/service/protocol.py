"""``repro-wire/v1``: length-prefixed JSON frames + authenticated envelopes.

Framing
-------
One frame = a 4-byte big-endian length header followed by that many
bytes of UTF-8 JSON encoding one object.  Frames above
:data:`MAX_FRAME_BYTES` (or with a zero length) are rejected at the
header, before any allocation.  Framing damage -- truncated header or
body, oversized length -- desynchronizes the stream, so the daemon
drops the connection after counting ``service.rejected_frames``;
well-framed garbage (bad UTF-8 / JSON / non-object payloads) keeps the
stream synchronized, so it earns an error response and the connection
survives.

Envelopes
---------
Every request is an object::

    {"v": "repro-wire/v1", "id": <client request id>, "op": <verb>,
     "tenant": <name>, "seq": <monotonic int>, "kid": <key id>,
     "tag": <keyed-blake2b hex>, "body": {...}}

The tag authenticates ``tenant|op|seq`` as associated data plus the
canonical JSON of ``body`` under the tenant secret (keyed BLAKE2b,
mirroring :class:`~repro.crypto.keys.KeySet.derive`).  ``seq`` must be
strictly increasing per tenant -- replayed or reordered envelopes are
rejected with ``auth-error``.  ``kid`` lets the daemon reject a wrong
key without doing tag math.  Responses echo ``id`` and carry either
``{"ok": true, "body": ...}`` or ``{"ok": false, "error": {...}}``.

Reports
-------
Attestation reports (``repro-attest/v1`` bodies from
:meth:`EngineSession.report`) are signed by the daemon's service key:
``sig`` = keyed BLAKE2b over the canonical body, ``service_kid``
identifies the key.  :func:`verify_report` checks both.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import struct
from typing import Dict, Optional, Tuple

from repro.common.canonical import canonical_json

WIRE_SCHEMA = "repro-wire/v1"
MAX_FRAME_BYTES = 8 * 1024 * 1024
_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: Verbs a tenant may send.  ``open`` creates (or re-attaches to) a
#: session; everything else requires one.
TENANT_OPS = ("open", "step", "put", "get", "snapshot", "report", "close")
#: Verbs that need no tenant (service-level).
SERVICE_OPS = ("ping", "stats")
ALL_OPS = TENANT_OPS + SERVICE_OPS


class WireError(Exception):
    """Base protocol error: ``code`` is the machine-readable slug."""

    code = "wire-error"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class FrameError(WireError):
    """Framing-layer damage; counts toward ``service.rejected_frames``."""

    code = "frame-error"


class EnvelopeError(WireError):
    """Well-framed but malformed envelope (missing/invalid fields)."""

    code = "envelope-error"


class AuthError(WireError):
    """Bad key id, bad tag, or non-monotonic sequence number."""

    code = "auth-error"


class UnknownTenantError(WireError):
    """Tenant has no live (or persisted) session on this daemon.

    Distinct from :class:`EnvelopeError` so a resilient client can
    recognise "the daemon restarted without my state" and re-open
    instead of treating the response as a malformed-request bug.
    """

    code = "unknown-tenant"


class OverloadError(WireError):
    """The daemon is shedding load (admission control).

    Typed and *retryable*: the response carries ``retry_after`` (a
    client hint in seconds) so callers back off instead of hammering
    a saturated daemon.  Counted in ``service.shed_requests``.
    """

    code = "overloaded"

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StateError(WireError):
    """Persisted tenant state failed verification during rehydration."""

    code = "state-error"


class TooLargeError(WireError):
    """The reply to this request cannot fit in one frame.

    Typed and *not* retryable: the same request always needs the same
    reply, so the caller must ask for less (split a large ``get``).
    """

    code = "too-large"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one JSON object into a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_length(header: bytes) -> int:
    """Validate a 4-byte header; return the body length."""
    if len(header) != HEADER_BYTES:
        raise FrameError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_body(data: bytes) -> Dict[str, object]:
    """Parse a frame body into one JSON object."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError("frame body must be a JSON object")
    return obj


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, Dict[str, object]]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameError` on damage.  Returns ``(length, obj)``
    so callers can account bytes.  A body that fails JSON parsing is
    reported as a *recoverable* FrameError (``recoverable=True`` on
    the exception): the declared length was honoured, so the stream is
    still synchronized.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameError("connection closed mid-header") from None
    length = decode_length(header)
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame") from None
    try:
        return length, decode_body(data)
    except FrameError as exc:
        exc.recoverable = True  # stream still synchronized
        raise


# ----------------------------------------------------------------------
# Authentication
# ----------------------------------------------------------------------

def kid_for(secret: bytes) -> str:
    """Short public identifier of a tenant secret."""
    return hashlib.blake2b(
        secret, digest_size=8, person=b"repro-kid"
    ).hexdigest()


def tag_for(
    secret: bytes, tenant: str, op: str, seq: int, body: Dict[str, object]
) -> str:
    """Keyed-BLAKE2b tag over AAD (tenant|op|seq) + canonical body."""
    aad = f"{tenant}|{op}|{seq}|".encode("utf-8")
    return hashlib.blake2b(
        aad + canonical_json(body).encode("utf-8"),
        key=secret[:64],
        digest_size=16,
        person=b"repro-wire",
    ).hexdigest()


def make_request(
    request_id: int,
    op: str,
    body: Optional[Dict[str, object]] = None,
    tenant: str = "",
    seq: int = 0,
    secret: bytes = b"",
) -> Dict[str, object]:
    """Assemble (and, for tenant ops, authenticate) one envelope."""
    body = body or {}
    env: Dict[str, object] = {
        "v": WIRE_SCHEMA,
        "id": request_id,
        "op": op,
        "body": body,
    }
    if op in TENANT_OPS:
        env["tenant"] = tenant
        env["seq"] = seq
        env["kid"] = kid_for(secret)
        env["tag"] = tag_for(secret, tenant, op, seq, body)
    return env


def validate_envelope(obj: Dict[str, object]) -> str:
    """Structural checks; returns the verb.  Raises EnvelopeError."""
    if obj.get("v") != WIRE_SCHEMA:
        raise EnvelopeError(
            f"unsupported wire schema {obj.get('v')!r} "
            f"(expected {WIRE_SCHEMA!r})"
        )
    op = obj.get("op")
    if op not in ALL_OPS:
        raise EnvelopeError(f"unknown op {op!r}")
    if "id" not in obj:
        raise EnvelopeError("envelope missing request id")
    if not isinstance(obj.get("body", {}), dict):
        raise EnvelopeError("envelope body must be an object")
    if op in TENANT_OPS:
        tenant = obj.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise EnvelopeError(f"op {op!r} requires a tenant name")
        if not isinstance(obj.get("seq"), int):
            raise EnvelopeError(f"op {op!r} requires an integer seq")
        if not isinstance(obj.get("kid"), str) or not isinstance(
            obj.get("tag"), str
        ):
            raise EnvelopeError(f"op {op!r} requires kid and tag")
    return op  # type: ignore[return-value]


def verify_tag(
    secret: bytes, obj: Dict[str, object]
) -> None:
    """Check kid + tag of a validated tenant envelope."""
    if obj["kid"] != kid_for(secret):
        raise AuthError("unknown key id for tenant")
    expected = tag_for(
        secret,
        obj["tenant"],  # type: ignore[arg-type]
        obj["op"],  # type: ignore[arg-type]
        obj["seq"],  # type: ignore[arg-type]
        obj.get("body", {}),  # type: ignore[arg-type]
    )
    if not hmac.compare_digest(expected, obj["tag"]):  # type: ignore[arg-type]
        raise AuthError("envelope tag mismatch")


# ----------------------------------------------------------------------
# Responses and signed reports
# ----------------------------------------------------------------------

def ok_response(request_id, body: Dict[str, object]) -> Dict[str, object]:
    return {"v": WIRE_SCHEMA, "id": request_id, "ok": True, "body": body}


def max_get_bytes(request_id) -> int:
    """Largest ``get`` size whose reply frame fits :data:`MAX_FRAME_BYTES`.

    The reply is the ``ok`` envelope around ``{"data_hex": ...}``, two
    hex digits per byte; the request id is echoed, so it counts too.
    """
    empty = json.dumps(
        ok_response(request_id, {"data_hex": ""}), separators=(",", ":")
    ).encode("utf-8")
    return (MAX_FRAME_BYTES - len(empty)) // 2


def error_response(request_id, exc: Exception) -> Dict[str, object]:
    code = getattr(exc, "code", "internal-error")
    message = getattr(exc, "message", None) or str(exc)
    error: Dict[str, object] = {"code": code, "message": message}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {
        "v": WIRE_SCHEMA,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def sign_report(
    body: Dict[str, object], service_secret: bytes
) -> Dict[str, object]:
    """Attach ``service_kid`` + ``sig`` to an attestation body."""
    signed = dict(body)
    signed.pop("sig", None)
    signed.pop("service_kid", None)
    signed["service_kid"] = kid_for(service_secret)
    signed["sig"] = hashlib.blake2b(
        canonical_json(dict(body)).encode("utf-8"),
        key=service_secret[:64],
        digest_size=32,
        person=b"repro-att",
    ).hexdigest()
    return signed


def verify_report(
    report: Dict[str, object], service_secret: bytes
) -> bool:
    """True iff ``report`` carries a valid signature under the key."""
    body = {
        k: v for k, v in report.items() if k not in ("sig", "service_kid")
    }
    if report.get("service_kid") != kid_for(service_secret):
        return False
    expected = hashlib.blake2b(
        canonical_json(body).encode("utf-8"),
        key=service_secret[:64],
        digest_size=32,
        person=b"repro-att",
    ).hexdigest()
    sig = report.get("sig")
    return isinstance(sig, str) and hmac.compare_digest(expected, sig)

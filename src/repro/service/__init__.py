"""Secure-memory-as-a-service: daemon, wire protocol, client, load driver.

The service tier puts a long-lived multi-tenant asyncio daemon in
front of :class:`~repro.secure_memory.session.EngineSession` shards.
Each tenant owns a keyed shard (scalar or fast engine per
``SoCConfig.sim_engine``) with its own quarantine/epoch state; requests
cross an authenticated ``repro-wire/v1`` envelope rather than trusting
the transport.  See docs/daemon.md.
"""

from repro.service.protocol import (
    FrameError,
    AuthError,
    EnvelopeError,
    WireError,
    MAX_FRAME_BYTES,
    WIRE_SCHEMA,
)
from repro.service.daemon import ServiceDaemon
from repro.service.client import AsyncServiceClient

__all__ = [
    "ServiceDaemon",
    "AsyncServiceClient",
    "WireError",
    "FrameError",
    "AuthError",
    "EnvelopeError",
    "MAX_FRAME_BYTES",
    "WIRE_SCHEMA",
]

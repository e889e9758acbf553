"""Load driver: thousands of concurrent tenant sessions with parity.

Drives N tenants against a daemon -- in-process (``--selftest``) or an
external one (``scripts/load_daemon.py``) -- through the async
multiplexing client, then holds every tenant to :func:`parity_failure`
against an in-process replay of its exact parameters: the daemon's
observable digest (and, for spot-checked tenants, the full row stream)
is byte-identical, and its signed report verifies.  Produces a
``repro-load/v1`` report for the CI artifact.

Tenants are deliberately heterogeneous: scenario, scheme, seed, window
size and engine tier (scalar / fast alternating when numpy is present)
all vary per tenant, so the parity sweep covers the whole dispatch
matrix rather than one happy path.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from repro.secure_memory.session import EngineSession
from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.service.daemon import ServiceDaemon

LOAD_SCHEMA = "repro-load/v1"

#: Tenant parameter rotation: small, fast scenarios with distinct
#: schemes so a 1000-tenant run stays minutes, not hours.
_SCENARIOS = ("cc1", "cc2", "cc3")
_SCHEMES = ("ours", "mac_only", "conventional", "unsecure")
_WINDOWS = (0, 64, 113, 257)  # 0 = whole-run step


def tenant_params(index: int, engines: str, duration: float) -> Dict[str, object]:
    """Deterministic per-tenant session parameters."""
    if engines == "mixed":
        engine = "fast" if index % 2 else "scalar"
    else:
        engine = engines
    return {
        "scenario": _SCENARIOS[index % len(_SCENARIOS)],
        "scheme": _SCHEMES[index % len(_SCHEMES)],
        "engine": engine,
        "duration": duration,
        "seed": index,
        "window": _WINDOWS[index % len(_WINDOWS)],
    }


def inprocess_digest(params: Dict[str, object], tenant: str, secret: bytes):
    """Digest + row count of an in-process run of the same trace."""
    session = EngineSession.from_params(
        scenario=params["scenario"],
        scheme=params["scheme"],
        engine=params["engine"],
        duration=params["duration"],
        seed=params["seed"],
        tenant=tenant,
        secret=secret,
    )
    window = params["window"] or None
    rows: List[List[object]] = []
    while not session.done:
        rows.extend(session.step(window))
    return session.observable_digest(), rows


def parity_failure(
    entry: Dict[str, object], service_secret: bytes
) -> Optional[str]:
    """The parity verdict: how one daemon-served tenant differs from an
    in-process run of its params, or ``None`` if it does not.

    ``entry`` holds the tenant's name, secret and params, the daemon's
    final running ``digest`` (and ``close_digest`` if it was closed),
    the ``rows`` it streamed (``None`` if not collected) and its signed
    ``report``, which must verify under ``service_secret`` and attest
    the in-process digest.
    """
    tenant = entry["tenant"]
    digest, rows = inprocess_digest(entry["params"], tenant, entry["secret"])
    close_digest = entry.get("close_digest", digest)
    if entry["digest"] != digest or close_digest != digest:
        return (
            f"{tenant}: digest mismatch "
            f"(daemon {entry['digest']} vs in-process {digest})"
        )
    if entry["rows"] is not None and entry["rows"] != rows:
        return f"{tenant}: observable rows diverge"
    report = entry["report"]
    if not protocol.verify_report(report, service_secret):
        return f"{tenant}: attestation signature does not verify"
    if report.get("observables", {}).get("sha256") != digest:
        return f"{tenant}: attestation digest mismatch"
    return None


async def drive_tenant(
    client: AsyncServiceClient,
    tenant: str,
    secret: bytes,
    params: Dict[str, object],
    collect_rows: bool = True,
    on_window=None,
) -> Dict[str, object]:
    """Open, step to completion and report one tenant session.

    Returns the entry :func:`parity_failure` judges.  ``on_window`` is
    awaited after every step window.
    """
    opened = await client.open(
        tenant,
        secret,
        scenario=params["scenario"],
        scheme=params["scheme"],
        engine=params["engine"],
        duration=params["duration"],
        seed=params["seed"],
    )
    rows: Optional[List[List[object]]] = [] if collect_rows else None
    window = params["window"] or None
    done = False
    while not done:
        stepped = await client.step(tenant, secret, requests=window)
        done = stepped["done"]
        if rows is not None:
            rows.extend(stepped["observables"])
        if on_window is not None:
            await on_window()
    return {
        "tenant": tenant,
        "secret": secret,
        "params": params,
        "engine": opened["engine"],
        "digest": stepped["digest"],
        "rows": rows,
        "report": await client.report(tenant, secret),
    }


async def run_load(
    tenants: int = 64,
    connections: int = 8,
    engines: str = "mixed",
    duration: float = 400.0,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    daemon: Optional[ServiceDaemon] = None,
    service_secret: Optional[bytes] = None,
    parity_rows: int = 8,
    progress=None,
) -> Dict[str, object]:
    """Drive ``tenants`` sessions; verify per-session byte-parity.

    With ``daemon`` given, it is started and stopped in this loop (the
    ``--selftest`` path); otherwise the address must point at a running
    daemon whose report-signing key is ``service_secret``.
    ``connections`` clients multiplex the tenants so fd usage stays
    bounded.  Every tenant is held to :func:`parity_failure`; the first
    ``parity_rows`` tenants are checked row-for-row as well.  Returns
    the ``repro-load/v1`` report.
    """
    from repro.engine_fast import numpy_or_none

    if engines == "mixed" and numpy_or_none() is None:
        engines = "scalar"
    owned = daemon is not None
    if owned:
        await daemon.start()
        socket_path = daemon.socket_path
        host, port = daemon.host, daemon.port
        service_secret = daemon.service_secret
    if service_secret is None:
        raise ValueError("run_load needs the daemon's service secret")

    started = time.perf_counter()
    clients = []
    failures: List[str] = []
    results: List[Dict[str, object]] = []
    try:
        clients = [
            AsyncServiceClient(
                socket_path=socket_path, host=host, port=port
            )
            for _ in range(min(connections, tenants) or 1)
        ]
        await asyncio.gather(*(c.connect() for c in clients))

        async def one(index: int):
            client = clients[index % len(clients)]
            tenant = f"tenant-{index:05d}"
            secret = f"secret-{index:05d}".encode()
            try:
                entry = await drive_tenant(
                    client, tenant, secret,
                    tenant_params(index, engines, duration),
                    collect_rows=index < parity_rows,
                )
                closed = await client.close(tenant, secret)
            except Exception as exc:  # collected, not fatal
                failures.append(f"{tenant}: {exc}")
                return None
            entry["issued"] = closed["issued"]
            entry["close_digest"] = closed["digest"]
            return entry

        outcome = await asyncio.gather(*(one(i) for i in range(tenants)))
        results = [r for r in outcome if r is not None]
    finally:
        for client in clients:
            await client.close_connection()
        if owned:
            await daemon.close()
    drove_seconds = time.perf_counter() - started

    # ---- parity sweep: daemon digests vs in-process replays ----
    parity_checked = 0
    for position, entry in enumerate(results, start=1):
        failure = parity_failure(entry, service_secret)
        if failure is None:
            parity_checked += 1
        else:
            failures.append(failure)
        if progress and position % 100 == 0:
            progress(f"parity {position}/{len(results)}")

    engines_seen: Dict[str, int] = {}
    total_rows = 0
    for entry in results:
        engines_seen[entry["engine"]] = engines_seen.get(entry["engine"], 0) + 1
        total_rows += entry["issued"]

    return {
        "schema": LOAD_SCHEMA,
        "tenants": tenants,
        "connections": len(clients),
        "engines": engines_seen,
        "duration_cycles": duration,
        "sessions_completed": len(results),
        "requests_served": total_rows,
        "parity_checked": parity_checked,
        "row_checked": min(parity_rows, len(results)),
        "drive_seconds": drove_seconds,
        "failures": failures,
        "ok": not failures and len(results) == tenants,
    }


def run_selftest(
    tenants: int = 64,
    connections: int = 8,
    engines: str = "mixed",
    duration: float = 400.0,
    socket_path: Optional[str] = None,
    progress=None,
) -> Dict[str, object]:
    """In-process daemon + load in one event loop (``serve --selftest``)."""
    import os
    import tempfile

    path = socket_path or os.path.join(
        tempfile.mkdtemp(prefix="repro-svc-"), "repro.sock"
    )
    daemon = ServiceDaemon(socket_path=path)
    return asyncio.run(
        run_load(
            tenants=tenants,
            connections=connections,
            engines=engines,
            duration=duration,
            daemon=daemon,
            progress=progress,
        )
    )

"""``repro-tenant/v1``: crash-safe per-tenant persistence for the daemon.

Each tenant the daemon opens with a ``--state-dir`` gets one
append-only, fsync'd JSONL journal sharing the digest discipline of
:func:`repro.common.canonical.digest_text`: line 1 is a header
binding the file to one (tenant, key-id, session-params) identity, and
every further line carries one entry wrapped with a SHA-256 digest of
its canonical JSON::

    {"schema": "repro-tenant/v1", "tenant": ..., "kid": ...,
     "params": {...}}
    {"digest": <sha256 of canonical entry>, "entry": {...}}

Entry types (all carry the wire ``seq`` that committed them):

* ``open`` -- the opening ``repro-session/v1`` snapshot;
* ``step`` -- one committed step window: cumulative ``issued``, the
  running observable ``digest`` and the envelope ``tag`` (the tag is
  what lets a restarted daemon recognise a *byte-identical* duplicate
  retry of the final window and answer it idempotently);
* ``put`` -- one committed data-plane write (``addr`` + payload hex).

The journal never stores engine state: sessions are deterministic in
their params, so rehydration rebuilds the :class:`EngineSession` from
the header and **replays** the entry prefix, asserting the recorded
observable digest after every step window.  A torn tail line (crash
mid-append) or a corrupt entry ends the valid prefix: everything after
it is dropped, the file is healed (atomically rewritten to the good
prefix) and the dropped windows simply re-execute when the client
retries -- damage degrades to re-work, never to wrong results.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.canonical import canonical_json, digest_text

#: Tenant-journal schema identifier; bump on incompatible change.
TENANT_SCHEMA = "repro-tenant/v1"


class TenantStoreError(ValueError):
    """The tenant journal is unusable (schema/identity damage)."""


class TenantJournal:
    """One tenant's append-only event log (``repro-tenant/v1``)."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.header: Dict[str, object] = {}
        self._fh = None
        #: Damaged lines observed by the last :meth:`load_entries`.
        self.dropped_entries = 0

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: os.PathLike,
        tenant: str,
        kid: str,
        params: Dict[str, object],
    ) -> "TenantJournal":
        """Start a fresh journal: header first, fsync'd like every line."""
        journal = cls(path)
        journal.header = {
            "schema": TENANT_SCHEMA,
            "tenant": tenant,
            "kid": kid,
            "params": dict(params),
        }
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        if journal.path.exists():
            journal.path.unlink()
        journal._append_line(canonical_json(journal.header))
        return journal

    @classmethod
    def attach(cls, path: os.PathLike) -> "TenantJournal":
        """Reopen an existing journal; validates only the header."""
        journal = cls(path)
        journal.header = journal._read_header()
        return journal

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def unlink(self) -> None:
        self.close()
        if self.path.exists():
            self.path.unlink()

    # -- header --------------------------------------------------------

    def _read_header(self) -> Dict[str, object]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                first = handle.readline()
            header = json.loads(first)
        except (OSError, json.JSONDecodeError) as exc:
            raise TenantStoreError(
                f"tenant journal {self.path} has an unreadable header: {exc}"
            ) from exc
        if not isinstance(header, dict):
            raise TenantStoreError(
                f"tenant journal {self.path} header is not an object"
            )
        if header.get("schema") != TENANT_SCHEMA:
            raise TenantStoreError(
                f"tenant journal {self.path} has schema "
                f"{header.get('schema')!r}, expected {TENANT_SCHEMA!r}"
            )
        for field in ("tenant", "kid", "params"):
            if field not in header:
                raise TenantStoreError(
                    f"tenant journal {self.path} header is missing {field!r}"
                )
        return header

    # -- writing -------------------------------------------------------

    def _append_line(self, line: str) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, entry: Dict[str, object]) -> None:
        """Durably append one committed entry (digest + flush + fsync)."""
        body = canonical_json(entry)
        self._append_line(
            canonical_json({"digest": digest_text(body), "entry": entry})
        )

    def record_open(self, seq: int, snapshot: Dict[str, object]) -> None:
        self.append({"type": "open", "seq": int(seq), "snapshot": snapshot})

    def record_step(
        self, seq: int, tag: str, issued: int, digest: str
    ) -> None:
        self.append(
            {
                "type": "step",
                "seq": int(seq),
                "tag": tag,
                "issued": int(issued),
                "digest": digest,
            }
        )

    def record_put(
        self, seq: int, tag: str, addr: int, data_hex: str
    ) -> None:
        self.append(
            {
                "type": "put",
                "seq": int(seq),
                "tag": tag,
                "addr": int(addr),
                "data_hex": data_hex,
            }
        )

    # -- reading -------------------------------------------------------

    def load_entries(self) -> List[Dict[str, object]]:
        """The valid entry *prefix*, in append order.

        Unlike the latest-wins task journal, a tenant journal is an
        ordered event log: state after entry N depends on every entry
        before it, so the first damaged line (torn tail, bad JSON,
        digest mismatch) ends the usable prefix and everything from it
        on is dropped -- counted in :attr:`dropped_entries`.
        """
        self.dropped_entries = 0
        self.header = self._read_header()
        entries: List[Dict[str, object]] = []
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for position, raw in enumerate(lines[1:], start=1):
            damaged = not raw.endswith("\n")
            line = raw.strip()
            if not damaged and not line:
                continue
            if not damaged:
                try:
                    wrapper = json.loads(line)
                    entry = wrapper["entry"]
                    digest = wrapper["digest"]
                    if digest_text(canonical_json(entry)) != digest:
                        damaged = True
                    elif not isinstance(entry, dict) or "type" not in entry:
                        damaged = True
                except (json.JSONDecodeError, KeyError, TypeError):
                    damaged = True
            if damaged:
                # Ordered log: drop this line and the whole suffix.
                self.dropped_entries = len(lines) - 1 - len(entries)
                break
            entries.append(entry)
        return entries

    def truncate_to(self, entries: List[Dict[str, object]]) -> None:
        """Heal: atomically rewrite the file as header + ``entries``.

        tmp + fsync + rename, so a crash mid-heal leaves either the old
        damaged file (healed again on the next rehydration) or the new
        clean one -- never a half-written journal.
        """
        self.close()
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(self.header) + "\n")
            for entry in entries:
                body = canonical_json(entry)
                handle.write(
                    canonical_json({"digest": digest_text(body), "entry": entry})
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


class TenantStore:
    """The ``--state-dir`` layout: one journal per persisted tenant.

    Files live under ``<state_dir>/tenants/<sha256(tenant)[:16]>.jsonl``
    -- the digest keeps client-chosen tenant names out of the
    filesystem namespace; the real name is bound in the header.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.tenants_dir = self.root / "tenants"
        self.tenants_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, tenant: str) -> Path:
        slug = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:16]
        return self.tenants_dir / f"{slug}.jsonl"

    def exists(self, tenant: str) -> bool:
        return self.path_for(tenant).exists()

    def create(
        self, tenant: str, kid: str, params: Dict[str, object]
    ) -> TenantJournal:
        return TenantJournal.create(
            self.path_for(tenant), tenant, kid, params
        )

    def load(
        self, tenant: str
    ) -> Optional[Tuple[TenantJournal, List[Dict[str, object]]]]:
        """Journal + valid entry prefix, or ``None`` if unusable.

        A journal whose *header* is damaged cannot be trusted at all
        (identity unknown), so it is discarded -- the tenant falls back
        to a fresh open, exactly like a client that never persisted.
        """
        path = self.path_for(tenant)
        if not path.exists():
            return None
        try:
            journal = TenantJournal.attach(path)
            entries = journal.load_entries()
        except TenantStoreError:
            path.unlink()
            return None
        return journal, entries

    def discard(self, tenant: str) -> None:
        path = self.path_for(tenant)
        if path.exists():
            path.unlink()

    def count(self) -> int:
        return sum(1 for _ in self.tenants_dir.glob("*.jsonl"))

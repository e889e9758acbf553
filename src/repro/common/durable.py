"""Durable writes and the one heal rule, defined once.

Two on-disk formats survive crashes through this module: the result
store's blobs (:class:`repro.sim.resilient.ResultStore`) and the
daemon's ``repro-tenant/v1`` journals
(:class:`repro.service.store.TenantJournal`).  Each format owns its
schema and its validity check; this module owns how bytes reach disk:

* :func:`publish` writes a whole file: a private temp file beside the
  target (matched by :data:`TEMP_GLOB`), fsynced, then either a
  create-if-absent ``os.link`` or an ``os.replace``.  A reader sees
  the old file or the new one, never a half-written one; a killed
  writer leaves only temp litter (``repro gc`` sweeps the store's).
* :class:`Appender` appends lines: one write, one flush and one fsync
  per line, on a handle that stays open between lines.  A crash
  mid-append leaves at most one torn last line.

The heal rule: damage degrades to re-work, never to wrong results.
A blob carries the SHA-256 digest of its payload, and a journal entry
that of its canonical JSON (:mod:`repro.common.canonical`).  A record
that is torn, does not parse, fails its digest or carries another
schema is invalid, and an invalid record is never used:

* a blob stands alone, so an invalid blob reads as absent: its task
  re-executes, and its commit replaces the invalid occupant;
* a journal is an ordered log, so its first invalid line ends the
  valid prefix: that line and every line after it are dropped, the
  file is republished as the prefix (``os.replace``), and the dropped
  work re-executes when its client retries.  A crash mid-heal leaves
  the damaged file, which heals again on the next load.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Callable, Optional, TextIO

#: Glob of the temp files :func:`publish` writes (and ``repro gc`` sweeps).
TEMP_GLOB = ".*.tmp"


def publish(
    path: Path, text: str, keep: Optional[Callable[[], bool]] = None
) -> bool:
    """Durably make ``text`` the whole of ``path``; True iff it landed.

    Without ``keep`` the temp file replaces ``path``.  With ``keep``
    the link is create-if-absent: an occupant for which ``keep()`` is
    true stays and the call returns False; one for which it is false
    is replaced.  Replacing, not unlinking and linking again, keeps a
    racing writer's valid file from being unlinked after it landed.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if keep is not None:
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                if keep():
                    return False
        os.replace(tmp, path)
        return True
    finally:
        tmp.unlink(missing_ok=True)


class Appender:
    """Durable line appends to one file, through one open handle."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None

    def append(self, line: str) -> None:
        """Write, flush and fsync ``line`` plus a newline."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

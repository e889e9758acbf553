"""Garbage collection for run directories and the result store.

Every checkpointed run leaves a ``runs/<id>/`` directory, and the
shared content-addressed store (``docs/resilience.md``) accretes one
blob per distinct task forever.  ``python -m repro gc`` prunes both:

* **Run directories** -- everything under ``--runs-dir`` except the
  store, newest ``--keep`` kept (by directory mtime, which every
  checkpointed fan-out touches), the rest deleted.
* **Store blobs** -- three classes go:

  - *invalid* blobs (torn writes, digest mismatches, another schema)
    -- always removed; they read as absent anyway and only cost the
    next committer a heal step.  Only the envelope is checked
    (:meth:`ResultStore.payload`); gc never unpickles a payload;
  - *temp litter* -- ``.*.tmp`` files orphaned by killed committers;
  - *orphaned* blobs -- older than the oldest *kept* run directory
    (or ``--store-max-age``, when given).  The supervisor touches a
    blob's mtime on every reuse, so this is an LRU discipline: a blob
    no surviving run has needed since before the keep window opened
    cannot be referenced again except by recomputation, which the
    store absorbs.

Deletion order is runs first, then blobs, so an interrupted gc never
leaves a kept run pointing at a pruned blob it would still have used.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.sim.resilient import ResultStore, default_store_dir


@dataclass
class GcReport:
    """What one ``repro gc`` pass removed (or would, under dry-run)."""

    runs_kept: List[str] = field(default_factory=list)
    runs_removed: List[str] = field(default_factory=list)
    blobs_removed: int = 0
    invalid_blobs_removed: int = 0
    tmp_removed: int = 0
    bytes_freed: int = 0
    dry_run: bool = False

    def format(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        lines = [
            f"# gc ({'dry run' if self.dry_run else 'live'})",
            f"runs kept: {len(self.runs_kept)} "
            f"({', '.join(self.runs_kept) or 'none'})",
            f"runs {verb}: {len(self.runs_removed)} "
            f"({', '.join(self.runs_removed) or 'none'})",
            f"store blobs {verb}: {self.blobs_removed} orphaned, "
            f"{self.invalid_blobs_removed} invalid, "
            f"{self.tmp_removed} temp files",
            f"bytes freed: {self.bytes_freed}",
        ]
        return "\n".join(lines)


def _tree_bytes(path: Path) -> int:
    total = 0
    for sub in path.rglob("*"):
        try:
            if sub.is_file():
                total += sub.stat().st_size
        except OSError:
            continue
    return total


def collect_garbage(
    runs_dir: os.PathLike,
    keep: int = 5,
    store_max_age_seconds: Optional[float] = None,
    dry_run: bool = False,
) -> GcReport:
    """Prune old run directories and orphaned/invalid store blobs.

    ``keep`` newest run directories survive; the store's orphan cutoff
    is the oldest kept run's mtime unless ``store_max_age_seconds``
    pins it explicitly.  ``dry_run`` reports without deleting.
    """
    report = GcReport(dry_run=dry_run)
    runs_root = Path(runs_dir)
    store_root = default_store_dir(runs_root)
    if not runs_root.exists():
        return report

    run_dirs = sorted(
        (
            path
            for path in runs_root.iterdir()
            if path.is_dir() and path != store_root
        ),
        key=lambda path: path.stat().st_mtime,
        reverse=True,
    )
    kept, dropped = run_dirs[: max(0, keep)], run_dirs[max(0, keep):]
    report.runs_kept = [path.name for path in kept]
    for path in dropped:
        report.runs_removed.append(path.name)
        report.bytes_freed += _tree_bytes(path)
        if not dry_run:
            shutil.rmtree(path, ignore_errors=True)

    if store_max_age_seconds is not None:
        cutoff: Optional[float] = time.time() - store_max_age_seconds
    elif kept:
        cutoff = min(path.stat().st_mtime for path in kept)
    else:
        cutoff = None  # nothing to anchor age against; invalid-only pass

    store = ResultStore(store_root)
    if store_root.exists():
        for tmp in sorted(store_root.glob("*/.*.tmp")):
            report.tmp_removed += 1
            report.bytes_freed += tmp.stat().st_size
            if not dry_run:
                tmp.unlink(missing_ok=True)
        for blob in store.blobs():
            digest = blob.stem
            size = blob.stat().st_size
            if store.payload(digest) is None:  # envelope check, no unpickle
                report.invalid_blobs_removed += 1
                report.bytes_freed += size
                if not dry_run:
                    blob.unlink(missing_ok=True)
            elif cutoff is not None and blob.stat().st_mtime < cutoff:
                report.blobs_removed += 1
                report.bytes_freed += size
                if not dry_run:
                    blob.unlink(missing_ok=True)
    return report

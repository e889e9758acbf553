"""Access tracker: per-chunk one-hot access vectors (paper Fig. 12).

Twelve entries (3 per processing unit), each tracking one 32KB chunk
with a 512-bit vector -- bit ``i`` set when cacheline ``i`` of the
chunk has been touched.  An entry is *evicted* (and handed to the
granularity detector) when:

* every line of the chunk has been touched (count reaches 512), or
* the entry's lifetime exceeds 16K cycles, or
* a new chunk needs a slot and the tracker is full (LRU victim).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.common.config import TrackerConfig
from repro.common.constants import (
    CACHELINE_SHIFT,
    CHUNK_OFFSET_BITS,
    CHUNK_OFFSET_MASK,
    LINES_PER_CHUNK,
)


@dataclass
class TrackerEntry:
    """State of one tracked 32KB chunk."""

    chunk_index: int
    access_bits: int
    set_count: int
    birth_cycle: int
    last_cycle: int

    def expired(self, now: int, lifetime: int) -> bool:
        return now - self.birth_cycle > lifetime


@dataclass(frozen=True)
class Eviction:
    """An evicted entry plus why it left the tracker."""

    entry: TrackerEntry
    reason: str  # "full" | "expired" | "capacity"


class AccessTracker:
    """LRU tracker of recently accessed chunks.

    ``observe`` records one 64B access and returns any evictions it
    caused; callers (the dynamic granularity manager) feed evictions to
    the detector.  ``drain`` evicts everything at end of simulation so
    trailing chunks still get classified.
    """

    def __init__(self, config: Optional[TrackerConfig] = None) -> None:
        self.config = config or TrackerConfig()
        self._entries: "OrderedDict[int, TrackerEntry]" = OrderedDict()
        self.evictions_full = 0
        self.evictions_expired = 0
        self.evictions_capacity = 0
        # Earliest cycle any current entry can expire; ``observe`` runs
        # per request, so the expiry sweep is skipped entirely until
        # this deadline passes.  The value is conservative (it may
        # reference an entry that already left for another reason) --
        # a stale deadline only triggers a scan that finds nothing and
        # recomputes the true one, never a missed eviction.
        self._next_expiry = float("inf")

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, addr: int, cycle: int) -> Sequence[Eviction]:
        """Record an access; return entries evicted by this access.

        Runs on every access, so an access that evicts nothing (most
        of them) allocates no result list and returns ``()``.
        """
        evicted: Optional[List[Eviction]] = None
        if cycle > self._next_expiry:
            evicted = self._sweep_expired(cycle)

        entries = self._entries
        chunk = addr >> CHUNK_OFFSET_BITS
        entry = entries.get(chunk)
        if entry is None:
            if len(entries) >= self.config.entries:
                _, victim = entries.popitem(last=False)
                self.evictions_capacity += 1
                if evicted is None:
                    evicted = []
                evicted.append(Eviction(victim, "capacity"))
            entry = TrackerEntry(chunk, 0, 0, cycle, cycle)
            entries[chunk] = entry
            deadline = cycle + self.config.lifetime_cycles
            if deadline < self._next_expiry:
                self._next_expiry = deadline
        else:
            # Refresh LRU position.
            entries.move_to_end(chunk)

        entry.last_cycle = cycle
        bit = 1 << ((addr & CHUNK_OFFSET_MASK) >> CACHELINE_SHIFT)
        if not entry.access_bits & bit:
            entry.access_bits |= bit
            entry.set_count += 1
            # Only a newly set bit can fill the entry.
            if entry.set_count >= LINES_PER_CHUNK:
                del entries[chunk]
                self.evictions_full += 1
                if evicted is None:
                    evicted = []
                evicted.append(Eviction(entry, "full"))
        return evicted or ()

    def drain(self) -> List[Eviction]:
        """Evict all remaining entries (end of trace)."""
        evicted = [
            Eviction(entry, "expired") for entry in self._entries.values()
        ]
        self.evictions_expired += len(evicted)
        self._entries.clear()
        self._next_expiry = float("inf")
        return evicted

    def _sweep_expired(self, now: int) -> List[Eviction]:
        lifetime = self.config.lifetime_cycles
        expired = [
            chunk
            for chunk, entry in self._entries.items()
            if entry.expired(now, lifetime)
        ]
        evicted = []
        for chunk in expired:
            entry = self._entries.pop(chunk)
            self.evictions_expired += 1
            evicted.append(Eviction(entry, "expired"))
        # Recompute the exact deadline from the survivors.
        self._next_expiry = (
            min(e.birth_cycle for e in self._entries.values()) + lifetime
            if self._entries
            else float("inf")
        )
        return evicted

    def on_chip_bits(self) -> int:
        """Hardware cost of this tracker in bits (paper Sec. 4.5)."""
        from repro.common.constants import CHUNK_INDEX_BITS

        return self.config.entries * (LINES_PER_CHUNK + CHUNK_INDEX_BITS)


def run_trace_through_tracker(
    accesses,
    config: Optional[TrackerConfig] = None,
    on_evict: Optional[Callable[[Eviction], None]] = None,
) -> AccessTracker:
    """Convenience: feed (cycle, addr) pairs through a fresh tracker."""
    tracker = AccessTracker(config)
    for cycle, addr in accesses:
        for eviction in tracker.observe(addr, cycle):
            if on_evict is not None:
                on_evict(eviction)
    if on_evict is not None:
        for eviction in tracker.drain():
            on_evict(eviction)
    return tracker

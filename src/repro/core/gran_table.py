"""Granularity table with lazy switching (paper Sec. 4.4).

One entry per 32KB chunk, holding *two* ``stream_part`` bitmaps: the
granularity currently sealed into metadata (``current``) and the most
recent detection result (``next``).  Detections only update ``next``;
the expensive re-keying of counters and MACs happens lazily, the first
time an access actually touches a region whose two bitmaps disagree
(*lazy granularity switching*).

The table itself lives in a protected memory region; the timing layer
charges its traffic through a dedicated cache using the addresses
computed here (16B per chunk, 4 entries per 64B line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.common.address import chunk_base, chunk_index
from repro.common.constants import (
    CACHELINE_BYTES,
    CHUNK_BYTES,
    CHUNK_OFFSET_BITS,
    GRANULARITIES,
)
from repro.core import stream_part

#: Bytes per granularity-table entry: 8B current + 8B next.
TABLE_ENTRY_BYTES = 16


@dataclass
class TableEntry:
    """Granularity state of one chunk."""

    current: int = 0
    next: int = 0
    written: bool = False  # chunk ever written (read-only optimization)
    last_access_write: bool = False
    detections: int = 0
    demote_hold: int = 0  # hysteresis: suppress re-promotion after a
    # misprediction demotion for this many detections

    @property
    def pending_switch(self) -> bool:
        return self.current != self.next


@dataclass(frozen=True)
class SwitchEvent:
    """One lazy granularity switch, to be costed by the switching model.

    Attributes:
        addr: the access that triggered the switch.
        old_granularity / new_granularity: before and after, in bytes.
        prev_was_write: last access to the chunk before this one.
        is_write: whether the triggering access is a write.
        read_only: chunk had never been written when the switch fired.
        old_bits / new_bits: the chunk's ``stream_part`` bitmap before
            and after the switch (needed to compute old vs. new
            compacted MAC addresses during re-keying).
    """

    addr: int
    old_granularity: int
    new_granularity: int
    prev_was_write: bool
    is_write: bool
    read_only: bool
    old_bits: int = 0
    new_bits: int = 0

    @property
    def scale_up(self) -> bool:
        return self.new_granularity > self.old_granularity


@dataclass
class GranularityTable:
    """In-memory model of the protected granularity table.

    ``min_coarse`` / ``max_granularity`` restrict which granularities
    the table will ever store or resolve -- the full multi-granular
    scheme uses (512B, 32KB); dual-granularity baselines pin both to
    one coarse size.
    """

    table_base: int = 0
    min_coarse: int = GRANULARITIES[1]
    max_granularity: int = GRANULARITIES[3]
    _entries: Dict[int, TableEntry] = field(default_factory=dict)

    def entry(self, addr: int) -> TableEntry:
        """Entry of the chunk containing ``addr`` (created on demand)."""
        # Runs on every access: a hit builds no throw-away default
        # (``setdefault`` would) and calls no address helper.
        chunk = addr >> CHUNK_OFFSET_BITS
        entry = self._entries.get(chunk)
        if entry is None:
            entry = self._entries[chunk] = TableEntry()
        return entry

    def entry_by_chunk(self, chunk: int) -> TableEntry:
        entry = self._entries.get(chunk)
        if entry is None:
            entry = self._entries[chunk] = TableEntry()
        return entry

    def entry_addr(self, addr: int) -> int:
        """Simulated physical address of the chunk's table entry."""
        return self.table_base + chunk_index(addr) * TABLE_ENTRY_BYTES

    def entry_line_addr(self, addr: int) -> int:
        """64B-aligned line address (4 entries per line)."""
        raw = self.entry_addr(addr)
        return raw - (raw % CACHELINE_BYTES)

    def record_detection(self, chunk: int, bits: int) -> bool:
        """Store a detection result into ``next``; True when it changed."""
        entry = self.entry_by_chunk(chunk)
        entry.detections += 1
        bits = stream_part.quantize_bits(bits, self.min_coarse)
        if entry.demote_hold > 0:
            # Hysteresis after a misprediction demotion: accept further
            # demotions but refuse to re-promote until the hold decays,
            # damping promote/demote oscillation on mixed regions.
            entry.demote_hold -= 1
            bits &= entry.next
        if entry.next == bits:
            return False
        entry.next = bits
        return True

    def resolve(self, addr: int, is_write: bool) -> Tuple[int, Optional[SwitchEvent]]:
        """Effective granularity of ``addr``, applying lazy switching.

        Returns the granularity to use for this access and, when the
        stored and detected granularities of the touched region
        disagree, the :class:`SwitchEvent` that the caller must cost
        and apply.  The switch is applied to ``current`` here (the
        metadata re-keying cost is the caller's concern).
        """
        entry = self.entry(addr)
        old_gran = stream_part.resolve_granularity(
            entry.current, addr, self.max_granularity
        )
        if entry.next == entry.current:
            new_gran = old_gran  # no pending switch anywhere in the chunk
        else:
            new_gran = stream_part.resolve_granularity(
                entry.next, addr, self.max_granularity
            )

        event: Optional[SwitchEvent] = None
        if new_gran != old_gran:
            old_bits = entry.current
            self._apply_switch(entry, addr, max(old_gran, new_gran))
            event = SwitchEvent(
                addr=addr,
                old_granularity=old_gran,
                new_granularity=new_gran,
                prev_was_write=entry.last_access_write,
                is_write=is_write,
                read_only=not entry.written,
                old_bits=old_bits,
                new_bits=entry.current,
            )
            granularity = new_gran
        else:
            granularity = old_gran

        entry.last_access_write = is_write
        if is_write:
            entry.written = True
        return granularity, event

    def peek_granularity(self, addr: int) -> int:
        """Granularity without lazy switching (no side effects)."""
        entry = self._entries.get(chunk_index(addr))
        if entry is None:
            return GRANULARITIES[0]
        return stream_part.resolve_granularity(
            entry.current, addr, self.max_granularity
        )

    def _apply_switch(self, entry: TableEntry, addr: int, span: int) -> None:
        """Copy ``next`` into ``current`` for the region of ``addr``.

        Only the bits of the touched region move -- other regions of
        the chunk keep their old sealed granularity until their own
        first access (that is what makes the switching *lazy*).
        """
        if span >= CHUNK_BYTES:
            entry.current = entry.next
            return
        base = chunk_base(addr)
        offset = addr - base
        region_start = (offset // span) * span
        first_part = region_start // GRANULARITIES[1]
        parts = max(1, span // GRANULARITIES[1])
        mask = ((1 << parts) - 1) << first_part
        entry.current = (entry.current & ~mask) | (entry.next & mask)

    # ------------------------------------------------------------------
    # Recovery helpers (quarantine demotion, switch rollback)
    # ------------------------------------------------------------------

    @staticmethod
    def region_partition_mask(addr: int, span: int) -> int:
        """Bitmap mask of the partitions covered by ``addr``'s span-region.

        ``span`` is clamped to the chunk; sub-partition spans (64B)
        still mask their covering 512B partition, because the bitmap
        cannot express anything finer.
        """
        span = min(max(span, GRANULARITIES[1]), CHUNK_BYTES)
        offset = addr - chunk_base(addr)
        region_start = (offset // span) * span
        first_part = region_start // GRANULARITIES[1]
        parts = span // GRANULARITIES[1]
        return ((1 << parts) - 1) << first_part

    def demote_region(self, addr: int, span: int, hold: int = 4) -> Tuple[int, int]:
        """Force the region of ``addr`` back to 64B granularity.

        Clears the region's partition bits in *both* bitmaps (so no
        lazy switch immediately re-promotes it) and arms the demotion
        hysteresis.  Returns ``(old_bits, new_bits)`` so the caller can
        relocate compacted MACs of the rest of the chunk.
        """
        entry = self.entry(addr)
        mask = self.region_partition_mask(addr, span)
        old_bits = entry.current
        entry.current &= ~mask
        entry.next &= ~mask
        entry.demote_hold = max(entry.demote_hold, hold)
        return old_bits, entry.current

    def rollback_region(self, addr: int, span: int, old_bits: int) -> None:
        """Undo a just-applied lazy switch of ``addr``'s span-region.

        Restores the span's partition bits in both bitmaps from
        ``old_bits`` -- used when the metadata re-keying of a switch
        fails verification (mid-switch tamper) and the sealed layout
        must remain the authoritative one.
        """
        entry = self.entry(addr)
        mask = self.region_partition_mask(addr, span)
        entry.current = (entry.current & ~mask) | (old_bits & mask)
        entry.next = (entry.next & ~mask) | (old_bits & mask)

    def restrict_next(self, addr: int, forbidden_mask: int) -> None:
        """Keep the partitions in ``forbidden_mask`` fine in ``next``.

        Quarantined partitions must never be re-promoted (a switch
        would have to open their unverifiable data), so the resolver
        clamps the detection bitmap before applying lazy switching.
        """
        entry = self._entries.get(chunk_index(addr))
        if entry is not None:
            entry.next &= ~forbidden_mask

    def chunks(self) -> Iterator[Tuple[int, TableEntry]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

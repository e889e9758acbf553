"""Naive reference model of the multi-granular metadata layout.

Everything in this module is written to be *obviously* correct rather
than fast: plain loops over partitions and lines, no caches, no bit
tricks beyond single-bit tests, no shared code with the optimized
implementations in :mod:`repro.core`, :mod:`repro.tree` or
:mod:`repro.secure_memory`.  The only imports from the main tree are
the architectural constants (they are the paper's spec numbers, not
code under test).

The reference re-derives, independently:

* Eq. 1 MAC addressing with Fig. 9 compaction (:func:`ref_mac_index`,
  :func:`ref_mac_addr`) -- a literal address-order walk over the
  chunk's protection regions, one MAC per region;
* Eqs. 2-4 counter promotion (:func:`ref_num_parents`,
  :func:`ref_ancestor_index`, :meth:`RefGeometry.counter_slot`);
* tree geometry, metadata windows and the path to the root
  (:class:`RefGeometry`);
* Algorithm 1 detection (:func:`ref_detect_stream_partitions`) and the
  detection-merge rule (:func:`ref_merge_detection`);
* the access tracker (:class:`RefTracker`), the lazy-switching
  granularity table (:class:`RefTable`) and the Fig. 13 counter
  re-keying rules, composed into :class:`RefModel` -- a functional
  shadow of ``SecureMemory(policy="multigranular")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.constants import (
    ACCESS_TRACKER_ENTRIES,
    CACHELINE_BYTES,
    CHUNK_BYTES,
    GRANULARITIES,
    LINES_PER_CHUNK,
    LINES_PER_PARTITION,
    MAC_BYTES,
    PARTITIONS_PER_CHUNK,
    TRACKER_LIFETIME_CYCLES,
    TREE_ARITY,
)

#: 512B partitions per aligned 4KB group.
PARTS_PER_GROUP = GRANULARITIES[2] // GRANULARITIES[1]


# ---------------------------------------------------------------------------
# Eqs. 2-3: counter promotion
# ---------------------------------------------------------------------------


def ref_granularity_level(granularity: int) -> int:
    """Level index of a supported granularity, by repeated multiplication."""
    size = CACHELINE_BYTES
    level = 0
    while size < granularity:
        size *= TREE_ARITY
        level += 1
    if size != granularity or granularity not in GRANULARITIES:
        raise ValueError(f"unsupported granularity {granularity}")
    return level


def ref_num_parents(granularity: int, arity: int = TREE_ARITY) -> int:
    """Eq. 2 without logarithms: count the multiplications."""
    size = CACHELINE_BYTES
    steps = 0
    while size < granularity:
        size *= arity
        steps += 1
    if size != granularity:
        raise ValueError(f"{granularity} is not {CACHELINE_BYTES} * {arity}^k")
    return steps


def ref_ancestor_index(leaf_index: int, parents: int, arity: int = TREE_ARITY) -> int:
    """Eq. 3: one parent step at a time."""
    index = leaf_index
    for _ in range(parents):
        index = index // arity
    return index


# ---------------------------------------------------------------------------
# Granularity resolution (Sec. 4.4 encoding)
# ---------------------------------------------------------------------------


def _partition_of(addr: int) -> int:
    return (addr % CHUNK_BYTES) // GRANULARITIES[1]


def ref_resolve_granularity(
    bits: int, addr: int, max_granularity: int = GRANULARITIES[3]
) -> int:
    """Effective granularity of ``addr`` under bitmap ``bits``, naively.

    Checks coarsest-first, testing every member partition bit with a
    loop instead of mask arithmetic.
    """
    part = _partition_of(addr)
    if max_granularity >= GRANULARITIES[3] and all(
        bits >> p & 1 for p in range(PARTITIONS_PER_CHUNK)
    ):
        return GRANULARITIES[3]
    group = part // PARTS_PER_GROUP
    members = range(group * PARTS_PER_GROUP, (group + 1) * PARTS_PER_GROUP)
    if max_granularity >= GRANULARITIES[2] and all(bits >> p & 1 for p in members):
        return GRANULARITIES[2]
    if max_granularity >= GRANULARITIES[1] and bits >> part & 1:
        return GRANULARITIES[1]
    return GRANULARITIES[0]


def ref_quantize_bits(bits: int, min_coarse: int) -> int:
    """Drop stream marks finer than ``min_coarse``, partition by partition."""
    if min_coarse <= GRANULARITIES[1]:
        return bits
    if min_coarse == GRANULARITIES[2]:
        out = 0
        for group in range(PARTITIONS_PER_CHUNK // PARTS_PER_GROUP):
            members = range(group * PARTS_PER_GROUP, (group + 1) * PARTS_PER_GROUP)
            if all(bits >> p & 1 for p in members):
                for p in members:
                    out |= 1 << p
        return out
    if min_coarse == GRANULARITIES[3]:
        if all(bits >> p & 1 for p in range(PARTITIONS_PER_CHUNK)):
            return bits
        return 0
    raise ValueError(f"unsupported min_coarse {min_coarse}")


def ref_region_spans(
    bits: int, max_granularity: int = GRANULARITIES[3]
) -> List[Tuple[int, int]]:
    """(offset, granularity) protection regions of one chunk, in order.

    A fine region spans a single 64B line, so the list enumerates one
    entry per MAC -- which is exactly what makes :func:`ref_mac_index`
    trivial.
    """
    spans: List[Tuple[int, int]] = []
    off = 0
    while off < CHUNK_BYTES:
        granularity = ref_resolve_granularity(bits, off, max_granularity)
        spans.append((off, granularity))
        off += granularity
    return spans


# ---------------------------------------------------------------------------
# Eq. 1 + Fig. 9: compacted MAC addressing
# ---------------------------------------------------------------------------


def ref_mac_index(
    bits: int, addr: int, max_granularity: int = GRANULARITIES[3]
) -> int:
    """Compacted in-chunk MAC index of ``addr``: one MAC per region.

    Walks the chunk's protection regions in address order and counts
    the regions before the one containing ``addr`` (Fig. 9: merged
    MACs fill the front of the chunk's MAC space without gaps).
    """
    offset = addr % CHUNK_BYTES
    for index, (off, granularity) in enumerate(
        ref_region_spans(bits, max_granularity)
    ):
        if off <= offset < off + granularity:
            return index
    raise AssertionError("address outside its own chunk")  # pragma: no cover


def ref_mac_indices(bits: int, max_granularity: int = GRANULARITIES[3]) -> List[int]:
    """:func:`ref_mac_index` of every line of a chunk, in line order.

    The same rule from one walk of the chunk's regions: each line gets
    the count of the regions before its own.
    """
    indices: List[int] = []
    for index, (_, granularity) in enumerate(ref_region_spans(bits, max_granularity)):
        indices.extend([index] * (granularity // CACHELINE_BYTES))
    return indices


def ref_macs_per_chunk(bits: int, max_granularity: int = GRANULARITIES[3]) -> int:
    """Post-merge MAC count of a chunk: simply the number of regions."""
    return len(ref_region_spans(bits, max_granularity))


def ref_mac_addr(
    region_bytes: int,
    bits: int,
    addr: int,
    max_granularity: int = GRANULARITIES[3],
) -> int:
    """Eq. 1: chunk MAC window base + compacted index x 8B.

    Every chunk owns a fixed fine-layout-sized MAC window (Sec. 4.3),
    so only the in-chunk index depends on the bitmap.
    """
    mac_base = region_bytes
    chunk = addr // CHUNK_BYTES
    window = chunk * LINES_PER_CHUNK * MAC_BYTES
    index = ref_mac_index(bits, addr, max_granularity)
    return mac_base + window + index * MAC_BYTES


# ---------------------------------------------------------------------------
# Algorithm 1 detection + merge rule
# ---------------------------------------------------------------------------


def ref_detect_stream_partitions(access_bits: int) -> int:
    """Algorithm 1: a partition is a stream iff every line bit is set."""
    result = 0
    for part in range(PARTITIONS_PER_CHUNK):
        lines = [
            access_bits >> (part * LINES_PER_PARTITION + i) & 1
            for i in range(LINES_PER_PARTITION)
        ]
        if all(lines):
            result |= 1 << part
    return result


def ref_merge_detection(
    previous_bits: int, access_bits: int, censored: bool = False
) -> int:
    """Fold one observation window into the previous ``stream_part``.

    Fully covered partitions promote; touched-but-partial partitions
    demote (unless the window was cut short by a capacity eviction, in
    which case demotion evidence is unreliable); untouched partitions
    keep their previous classification.
    """
    out = previous_bits
    for part in range(PARTITIONS_PER_CHUNK):
        lines = [
            access_bits >> (part * LINES_PER_PARTITION + i) & 1
            for i in range(LINES_PER_PARTITION)
        ]
        if all(lines):
            out |= 1 << part
        elif any(lines) and not censored:
            out &= ~(1 << part)
    return out


# ---------------------------------------------------------------------------
# Tree geometry and metadata windows
# ---------------------------------------------------------------------------


class RefGeometry:
    """Naive re-derivation of :class:`repro.tree.geometry.TreeGeometry`.

    Level counts come from repeated ceiling division, node addresses
    from a linear level-major layout, counter slots from Eq. 3's
    region arithmetic.
    """

    def __init__(self, region_bytes: int, arity: int = TREE_ARITY) -> None:
        self.region_bytes = region_bytes
        self.arity = arity
        counts: List[int] = []
        nodes = -(-(region_bytes // CACHELINE_BYTES) // arity)
        while True:
            counts.append(nodes)
            if nodes == 1:
                break
            nodes = -(-nodes // arity)
        self.level_counts = tuple(counts)
        offsets: List[int] = []
        total = 0
        for count in counts:
            offsets.append(total)
            total += count
        self.level_offsets = tuple(offsets)
        self.mac_base = region_bytes
        self.tree_base = self.mac_base + (region_bytes // CACHELINE_BYTES) * MAC_BYTES
        self.table_base = self.tree_base + total * CACHELINE_BYTES

    @property
    def num_levels(self) -> int:
        return len(self.level_counts)

    @property
    def root_level(self) -> int:
        return self.num_levels - 1

    def span_of_level(self, level: int) -> int:
        span = CACHELINE_BYTES
        for _ in range(level + 1):
            span *= self.arity
        return span

    def counter_span(self, level: int) -> int:
        """Bytes covered by one counter at ``level`` (Eq. 3 divisor)."""
        span = CACHELINE_BYTES
        for _ in range(level):
            span *= self.arity
        return span

    def counter_slot(self, addr: int, level: int) -> Tuple[int, int]:
        region = addr // self.counter_span(level)
        return region // self.arity, region % self.arity

    def node_addr(self, level: int, node_index: int) -> int:
        return self.tree_base + (self.level_offsets[level] + node_index) * (
            CACHELINE_BYTES
        )

    def counter_region_index(self, addr: int, level: int) -> int:
        """Global index of the level-``level`` counter region of ``addr``."""
        return addr // self.counter_span(level)

    def path_to_root(self, addr: int, start_level: int = 0) -> List[Tuple[int, int]]:
        """(level, node index) pairs from ``start_level`` to the root."""
        node = addr // self.span_of_level(start_level)
        path: List[Tuple[int, int]] = []
        for level in range(start_level, self.num_levels):
            path.append((level, node))
            node = node // self.arity
        return path

    def classify(self, addr: int) -> str:
        """Which metadata window a simulated address falls into."""
        if 0 <= addr < self.region_bytes:
            return "data"
        if self.mac_base <= addr < self.tree_base:
            return "mac"
        if self.tree_base <= addr < self.table_base:
            return "tree"
        # 16 bytes per chunk: the current + next partition bitmaps.
        table_bytes = -(-self.region_bytes // CHUNK_BYTES) * 16
        if self.table_base <= addr < self.table_base + table_bytes:
            return "table"
        return "invalid"


# ---------------------------------------------------------------------------
# Access tracker (Fig. 12)
# ---------------------------------------------------------------------------


@dataclass
class RefTrackedChunk:
    """One tracked chunk: the set of touched in-chunk line indices."""

    chunk: int
    birth: int
    lines: set = field(default_factory=set)

    @property
    def access_bits(self) -> int:
        bits = 0
        for line in self.lines:
            bits |= 1 << line
        return bits


class RefTracker:
    """Plain-list LRU tracker: scan everything, cache nothing.

    The optimized :class:`repro.core.tracker.AccessTracker` keeps a
    next-expiry deadline so it can skip the expiry sweep; the reference
    scans every entry on every observe.  Both must evict the same
    entries at the same observes, in the same order: expired entries
    first (least recent first), then at most one capacity victim, then
    the touched entry itself if the access completed its chunk.
    """

    def __init__(
        self,
        entries: int = ACCESS_TRACKER_ENTRIES,
        lifetime: int = TRACKER_LIFETIME_CYCLES,
    ) -> None:
        self.capacity = entries
        self.lifetime = lifetime
        self._entries: List[RefTrackedChunk] = []  # least recently used first

    def observe(self, addr: int, cycle: int) -> List[Tuple[RefTrackedChunk, str]]:
        evicted: List[Tuple[RefTrackedChunk, str]] = []
        for entry in list(self._entries):
            if cycle - entry.birth > self.lifetime:
                self._entries.remove(entry)
                evicted.append((entry, "expired"))

        chunk = addr // CHUNK_BYTES
        entry = None
        for candidate in self._entries:
            if candidate.chunk == chunk:
                entry = candidate
                break
        if entry is None:
            if len(self._entries) >= self.capacity:
                evicted.append((self._entries.pop(0), "capacity"))
            entry = RefTrackedChunk(chunk=chunk, birth=cycle)
            self._entries.append(entry)
        else:
            self._entries.remove(entry)
            self._entries.append(entry)

        entry.lines.add((addr % CHUNK_BYTES) // CACHELINE_BYTES)
        if len(entry.lines) >= LINES_PER_CHUNK:
            self._entries.remove(entry)
            evicted.append((entry, "full"))
        return evicted


# ---------------------------------------------------------------------------
# Granularity table with lazy switching (Sec. 4.4)
# ---------------------------------------------------------------------------


@dataclass
class RefTableEntry:
    current: int = 0
    next: int = 0
    written: bool = False
    last_access_write: bool = False
    demote_hold: int = 0


@dataclass
class RefSwitch:
    """One lazy switch the reference table decided to apply."""

    addr: int
    old_granularity: int
    new_granularity: int
    old_bits: int
    new_bits: int

    @property
    def scale_up(self) -> bool:
        return self.new_granularity > self.old_granularity


class RefTable:
    """Two-bitmap granularity table, switched partition by partition."""

    def __init__(
        self,
        min_coarse: int = GRANULARITIES[1],
        max_granularity: int = GRANULARITIES[3],
    ) -> None:
        self.min_coarse = min_coarse
        self.max_granularity = max_granularity
        self._entries: Dict[int, RefTableEntry] = {}

    def entry(self, chunk: int) -> RefTableEntry:
        if chunk not in self._entries:
            self._entries[chunk] = RefTableEntry()
        return self._entries[chunk]

    def record_detection(self, chunk: int, bits: int) -> None:
        entry = self.entry(chunk)
        bits = ref_quantize_bits(bits, self.min_coarse)
        if entry.demote_hold > 0:
            entry.demote_hold -= 1
            bits &= entry.next
        entry.next = bits

    def resolve(self, addr: int, is_write: bool) -> Tuple[int, Optional[RefSwitch]]:
        entry = self.entry(addr // CHUNK_BYTES)
        old_gran = ref_resolve_granularity(entry.current, addr, self.max_granularity)
        new_gran = ref_resolve_granularity(entry.next, addr, self.max_granularity)

        switch: Optional[RefSwitch] = None
        if new_gran != old_gran:
            old_bits = entry.current
            span = max(old_gran, new_gran)
            self._copy_region_bits(entry, addr, span)
            switch = RefSwitch(
                addr=addr,
                old_granularity=old_gran,
                new_granularity=new_gran,
                old_bits=old_bits,
                new_bits=entry.current,
            )
            granularity = new_gran
        else:
            granularity = old_gran

        entry.last_access_write = is_write
        if is_write:
            entry.written = True
        return granularity, switch

    def _copy_region_bits(self, entry: RefTableEntry, addr: int, span: int) -> None:
        """Move ``next`` into ``current`` for the touched span only."""
        if span >= CHUNK_BYTES:
            entry.current = entry.next
            return
        offset = addr % CHUNK_BYTES
        region_start = (offset // span) * span
        first_part = region_start // GRANULARITIES[1]
        parts = max(1, span // GRANULARITIES[1])
        for part in range(first_part, first_part + parts):
            if entry.next >> part & 1:
                entry.current |= 1 << part
            else:
                entry.current &= ~(1 << part)


# ---------------------------------------------------------------------------
# The full functional shadow model
# ---------------------------------------------------------------------------

_ZERO_LINE = bytes(CACHELINE_BYTES)


class RefModel:
    """Functional shadow of ``SecureMemory(policy="multigranular")``.

    Tracks plaintext contents, the two granularity bitmaps, and the
    per-region counter *values* (Fig. 13 re-keying rules), without any
    cryptography: the differential harness compares these predictions
    against the real engine's observable state after every request.

    Assumes clean streams (no tampering, so no quarantine or demotion
    recovery paths) and non-overflowing counters; the fault-injection
    campaign covers the adversarial paths separately.
    """

    def __init__(
        self,
        region_bytes: int,
        tracker_entries: int = ACCESS_TRACKER_ENTRIES,
        tracker_lifetime: int = TRACKER_LIFETIME_CYCLES,
    ) -> None:
        self.geometry = RefGeometry(region_bytes)
        self.tracker = RefTracker(tracker_entries, tracker_lifetime)
        self.table = RefTable()
        self.data: Dict[int, bytes] = {}
        self.counters: Dict[Tuple[int, int], int] = {}
        self.cycle = 0
        self.switches = 0
        self.last_granularity = GRANULARITIES[0]

    # -- clock ----------------------------------------------------------

    def advance(self, cycles: int) -> None:
        self.cycle += cycles

    # -- counters -------------------------------------------------------

    def counter_of(self, addr: int, level: int) -> int:
        region = self.geometry.counter_region_index(addr, level)
        return self.counters.get((level, region), 0)

    def _set_counter(self, addr: int, level: int, value: int) -> None:
        region = self.geometry.counter_region_index(addr, level)
        self.counters[(level, region)] = value

    # -- the per-line pipeline (mirrors SecureMemory._resolve) ----------

    def _resolve(self, addr: int, is_write: bool) -> int:
        for entry, reason in self.tracker.observe(addr, self.cycle):
            merged = ref_merge_detection(
                self.table.entry(entry.chunk).next,
                entry.access_bits,
                censored=reason == "capacity",
            )
            self.table.record_detection(entry.chunk, merged)
        self.cycle += 1
        granularity, switch = self.table.resolve(addr, is_write)
        if switch is not None:
            self.switches += 1
            self._apply_switch_counters(switch)
        self.last_granularity = granularity
        return granularity

    def _apply_switch_counters(self, switch: RefSwitch) -> None:
        """Fig. 13: scale-up seals at ``max + 1``, scale-down retains."""
        span = max(switch.old_granularity, switch.new_granularity)
        span_base = switch.addr - switch.addr % span

        shared = 0
        for sub, sub_g in self._subregions(span_base, span, switch.old_bits):
            value = self.counter_of(sub, ref_granularity_level(sub_g))
            if value > shared:
                shared = value
        if switch.scale_up:
            shared += 1

        for sub, sub_g in self._subregions(span_base, span, switch.new_bits):
            self._set_counter(sub, ref_granularity_level(sub_g), shared)

    def _subregions(self, base: int, span: int, bits: int) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        off = 0
        while off < span:
            sub = base + off
            sub_g = min(ref_resolve_granularity(bits, sub), span)
            out.append((sub, sub_g))
            off += sub_g
        return out

    # -- public data interface -----------------------------------------

    def write(self, addr: int, payload: bytes) -> None:
        granularity = self._resolve(addr, is_write=True)
        level = ref_granularity_level(granularity)
        region_base = addr - addr % granularity
        self._set_counter(region_base, level, self.counter_of(region_base, level) + 1)
        self.data[addr] = payload.ljust(CACHELINE_BYTES, b"\0")

    def read(self, addr: int) -> bytes:
        self._resolve(addr, is_write=False)
        return self.data.get(addr, _ZERO_LINE)

    # -- observables ----------------------------------------------------

    def bits_of(self, addr: int) -> Tuple[int, int]:
        entry = self.table.entry(addr // CHUNK_BYTES)
        return entry.current, entry.next

    def granularity_of(self, addr: int) -> int:
        entry = self.table.entry(addr // CHUNK_BYTES)
        return ref_resolve_granularity(entry.current, addr, self.table.max_granularity)

"""Granularity-aware counter and MAC address computation (paper Eqs. 1-4).

Promotion moves a counter ``log_arity(g / 64B)`` levels up the tree
(Eqs. 2-3); merging compacts the MACs of a chunk so coarse MACs fill
the front of the chunk's MAC space without fragmentation (Fig. 9).
Addresses are computed per 32KB chunk assuming all *previous* chunks
are finest-grained, so each chunk owns a fixed 4KB MAC window and only
in-chunk indices depend on the bitmap (Sec. 4.3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.constants import (
    CACHELINE_BYTES,
    CACHELINE_SHIFT,
    CHUNK_BYTES,
    CHUNK_OFFSET_MASK,
    GRANULARITIES,
    LINES_PER_CHUNK,
    LINES_PER_PARTITION,
    MAC_BYTES,
    PARTITION_SHIFT,
    PARTITIONS_PER_CHUNK,
    TREE_ARITY,
    granularity_level,
)
from repro.core import stream_part
from repro.tree.geometry import TreeGeometry

#: Bytes of fine-MAC space owned by one 32KB chunk (512 lines x 8B).
MAC_BYTES_PER_CHUNK = LINES_PER_CHUNK * MAC_BYTES

_PARTS_PER_4KB = GRANULARITIES[2] // GRANULARITIES[1]


def num_parents(granularity: int, arity: int = TREE_ARITY) -> int:
    """Paper Eq. 2: promotion steps = log_arity(granularity / 64B)."""
    level = granularity_level(granularity)
    # The closed form below is Eq. 2 verbatim; the table lookup above
    # already validated that it is exact for supported granularities.
    parents = round(math.log(granularity / CACHELINE_BYTES, arity))
    assert parents == level
    return parents


def ancestor_index(leaf_counter_index: int, parents: int, arity: int = TREE_ARITY) -> int:
    """Paper Eq. 3: recursive ancestor of a leaf counter index."""
    index = leaf_counter_index
    for _ in range(parents):
        index //= arity
    return index


@dataclass(frozen=True)
class CounterLocation:
    """Resolved location of a (possibly promoted) counter."""

    level: int
    node_index: int
    slot: int
    node_addr: int


def locate_counter(
    geometry: TreeGeometry, addr: int, granularity: int
) -> CounterLocation:
    """Resolve the counter of ``addr`` protected at ``granularity``.

    Equivalent to Eqs. 2-4: the counter of a ``64B * 8**l`` region
    lives at slot ``region % 8`` of level-``l`` node ``region // 8``.
    """
    level = granularity_level(granularity)
    node, slot = geometry.counter_slot(addr, level)
    return CounterLocation(
        level=level,
        node_index=node,
        slot=slot,
        node_addr=geometry.node_addr(level, node),
    )


#: Capacity of the per-process chunk MAC layout memo.  8192 signatures
#: is far above what any sweep touches (a few dozen distinct bitmaps);
#: the explicit bound plus eviction counter exists so pathological
#: bitmap churn degrades visibly instead of silently.
LAYOUT_CACHE_CAPACITY = 8192

_LayoutEntry = Tuple[Tuple[int, ...], Tuple[bool, ...], int]

_layout_cache: "OrderedDict[Tuple[int, int], _LayoutEntry]" = OrderedDict()
_layout_counters: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}


def _chunk_mac_layout(bits: int, max_granularity: int) -> _LayoutEntry:
    """Memoized compaction layout of one (bitmap, cap) signature.

    Returns ``(part_index, part_merged, total)`` where
    ``part_index[p]`` is the compacted index of the first MAC of
    partition ``p`` (for a merged 4KB group, every member partition
    maps to the group's single MAC), ``part_merged[p]`` says the
    partition is covered by one merged MAC (512B or coarser), and
    ``total`` is the chunk's post-merge MAC count.

    The address-order walk of Fig. 9 is O(partitions) per lookup; the
    timing layer resolves a MAC address for *every* request, and the
    sweep revisits the same few bitmaps millions of times, so the walk
    is done once per signature and reduced to two tuple reads.  The
    memo is a bounded LRU (:data:`LAYOUT_CACHE_CAPACITY`) with
    hit/miss/eviction counters exposed via :func:`layout_cache_stats`.
    """
    key = (bits, max_granularity)
    cached = _layout_cache.get(key)
    if cached is not None:
        _layout_counters["hits"] += 1
        _layout_cache.move_to_end(key)
        return cached
    _layout_counters["misses"] += 1
    value = _compute_chunk_mac_layout(bits, max_granularity)
    _layout_cache[key] = value
    if len(_layout_cache) > LAYOUT_CACHE_CAPACITY:
        _layout_cache.popitem(last=False)
        _layout_counters["evictions"] += 1
    return value


def _compute_chunk_mac_layout(bits: int, max_granularity: int) -> _LayoutEntry:
    """The uncached Fig. 9 address-order walk behind the layout memo."""
    part_index: List[int] = []
    part_merged: List[bool] = []
    index = 0
    for group in range(PARTITIONS_PER_CHUNK // _PARTS_PER_4KB):
        mask = ((1 << _PARTS_PER_4KB) - 1) << (group * _PARTS_PER_4KB)
        if bits & mask == mask and max_granularity >= GRANULARITIES[2]:
            part_index.extend([index] * _PARTS_PER_4KB)
            part_merged.extend([True] * _PARTS_PER_4KB)
            index += 1
            continue
        for part in range(group * _PARTS_PER_4KB, (group + 1) * _PARTS_PER_4KB):
            part_index.append(index)
            merged = bool(bits & (1 << part)) and (
                max_granularity >= GRANULARITIES[1]
            )
            part_merged.append(merged)
            index += stream_part.mac_count_of_partition(
                bits, part, max_granularity
            )
    return tuple(part_index), tuple(part_merged), index


def clear_layout_cache() -> None:
    """Drop memoized chunk MAC layouts and reset counters (tests)."""
    _layout_cache.clear()
    for key in _layout_counters:
        _layout_counters[key] = 0


def layout_cache_stats() -> dict:
    """Hit/miss/eviction/size counters of the chunk MAC layout memo.

    The cache is a pure memo over (bits, max_granularity) signatures:
    it can change speed but never results.  ``repro check`` pins that
    claim by diffing every cached answer against the uncached reference
    walk in :mod:`repro.check.oracle`.  Tracing-enabled runs surface
    this dict through the metrics registry as ``engine.layout_cache.*``
    (the binding is tracer-gated because the cache is process-global,
    so an unconditional binding would leak state across the serial vs
    parallel and scalar vs fast byte-parity comparisons).
    """
    return {
        "hits": _layout_counters["hits"],
        "misses": _layout_counters["misses"],
        "evictions": _layout_counters["evictions"],
        "entries": len(_layout_cache),
        "capacity": LAYOUT_CACHE_CAPACITY,
    }


def mac_index_in_chunk(
    bits: int, addr: int, max_granularity: int = GRANULARITIES[3]
) -> int:
    """Compacted in-chunk MAC index of ``addr`` under bitmap ``bits``.

    Walks the chunk's regions in address order, counting the MACs each
    earlier region contributes after merging: a fully streamed chunk
    has one MAC; a streamed 4KB group one; a stream partition one; a
    fine partition eight (one per line).  This realizes the
    fragmentation-free compaction of Fig. 9.  ``max_granularity`` caps
    merging for dual-granularity baselines.  The per-bitmap walk is
    memoized by :func:`_chunk_mac_layout`.
    """
    if bits == stream_part.FULL_MASK and max_granularity >= GRANULARITIES[3]:
        return 0

    part_index, part_merged, _ = _chunk_mac_layout(bits, max_granularity)
    my_partition = (addr & CHUNK_OFFSET_MASK) >> PARTITION_SHIFT
    index = part_index[my_partition]
    if part_merged[my_partition]:
        return index
    return index + ((addr >> CACHELINE_SHIFT) & (LINES_PER_PARTITION - 1))


def _macs_of_group(bits: int, group: int, max_granularity: int) -> int:
    mask = ((1 << _PARTS_PER_4KB) - 1) << (group * _PARTS_PER_4KB)
    if bits & mask == mask and max_granularity >= GRANULARITIES[2]:
        return 1
    return sum(
        stream_part.mac_count_of_partition(bits, part, max_granularity)
        for part in range(group * _PARTS_PER_4KB, (group + 1) * _PARTS_PER_4KB)
    )


def mac_addr(
    geometry: TreeGeometry,
    bits: int,
    addr: int,
    max_granularity: int = GRANULARITIES[3],
) -> int:
    """Paper Eq. 1: MAC address = chunk base + compacted index x 8B."""
    chunk = addr // CHUNK_BYTES
    chunk_mac_base = geometry.mac_base + chunk * MAC_BYTES_PER_CHUNK
    index = mac_index_in_chunk(bits, addr, max_granularity)
    return chunk_mac_base + index * MAC_BYTES


def mac_line_addr(
    geometry: TreeGeometry,
    bits: int,
    addr: int,
    max_granularity: int = GRANULARITIES[3],
) -> int:
    """64B-aligned address of the MAC cacheline holding ``addr``'s MAC."""
    raw = mac_addr(geometry, bits, addr, max_granularity)
    return raw - (raw % CACHELINE_BYTES)


def macs_per_chunk(bits: int, max_granularity: int = GRANULARITIES[3]) -> int:
    """Total MACs a chunk stores under bitmap ``bits`` (after merging)."""
    if bits == stream_part.FULL_MASK and max_granularity >= GRANULARITIES[3]:
        return 1
    return _chunk_mac_layout(bits, max_granularity)[2]


def fine_lines_of_region(addr: int, granularity: int) -> range:
    """Global line indices of the region of ``addr`` at ``granularity``."""
    base = (addr // granularity) * granularity
    first = base // CACHELINE_BYTES
    return range(first, first + granularity // CACHELINE_BYTES)


def sanity_check_chunk_mac_space(bits: int) -> None:
    """Assert merged MACs never outgrow the fixed per-chunk MAC window."""
    assert macs_per_chunk(bits) <= LINES_PER_CHUNK, (
        f"compacted MAC count {macs_per_chunk(bits)} exceeds the fine "
        f"layout's {LINES_PER_CHUNK} slots"
    )

"""``stream_part`` bitmaps: the paper's granularity encoding (Sec. 4.4).

The granularity of one 32KB chunk is stored as a 64-bit bitmap with one
bit per 512B partition.  A set bit means the partition is a *stream
partition* (protected at 512B or coarser); a clear bit means 64B fine
granularity.  Coarser granularities are encoded positionally:

* all 64 bits set            -> the whole chunk is 32KB-granular;
* an aligned group of 8 bits -> that 4KB block is 4KB-granular;
* a single set bit           -> that 512B partition is 512B-granular.

We keep the canonical in-memory convention "bit ``i`` = partition
``i``"; :func:`algorithm1_encoding` converts to the paper's literal
Algorithm-1 bit order (partition 0 in the MSB) for fidelity tests.
"""

from __future__ import annotations

from typing import List

from repro.common.address import partition_in_chunk
from repro.common.constants import (
    CHUNK_OFFSET_MASK,
    GRANULARITIES,
    LINES_PER_PARTITION,
    PARTITION_SHIFT,
    PARTITIONS_PER_CHUNK,
)

#: Bitmap with every partition marked as a stream (32KB granularity).
FULL_MASK = (1 << PARTITIONS_PER_CHUNK) - 1

#: Partitions per 4KB block (8 when partitions are 512B).
_PARTS_PER_4KB = GRANULARITIES[2] // GRANULARITIES[1]

_G64, _G512, _G4K, _G32K = GRANULARITIES
#: ``stream_part`` bits of one 4KB group, and the mask aligning a
#: partition index down to its group's first partition.
_GROUP_BITS = (1 << _PARTS_PER_4KB) - 1
_GROUP_ALIGN = ~(_PARTS_PER_4KB - 1)


def partition_bit(addr: int) -> int:
    """Bit mask of the partition containing ``addr`` within its chunk."""
    return 1 << partition_in_chunk(addr)


def resolve_granularity(
    bits: int, addr: int, max_granularity: int = GRANULARITIES[3]
) -> int:
    """Effective protection granularity of ``addr`` under bitmap ``bits``.

    Checks coarsest-first so a fully set chunk resolves to 32KB even
    though its 4KB groups and partitions are also fully set.
    ``max_granularity`` caps the result -- dual-granularity baselines
    (e.g. 64B/4KB MACs of [56]) run the same machinery with a cap.
    """
    if not bits:
        return _G64  # nothing streamed in the chunk
    if bits == FULL_MASK and max_granularity >= _G32K:
        return _G32K
    part = (addr & CHUNK_OFFSET_MASK) >> PARTITION_SHIFT
    group = _GROUP_BITS << (part & _GROUP_ALIGN)
    if bits & group == group and max_granularity >= _G4K:
        return _G4K
    if bits >> part & 1 and max_granularity >= _G512:
        return _G512
    return _G64


def quantize_bits(bits: int, min_coarse: int) -> int:
    """Drop stream marks finer than ``min_coarse`` from a bitmap.

    Schemes that only support a subset of granularities (dual-granular
    prior work, ablations) quantize detection results before storing
    them: a 512B stream partition is meaningless to a scheme whose
    coarse unit is 4KB, so its bit is cleared (the partition falls back
    to fine-grained).
    """
    if min_coarse <= GRANULARITIES[1]:
        return bits
    if min_coarse == GRANULARITIES[2]:
        out = 0
        for group in range(PARTITIONS_PER_CHUNK // _PARTS_PER_4KB):
            mask = ((1 << _PARTS_PER_4KB) - 1) << (group * _PARTS_PER_4KB)
            if bits & mask == mask:
                out |= mask
        return out
    if min_coarse == GRANULARITIES[3]:
        return FULL_MASK if bits == FULL_MASK else 0
    raise ValueError(f"unsupported min_coarse {min_coarse}")


def granularity_histogram(bits: int) -> dict:
    """Bytes of a chunk covered at each granularity, keyed by size.

    Used for Fig. 19 (b)-style distributions: a chunk's 32KB either
    counts entirely as one 32KB stream, or splits into 4KB groups,
    512B partitions and fine residue.
    """
    sizes = {g: 0 for g in GRANULARITIES}
    if bits == FULL_MASK:
        sizes[GRANULARITIES[3]] = GRANULARITIES[3]
        return sizes
    for group in range(PARTITIONS_PER_CHUNK // _PARTS_PER_4KB):
        mask = ((1 << _PARTS_PER_4KB) - 1) << (group * _PARTS_PER_4KB)
        if bits & mask == mask:
            sizes[GRANULARITIES[2]] += GRANULARITIES[2]
            continue
        for part in range(group * _PARTS_PER_4KB, (group + 1) * _PARTS_PER_4KB):
            if bits & (1 << part):
                sizes[GRANULARITIES[1]] += GRANULARITIES[1]
            else:
                sizes[GRANULARITIES[0]] += GRANULARITIES[1]
    return sizes


def region_base_and_size(bits: int, addr: int, chunk_base: int) -> tuple:
    """(base address, size) of the protection region containing ``addr``."""
    gran = resolve_granularity(bits, addr)
    offset = addr - chunk_base
    return chunk_base + (offset // gran) * gran, gran


def partitions_as_list(bits: int) -> List[bool]:
    """Expand a bitmap into a per-partition boolean list (index = partition)."""
    return [bool(bits & (1 << i)) for i in range(PARTITIONS_PER_CHUNK)]


def from_partition_flags(flags: List[bool]) -> int:
    """Inverse of :func:`partitions_as_list`."""
    if len(flags) != PARTITIONS_PER_CHUNK:
        raise ValueError(
            f"expected {PARTITIONS_PER_CHUNK} partition flags, got {len(flags)}"
        )
    bits = 0
    for i, flag in enumerate(flags):
        if flag:
            bits |= 1 << i
    return bits


def algorithm1_encoding(bits: int) -> int:
    """Convert the canonical bitmap to the paper's Algorithm-1 order.

    Algorithm 1 appends partitions MSB-first (add one, then shift
    left), so partition 0 lands in the most significant bit.  The two
    encodings are bit-reverses of each other.
    """
    encoded = 0
    for i in range(PARTITIONS_PER_CHUNK):
        encoded = (encoded << 1) | ((bits >> i) & 1)
    return encoded


def mac_count_of_partition(
    bits: int, partition: int, max_granularity: int = GRANULARITIES[3]
) -> int:
    """MACs contributed by one partition under bitmap ``bits``.

    A stream partition is covered by one merged MAC shared with its
    group (counted at group granularity by the caller); a fine
    partition contributes one MAC per 64B line.  Schemes whose coarse
    unit is larger than 512B never merge at partition level.
    """
    if bits & (1 << partition) and max_granularity >= GRANULARITIES[1]:
        return 1
    return LINES_PER_PARTITION

"""Granularity detection (paper Algorithm 1).

When an access-tracker entry is evicted, its 512-bit access vector is
split into 64 partitions of 8 bits.  A partition whose bits are all
set was fully streamed within the tracking window and becomes a
*stream partition*; the result is the ``stream_part`` bitmap stored in
the granularity table.
"""

from __future__ import annotations

from repro.common.constants import (
    LINES_PER_CHUNK,
    LINES_PER_PARTITION,
    PARTITIONS_PER_CHUNK,
)

_PARTITION_MASK = (1 << LINES_PER_PARTITION) - 1

# A partition is 8 lines, so the big-endian byte view of an access
# vector holds one partition per byte, partition 63 first: the order in
# which ``int(..., 2)`` reads binary digits.  ``bytes.translate`` with
# these tables turns every byte into the digit of one per-partition
# predicate at once.
assert LINES_PER_PARTITION == 8
_VECTOR_BYTES = PARTITIONS_PER_CHUNK
_DIGIT_FULL = b"0" * _PARTITION_MASK + b"1"  # byte == 0xFF: ISALLSET
_DIGIT_TOUCHED = b"0" + b"1" * _PARTITION_MASK  # byte != 0


def detect_stream_partitions(access_bits: int) -> int:
    """Algorithm 1 over a 512-bit access vector -> 64-bit ``stream_part``.

    Canonical bit order: bit ``i`` of the result corresponds to
    partition ``i`` (the paper's literal MSB-first encoding is
    available via :func:`repro.core.stream_part.algorithm1_encoding`).
    All 64 ISALLSET tests run at once over the vector's byte view.
    """
    if access_bits < 0 or access_bits >> LINES_PER_CHUNK:
        raise ValueError("access vector wider than 512 bits")
    view = access_bits.to_bytes(_VECTOR_BYTES, "big")
    return int(view.translate(_DIGIT_FULL), 2)


def detect_paper_order(access_bits: int) -> int:
    """Algorithm 1 verbatim: add-one-then-shift-left accumulation.

    Returns the paper's MSB-first encoding.  Kept as an independent
    implementation so tests can cross-check the canonical one.
    """
    stream_partition = 0
    for part in range(PARTITIONS_PER_CHUNK):
        stream_partition <<= 1
        window = (access_bits >> (part * LINES_PER_PARTITION)) & _PARTITION_MASK
        if window == _PARTITION_MASK:
            stream_partition |= 1
    return stream_partition


def merge_detection(
    previous_bits: int, access_bits: int, censored: bool = False
) -> int:
    """Fold one tracker observation into the previous ``stream_part``.

    A partition that was fully covered in the window is (re)classified
    as a stream; a partition that was *touched but only partially* is
    demoted (evidence of sparse access); a partition the window never
    touched keeps its previous classification -- absence of accesses
    is not evidence that a stream stopped being a stream.  Without
    this, capacity-evicted tracker entries (common when four devices
    share twelve entries) would erase learned granularity and cause
    demote/re-promote oscillation on every unrelated fine access.

    ``censored=True`` marks observations cut short by a *capacity*
    eviction: a stream that was still in flight looks exactly like a
    sparse access ("touched but incomplete"), so truncated windows may
    only promote, never demote.

    Both per-partition masks come from the vector's byte view in one
    pass each, not from a 64-step shift loop; ``repro check`` diffs the
    result against the naive per-partition reference.
    """
    view = access_bits.to_bytes(_VECTOR_BYTES, "big")
    streams = int(view.translate(_DIGIT_FULL), 2)
    if censored:
        return previous_bits | streams
    touched = int(view.translate(_DIGIT_TOUCHED), 2)
    return (previous_bits & ~touched) | streams


def full_chunk_vector() -> int:
    """Access vector of a completely streamed chunk (all 512 bits set)."""
    return (1 << LINES_PER_CHUNK) - 1


def vector_from_lines(lines) -> int:
    """Build an access vector from in-chunk line indices (0..511)."""
    bits = 0
    for line in lines:
        if not 0 <= line < LINES_PER_CHUNK:
            raise ValueError(f"line index {line} out of chunk range")
        bits |= 1 << line
    return bits

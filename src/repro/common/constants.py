"""Global architectural constants shared by every subsystem.

The paper (Section 4.2) adopts an 8-arity counter tree built on 64B
cachelines, which fixes the four supported granularities at 64B, 512B,
4KB and 32KB -- each one arity (8x) coarser than the previous.  All of
the address algebra in :mod:`repro.common.address` and the tree geometry
in :mod:`repro.tree` derive from the numbers defined here.
"""

from __future__ import annotations

#: Size of one cacheline / memory block in bytes (the finest granularity).
CACHELINE_BYTES = 64

#: Arity of the counter integrity tree (children per node, counters per line).
TREE_ARITY = 8

#: Supported protection granularities in bytes, finest first (paper Sec. 4.2).
GRANULARITIES = (64, 512, 4096, 32768)

#: Finest supported granularity (one cacheline).
FINE_GRAIN_BYTES = GRANULARITIES[0]

#: Second-finest granularity; the paper calls a 512B block a *partition*.
PARTITION_BYTES = GRANULARITIES[1]

#: Coarsest supported granularity; the paper calls a 32KB block a *chunk*.
CHUNK_BYTES = GRANULARITIES[-1]

#: Cachelines per 32KB chunk (= bits in one access-tracker entry vector).
LINES_PER_CHUNK = CHUNK_BYTES // CACHELINE_BYTES  # 512

#: 512B partitions per 32KB chunk (= bits in one ``stream_part`` bitmap).
PARTITIONS_PER_CHUNK = CHUNK_BYTES // PARTITION_BYTES  # 64

#: Cachelines per 512B partition.
LINES_PER_PARTITION = PARTITION_BYTES // CACHELINE_BYTES  # 8

#: Bits used for the in-chunk cacheline offset of a 64-bit address.
CHUNK_OFFSET_BITS = 15  # log2(32KB)

#: Mask of the in-chunk offset, and log2 of the line and partition sizes:
#: the shift-and-mask forms of :mod:`repro.common.address`'s helpers that
#: the per-access paths (tracker, granularity table, MAC index) inline.
CHUNK_OFFSET_MASK = CHUNK_BYTES - 1
CACHELINE_SHIFT = 6  # log2(64B)
PARTITION_SHIFT = 9  # log2(512B)

#: Bits of a 64-bit address that form the chunk index (paper Sec. 4.4).
CHUNK_INDEX_BITS = 64 - CHUNK_OFFSET_BITS  # 49

#: Size of one MAC in bytes (8B MAC per 64B block, paper Sec. 2.2).
MAC_BYTES = 8

#: MACs that fit in one 64B MAC cacheline.
MACS_PER_LINE = CACHELINE_BYTES // MAC_BYTES  # 8

#: Counter width in bytes used by the functional layer (8B => 8 per line).
COUNTER_BYTES = 8

#: Counters per 64B counter cacheline (equals the tree arity).
COUNTERS_PER_LINE = CACHELINE_BYTES // COUNTER_BYTES  # 8

# ---------------------------------------------------------------------------
# Timing constants (paper Sec. 5.1, "Memory protection engine")
# ---------------------------------------------------------------------------

#: Latency of one-time-pad generation, in cycles.
OTP_LATENCY_CYCLES = 10

#: Latency of the OTP XOR with the data, in cycles.
XOR_LATENCY_CYCLES = 1

#: Latency of one MAC (keyed hash) computation, in cycles.
MAC_LATENCY_CYCLES = 10

#: Default metadata (counter + tree node) cache capacity in bytes.
METADATA_CACHE_BYTES = 8 * 1024

#: Default MAC cache capacity in bytes.
MAC_CACHE_BYTES = 4 * 1024

#: Default granularity-table cache capacity in bytes (models the 0.3%
#: overhead the paper attributes to table accesses via a small cache).
GRAN_TABLE_CACHE_BYTES = 8 * 1024

#: Number of access-tracker entries (3 x 4 processing units, paper Sec. 4.4).
ACCESS_TRACKER_ENTRIES = 12

#: Lifetime of one access-tracker entry, in cycles (paper Sec. 4.4).
TRACKER_LIFETIME_CYCLES = 16 * 1024

# ---------------------------------------------------------------------------
# Memory-system constants (paper Table 3: NVIDIA-Orin-like LPDDR4 system)
# ---------------------------------------------------------------------------

#: Reference simulation clock in Hz. Devices are normalized to this clock.
SIM_CLOCK_HZ = 1_000_000_000

#: Shared LPDDR4 bandwidth in bytes per reference cycle (17 GB/s @ 1 GHz).
DRAM_BYTES_PER_CYCLE = 17.0

#: Idle (unloaded) DRAM access latency in reference cycles.
DRAM_LATENCY_CYCLES = 100

#: Size of the simulated protected physical memory (4GB, paper Sec. 4.4).
PROTECTED_MEMORY_BYTES = 4 * 1024 * 1024 * 1024


def granularity_level(granularity: int) -> int:
    """Return the level index (0..3) of a supported granularity.

    Level 0 is 64B (fine), level 3 is 32KB (coarsest).  Raises
    :class:`ValueError` for unsupported sizes, because silent fallback
    would corrupt the address computation of Eqs. 1-4.
    """
    try:
        return GRANULARITIES.index(granularity)
    except ValueError:
        raise ValueError(
            f"unsupported granularity {granularity}; expected one of {GRANULARITIES}"
        ) from None

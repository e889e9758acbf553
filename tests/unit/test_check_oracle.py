"""Naive reference model vs optimized layout functions.

The oracle in :mod:`repro.check.oracle` re-derives the paper's layout
math (Eqs. 1-4, Alg. 1, Fig. 9) from first principles; these tests
cross-check it against the optimized implementations over randomized
and adversarial inputs.  ``python -m repro check`` runs a larger sweep
of the same comparisons; this file keeps a fast always-on slice in the
tier-1 suite.
"""

import random
from collections import Counter

from repro.check import oracle as ref
from repro.check.runner import structured_vectors
from repro.common.constants import (
    CACHELINE_BYTES,
    CHUNK_BYTES,
    GRANULARITIES,
    LINES_PER_CHUNK,
    LINES_PER_PARTITION,
    MAC_BYTES,
    PARTITIONS_PER_CHUNK,
)
from repro.core import addressing, detector, stream_part
from repro.tree.geometry import TreeGeometry

RNG_SEED = 20260806


def _bitmaps(rng, count):
    """Structured + random partition bitmaps (the adversarial corners)."""
    out = [0, stream_part.FULL_MASK]
    for group in range(PARTITIONS_PER_CHUNK // ref.PARTS_PER_GROUP):
        first = group * ref.PARTS_PER_GROUP
        mask = 0
        for part in range(first, first + ref.PARTS_PER_GROUP):
            mask |= 1 << part
        out.append(mask)
        out.append(stream_part.FULL_MASK & ~mask)
    out.append(stream_part.FULL_MASK & ~1)
    out.append(stream_part.FULL_MASK & ~(1 << (PARTITIONS_PER_CHUNK - 1)))
    while len(out) < count:
        out.append(rng.getrandbits(PARTITIONS_PER_CHUNK))
    return out


def test_mac_index_and_count_match_naive():
    rng = random.Random(RNG_SEED)
    for bits in _bitmaps(rng, 48):
        assert addressing.macs_per_chunk(bits) == ref.ref_macs_per_chunk(bits)
        for _ in range(8):
            addr = rng.randrange(CHUNK_BYTES) // CACHELINE_BYTES * CACHELINE_BYTES
            assert addressing.mac_index_in_chunk(bits, addr) == ref.ref_mac_index(
                bits, addr
            ), f"bits={bits:#x} addr={addr:#x}"


def test_mac_addr_matches_naive_across_chunks():
    rng = random.Random(RNG_SEED + 1)
    region_bytes = 8 * CHUNK_BYTES
    geometry = TreeGeometry.build(region_bytes)
    for bits in _bitmaps(rng, 24):
        chunk = rng.randrange(8)
        line = rng.randrange(LINES_PER_CHUNK)
        addr = chunk * CHUNK_BYTES + line * CACHELINE_BYTES
        assert addressing.mac_addr(geometry, bits, addr) == ref.ref_mac_addr(
            region_bytes, bits, addr
        )


def test_granularity_resolution_matches_naive():
    rng = random.Random(RNG_SEED + 2)
    for bits in _bitmaps(rng, 48):
        addr = rng.randrange(CHUNK_BYTES) // CACHELINE_BYTES * CACHELINE_BYTES
        for max_g in GRANULARITIES[1:]:
            assert stream_part.resolve_granularity(
                bits, addr, max_g
            ) == ref.ref_resolve_granularity(bits, addr, max_g)
        for min_coarse in GRANULARITIES[1:]:
            assert stream_part.quantize_bits(bits, min_coarse) == ref.ref_quantize_bits(
                bits, min_coarse
            )


def test_detection_and_merge_match_naive():
    rng = random.Random(RNG_SEED + 3)
    vectors = [rng.getrandbits(LINES_PER_CHUNK) for _ in range(64)]
    # Uniform draws almost never hold an empty or full window; the
    # structured ones reach the keep and promote branches of the merge.
    vectors += structured_vectors(rng, 256)
    for vector in vectors:
        got = detector.detect_stream_partitions(vector)
        assert got == ref.ref_detect_stream_partitions(vector)
        previous = rng.getrandbits(PARTITIONS_PER_CHUNK)
        for censored in (False, True):
            assert detector.merge_detection(
                previous, vector, censored
            ) == ref.ref_merge_detection(previous, vector, censored)


def test_structured_vectors_mix_every_window_kind():
    full = (1 << LINES_PER_PARTITION) - 1
    kinds = Counter()
    for vector in structured_vectors(random.Random(RNG_SEED), 64):
        for part in range(PARTITIONS_PER_CHUNK):
            window = vector >> (part * LINES_PER_PARTITION) & full
            if not window:
                kinds["empty"] += 1
            elif window == full:
                kinds["full"] += 1
            else:
                kinds["partial"] += 1
    # Uniform draws would give ~1/256 empty and ~1/256 full windows.
    total = sum(kinds.values())
    assert min(kinds["empty"], kinds["full"], kinds["partial"]) > total / 8


def test_promotion_arithmetic_matches_naive():
    for granularity in GRANULARITIES:
        parents = addressing.num_parents(granularity)
        assert parents == ref.ref_num_parents(granularity)
        for leaf in (0, 1, 7, 8, 63, 64, 511, 4095):
            assert addressing.ancestor_index(leaf, parents) == ref.ref_ancestor_index(
                leaf, parents
            )


def test_tree_geometry_matches_naive():
    rng = random.Random(RNG_SEED + 4)
    for chunks in (1, 8, 32):
        region = chunks * CHUNK_BYTES
        opt = TreeGeometry.build(region)
        naive = ref.RefGeometry(region)
        assert opt.level_counts == naive.level_counts
        assert opt.mac_base == naive.mac_base
        assert opt.tree_base == naive.tree_base
        assert opt.table_base == naive.table_base
        for _ in range(16):
            addr = rng.randrange(region) // CACHELINE_BYTES * CACHELINE_BYTES
            level = rng.randrange(naive.root_level + 1)
            assert opt.counter_slot(addr, level) == naive.counter_slot(addr, level)
            node, _slot = naive.counter_slot(addr, level)
            assert opt.node_addr(level, node) == naive.node_addr(level, node)
        line = rng.randrange(region // CACHELINE_BYTES)
        assert opt.fine_mac_addr(line) == naive.mac_base + line * MAC_BYTES


def test_metadata_windows_classify_consistently():
    region = 8 * CHUNK_BYTES
    opt = TreeGeometry.build(region)
    naive = ref.RefGeometry(region)
    bounds = opt.metadata_bounds()
    assert set(bounds) == {"data", "mac", "tree", "table"}
    rng = random.Random(RNG_SEED + 5)
    probes = [0, region - 1, region, opt.tree_base, opt.table_base]
    probes += [rng.randrange(opt.table_base + 4 * CHUNK_BYTES) for _ in range(64)]
    for addr in probes:
        assert opt.classify_addr(addr) == naive.classify(addr), f"addr={addr:#x}"

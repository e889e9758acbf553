"""Eqs. 1-4: counter promotion and merged-MAC compaction arithmetic."""

import pytest

from repro.common.constants import CHUNK_BYTES, GRANULARITIES, MAC_BYTES
from repro.core import addressing, stream_part
from repro.tree.geometry import TreeGeometry


@pytest.fixture(scope="module")
def geometry():
    return TreeGeometry.build(1 << 20)


class TestEquation2And3:
    def test_num_parents_matches_levels(self):
        assert addressing.num_parents(64) == 0
        assert addressing.num_parents(512) == 1
        assert addressing.num_parents(4096) == 2
        assert addressing.num_parents(32768) == 3

    def test_ancestor_index(self):
        assert addressing.ancestor_index(100, 0) == 100
        assert addressing.ancestor_index(100, 1) == 12
        assert addressing.ancestor_index(100, 2) == 1
        assert addressing.ancestor_index(511, 3) == 0


class TestLocateCounter:
    def test_fine_counter_at_level0(self, geometry):
        loc = addressing.locate_counter(geometry, 64 * 10, 64)
        assert loc.level == 0
        assert (loc.node_index, loc.slot) == (1, 2)

    def test_promoted_counter_moves_up(self, geometry):
        fine = addressing.locate_counter(geometry, 0, 64)
        part = addressing.locate_counter(geometry, 0, 512)
        chunk = addressing.locate_counter(geometry, 0, 32768)
        assert (fine.level, part.level, chunk.level) == (0, 1, 3)

    def test_same_region_shares_counter(self, geometry):
        locs = {
            addressing.locate_counter(geometry, addr, 512).node_addr
            for addr in range(0, 512, 64)
        }
        slots = {
            addressing.locate_counter(geometry, addr, 512).slot
            for addr in range(0, 512, 64)
        }
        assert len(locs) == 1 and len(slots) == 1

    def test_adjacent_regions_use_adjacent_slots(self, geometry):
        a = addressing.locate_counter(geometry, 0, 512)
        b = addressing.locate_counter(geometry, 512, 512)
        assert a.node_index == b.node_index
        assert b.slot == a.slot + 1


class TestMacIndexCompaction:
    def test_all_fine_is_identity_layout(self):
        for addr in (0, 64, 512, 4096, 32704):
            assert addressing.mac_index_in_chunk(0, addr) == addr // 64

    def test_full_chunk_single_mac(self):
        assert addressing.mac_index_in_chunk(stream_part.FULL_MASK, 12345) == 0

    def test_single_stream_partition_compacts(self):
        bits = 1 << 0  # partition 0 merged
        assert addressing.mac_index_in_chunk(bits, 0) == 0
        assert addressing.mac_index_in_chunk(bits, 300) == 0  # same region
        # Partition 1 starts right after the single merged MAC.
        assert addressing.mac_index_in_chunk(bits, 512) == 1
        assert addressing.mac_index_in_chunk(bits, 512 + 64) == 2

    def test_paper_figure9_example(self):
        # Fig. 9: blocks 0-7 and 8-15 merged -> two coarse MACs at
        # compacted positions 0 and 1.
        bits = 0b11
        assert addressing.mac_index_in_chunk(bits, 0) == 0
        assert addressing.mac_index_in_chunk(bits, 512) == 1
        assert addressing.mac_index_in_chunk(bits, 1024) == 2  # fine resumes

    def test_full_group_counts_one(self):
        bits = 0xFF
        assert addressing.mac_index_in_chunk(bits, 0) == 0
        assert addressing.mac_index_in_chunk(bits, 4096) == 1

    def test_macs_per_chunk(self):
        assert addressing.macs_per_chunk(0) == 512
        assert addressing.macs_per_chunk(stream_part.FULL_MASK) == 1
        assert addressing.macs_per_chunk(0xFF) == 1 + 56 * 8
        assert addressing.macs_per_chunk(1) == 1 + 63 * 8

    def test_compaction_never_exceeds_fine_layout(self):
        for bits in (0, 1, 0xFF, 0xF0F0, stream_part.FULL_MASK):
            addressing.sanity_check_chunk_mac_space(bits)

    def test_max_granularity_cap(self):
        bits = stream_part.FULL_MASK
        # Capped at 4KB: 8 group MACs instead of 1 chunk MAC.
        assert addressing.macs_per_chunk(bits, 4096) == 8
        assert addressing.mac_index_in_chunk(bits, 4096, 4096) == 1
        # Capped at 512B: one MAC per partition.
        assert addressing.macs_per_chunk(bits, 512) == 64
        assert addressing.mac_index_in_chunk(bits, 512, 512) == 1


class TestMacAddresses:
    def test_chunks_own_fixed_windows(self, geometry):
        # Eq. 1 note: previous chunks assumed finest-grained.
        a = addressing.mac_addr(geometry, stream_part.FULL_MASK, 0)
        b = addressing.mac_addr(geometry, 0, CHUNK_BYTES)
        assert a == geometry.mac_base
        assert b == geometry.mac_base + addressing.MAC_BYTES_PER_CHUNK

    def test_mac_addr_uses_8_byte_slots(self, geometry):
        assert addressing.mac_addr(geometry, 0, 64) - addressing.mac_addr(
            geometry, 0, 0
        ) == MAC_BYTES

    def test_mac_line_addr_is_aligned(self, geometry):
        for addr in (0, 64, 512, 4096, CHUNK_BYTES + 320):
            line = addressing.mac_line_addr(geometry, 0, addr)
            assert line % 64 == 0

    def test_merged_region_shares_mac_line(self, geometry):
        bits = stream_part.FULL_MASK
        lines = {
            addressing.mac_line_addr(geometry, bits, addr)
            for addr in range(0, CHUNK_BYTES, 64)
        }
        assert len(lines) == 1

    def test_fine_region_spreads_mac_lines(self, geometry):
        lines = {
            addressing.mac_line_addr(geometry, 0, addr)
            for addr in range(0, CHUNK_BYTES, 64)
        }
        assert len(lines) == 64  # 512 MACs / 8 per line


class TestBatchedMacIndices:
    """The one-lookup form multi-line writes seal through matches the
    naive oracle at every line of a chunk."""

    @pytest.mark.parametrize("bits", [stream_part.FULL_MASK, 0])
    def test_every_line_matches_the_oracle(self, bits):
        from repro.check import oracle as ref

        base = 3 * CHUNK_BYTES
        addrs = range(base, base + CHUNK_BYTES, 64)
        assert addressing.mac_indices_in_chunk(bits, addrs) == [
            ref.ref_mac_index(bits, addr) for addr in addrs
        ]

    def test_mac_addrs_matches_mac_addr(self, geometry):
        bits = 0xFF03  # a 4 KB group and two 512 B partitions
        addrs = list(range(CHUNK_BYTES, 2 * CHUNK_BYTES, 64))
        assert addressing.mac_addrs(geometry, bits, addrs) == [
            addressing.mac_addr(geometry, bits, addr) for addr in addrs
        ]


class TestFineLines:
    def test_fine_lines_of_region(self):
        lines = addressing.fine_lines_of_region(512 + 64, 512)
        assert list(lines) == [8, 9, 10, 11, 12, 13, 14, 15]

"""Constants must satisfy the structural identities the paper assumes."""

import pytest

from repro.common import constants


class TestGranularityLadder:
    def test_four_granularities(self):
        assert constants.GRANULARITIES == (64, 512, 4096, 32768)

    def test_each_level_is_one_arity_coarser(self):
        for finer, coarser in zip(
            constants.GRANULARITIES, constants.GRANULARITIES[1:]
        ):
            assert coarser == finer * constants.TREE_ARITY

    def test_granularity_level_roundtrip(self):
        for level, granularity in enumerate(constants.GRANULARITIES):
            assert constants.granularity_level(granularity) == level

    @pytest.mark.parametrize("bad", [0, 1, 63, 128, 1024, 65536, -64])
    def test_granularity_level_rejects_unsupported(self, bad):
        with pytest.raises(ValueError):
            constants.granularity_level(bad)


class TestDerivedCounts:
    def test_lines_per_chunk_is_512(self):
        assert constants.LINES_PER_CHUNK == 512

    def test_partitions_per_chunk_is_64(self):
        assert constants.PARTITIONS_PER_CHUNK == 64

    def test_lines_per_partition_is_arity(self):
        assert constants.LINES_PER_PARTITION == constants.TREE_ARITY

    def test_chunk_offset_bits_match_chunk_size(self):
        assert 1 << constants.CHUNK_OFFSET_BITS == constants.CHUNK_BYTES

    def test_shift_and_mask_forms_match_sizes(self):
        assert constants.CHUNK_OFFSET_MASK == constants.CHUNK_BYTES - 1
        assert 1 << constants.CACHELINE_SHIFT == constants.CACHELINE_BYTES
        assert 1 << constants.PARTITION_SHIFT == constants.PARTITION_BYTES

    def test_chunk_index_bits_complement_offset(self):
        assert constants.CHUNK_INDEX_BITS + constants.CHUNK_OFFSET_BITS == 64

    def test_macs_per_line(self):
        assert constants.MACS_PER_LINE * constants.MAC_BYTES == (
            constants.CACHELINE_BYTES
        )

    def test_counters_per_line_equals_arity(self):
        assert constants.COUNTERS_PER_LINE == constants.TREE_ARITY


class TestTimingConstants:
    def test_paper_latencies(self):
        # Sec. 5.1 fixes OTP = 10 cycles, XOR = 1 cycle.
        assert constants.OTP_LATENCY_CYCLES == 10
        assert constants.XOR_LATENCY_CYCLES == 1

    def test_cache_sizes_match_paper(self):
        assert constants.METADATA_CACHE_BYTES == 8 * 1024
        assert constants.MAC_CACHE_BYTES == 4 * 1024

    def test_tracker_geometry_matches_paper(self):
        assert constants.ACCESS_TRACKER_ENTRIES == 12
        assert constants.TRACKER_LIFETIME_CYCLES == 16 * 1024

    def test_bandwidth_is_17_gbps_at_reference_clock(self):
        assert constants.DRAM_BYTES_PER_CYCLE == pytest.approx(17.0)

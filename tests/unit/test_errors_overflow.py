"""Counter-overflow reachability and key-epoch recovery.

The default 64-bit counters never overflow in practice, so these tests
configure *narrow* counters to make exhaustion reachable and check
both halves of the contract: the tree refuses to wrap (pad safety),
and the engine recovers by re-encrypting the chunk under a fresh key
epoch instead of dying.  A freshness counter of the tree, which a new
epoch cannot lower, is pinned at its 64-bit limit instead.
"""

import pytest

from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES
from repro.common.errors import CounterOverflowError, QuarantineError, SecurityError
from repro.crypto.keys import KeySet
from repro.secure_memory import FailurePolicy, SecureMemory
from repro.tree.geometry import TreeGeometry
from repro.tree.integrity_tree import CounterTree

REGION = 256 * 1024


def pin_root_counter(tree, addr, value):
    """Set the on-chip root counter above ``addr`` and reseal its child
    under it, so the tree verifies as if ``value`` updates had reached
    that child (64-bit freshness counters never get there otherwise)."""
    root_level = tree.geometry.root_level
    tree.set_counter(addr, root_level, value)
    child, _ = tree.geometry.counter_slot(addr, root_level - 1)
    tree._unsealed[(root_level - 1, child)] = None
    tree.seal()


class TestTreeOverflow:
    def test_narrow_limit_overflow_raises(self, keys):
        tree = CounterTree(TreeGeometry.build(REGION), keys, counter_limit=3)
        for expected in (1, 2, 3):
            assert tree.increment_counter(0, level=0) == expected
        with pytest.raises(CounterOverflowError):
            tree.increment_counter(0, level=0)

    def test_overflow_does_not_corrupt_state(self, keys):
        tree = CounterTree(TreeGeometry.build(REGION), keys, counter_limit=2)
        tree.increment_counter(0, level=0)
        tree.increment_counter(0, level=0)
        with pytest.raises(CounterOverflowError):
            tree.increment_counter(0, level=0)
        # The failed increment must not have moved the counter.
        assert tree.read_counter(0, level=0) == 2

    def test_freshness_overflow_stores_nothing(self, keys):
        tree = CounterTree(TreeGeometry.build(REGION), keys)
        tree.increment_counter(0, level=0)
        pin_root_counter(tree, 0, 2**64 - 1)
        tree.drop_trust_cache()
        with pytest.raises(CounterOverflowError):
            tree.increment_counter(0, level=0)
        # The whole climb is checked first: the leaf and every node
        # below the root keep their value and their seal.
        tree.drop_trust_cache()
        assert tree.read_counter(0, level=0) == 1

    @pytest.mark.parametrize("limit", [0, 1, 2**64])
    def test_limit_validation(self, keys, limit):
        with pytest.raises(ValueError):
            CounterTree(TreeGeometry.build(REGION), keys, counter_limit=limit)


class TestEngineOverflowRecovery:
    def test_counter_bits_validation(self, keys):
        with pytest.raises(ValueError):
            SecureMemory(REGION, keys=keys, counter_bits=1)
        with pytest.raises(ValueError):
            SecureMemory(REGION, keys=keys, counter_bits=65)

    def test_fine_writes_survive_exhaustion(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)  # limit 7
        for i in range(20):
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        assert mem.read(0, CACHELINE_BYTES) == bytes([20]) * CACHELINE_BYTES
        assert mem.key_epoch(0) >= 2
        assert mem.events.get("chunk_reencryptions") >= 2

    def test_reencryption_preserves_chunk_neighbours(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)
        mem.write(512, b"\x5a" * CACHELINE_BYTES)
        for i in range(10):  # exhausts line 0's counter twice
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        assert mem.read(512, CACHELINE_BYTES) == b"\x5a" * CACHELINE_BYTES
        # The neighbour was re-sealed under the same (new) chunk epoch.
        assert mem.key_epoch(512) == mem.key_epoch(0) >= 1

    def test_other_chunks_keep_epoch_zero(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)
        mem.write(CHUNK_BYTES, b"\x77" * CACHELINE_BYTES)
        for i in range(10):
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        assert mem.key_epoch(0) >= 1
        assert mem.key_epoch(CHUNK_BYTES) == 0
        assert mem.read(CHUNK_BYTES, CACHELINE_BYTES) == b"\x77" * CACHELINE_BYTES

    def test_coarse_region_overflow(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)
        mem.write(0, b"\x11" * 512)
        assert mem.force_granularity(0, 512) == 512
        for i in range(12):  # shared counter exhausts under writes
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        assert mem.read(0, CACHELINE_BYTES) == bytes([12]) * CACHELINE_BYTES
        assert mem.read(64, CACHELINE_BYTES) == b"\x11" * CACHELINE_BYTES
        assert mem.key_epoch(0) >= 1

    def test_scale_up_at_exhausted_counter(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)  # limit 7
        for i in range(7):
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        mem.write(64, b"\x22" * (512 - CACHELINE_BYTES))
        # Promotion wants shared = max + 1 = 8 > limit: must rotate the
        # key epoch and reseal at counter 1 instead of wrapping.
        assert mem.force_granularity(0, 512) == 512
        assert mem.key_epoch(0) >= 1
        assert mem.read(0, CACHELINE_BYTES) == bytes([7]) * CACHELINE_BYTES
        assert mem.read(64, CACHELINE_BYTES) == b"\x22" * CACHELINE_BYTES

    def test_pads_never_repeat_across_epochs(self, keys):
        """Same plaintext, same address, repeating counter values:
        every stored ciphertext must still be unique (fresh pads)."""
        mem = SecureMemory(REGION, keys=keys, counter_bits=2)  # limit 3
        payload = b"\xab" * CACHELINE_BYTES
        ciphertexts = set()
        for _ in range(20):
            mem.write(0, payload)
            ciphertexts.add(mem.dram.snapshot_line(0))
        assert len(ciphertexts) == 20

    def test_heal_write_at_the_counter_limit_succeeds(self, keys):
        mem = SecureMemory(
            1 << 20, keys=keys, failure_policy="quarantine", counter_bits=6
        )
        mem.write(0, b"\x11" * CHUNK_BYTES)  # promotes the chunk to 32KB
        for i in range(60):
            mem.write(i * CACHELINE_BYTES, b"\x22" * CACHELINE_BYTES)
        assert mem.counter_value(0) == 63  # the 6-bit limit
        mem.tamper_data(0)
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        # The quarantine revived every line's counter at 63: healing a
        # line overflows, and the re-keying must not skip that line.
        mem.write(0, b"\x33" * 192)
        mem.tree.drop_trust_cache()
        assert mem.read(0, 192) == b"\x33" * 192
        assert mem.is_quarantined(192) and not mem.is_quarantined(128)

    def test_fixed_heal_write_at_the_counter_limit_succeeds(self, keys):
        mem = SecureMemory(
            1 << 20, keys=keys, policy="fixed", counter_bits=3,
            failure_policy="quarantine",
        )
        for _ in range(7):  # line 0's counter reaches the 3-bit limit
            mem.write(0, b"\x22" * CACHELINE_BYTES)
        mem.write(CACHELINE_BYTES, b"\x44" * CACHELINE_BYTES)
        mem.tamper_data(0)
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        # The line quarantine kept the tampered line's MAC: the heal's
        # re-keying must not carry (and so re-verify) the tampered line.
        mem.write(0, b"\x33" * CACHELINE_BYTES)
        mem.tree.drop_trust_cache()
        assert mem.read(0, 2 * CACHELINE_BYTES) == (
            b"\x33" * CACHELINE_BYTES + b"\x44" * CACHELINE_BYTES
        )
        assert not mem.is_quarantined(0)
        assert mem.key_epoch(0) == 1

    def test_heal_at_the_limit_rekeys_the_chunk_once(self, keys):
        mem = SecureMemory(
            1 << 20, keys=keys, failure_policy="quarantine", counter_bits=6
        )
        mem.write(0, b"\x11" * CHUNK_BYTES)
        for i in range(60):
            mem.write(i * CACHELINE_BYTES, b"\x22" * CACHELINE_BYTES)
        mem.tamper_data(0)
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        mem.write(0, b"\x33" * 192)
        assert mem.events.get("chunk_reencryptions") == 1
        # Line 192's counter restarted with the re-key but it is still
        # quarantined: zeroed ciphertext must not read as a pristine line.
        assert mem.is_quarantined(192)
        mem.dram.replay_line(192, bytes(CACHELINE_BYTES))
        with pytest.raises(QuarantineError):
            mem.read(192, CACHELINE_BYTES)
        data = bytes(range(256)) * (CHUNK_BYTES // 256)
        for addr in range(192, CHUNK_BYTES, 192):
            end = min(addr + 192, CHUNK_BYTES)
            mem.write(addr, data[addr:end])
        assert mem.events.get("chunk_reencryptions") == 1
        assert mem.quarantined_lines() == []
        mem.tree.drop_trust_cache()
        assert mem.read(192, CHUNK_BYTES - 192) == data[192:]

    def test_write_over_a_deleted_mac_at_the_counter_limit(self, keys):
        mem = SecureMemory(REGION, keys=keys, policy="fixed", counter_bits=3)
        for i in range(7):
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        mem.delete_mac(0)
        mem.write(0, b"\x44" * CACHELINE_BYTES)
        assert mem.read(0, CACHELINE_BYTES) == b"\x44" * CACHELINE_BYTES

    def test_freshness_overflow_is_not_rekeyed(self, keys):
        mem = SecureMemory(1 << 20, keys=keys)
        mem.write(0, b"\x55" * CACHELINE_BYTES)
        mem.write(64 * CACHELINE_BYTES, b"\x66" * CACHELINE_BYTES)
        pin_root_counter(mem.tree, 0, 2**64 - 1)
        mem.tree.drop_trust_cache()
        # A new key epoch cannot lower a freshness counter: the write
        # fails and leaves the data, its counters and the epoch alone.
        with pytest.raises(CounterOverflowError):
            mem.write(0, b"\x77" * CACHELINE_BYTES)
        mem.tree.drop_trust_cache()
        assert mem.read(0, CACHELINE_BYTES) == b"\x55" * CACHELINE_BYTES
        assert mem.read(64 * CACHELINE_BYTES, CACHELINE_BYTES) == b"\x66" * 64
        assert mem.key_epoch(0) == 0

    def test_detection_still_works_after_reencryption(self, keys):
        mem = SecureMemory(REGION, keys=keys, counter_bits=3)
        for i in range(10):
            mem.write(0, bytes([i + 1]) * CACHELINE_BYTES)
        mem.tamper_data(0)
        with pytest.raises(SecurityError):
            mem.read(0, CACHELINE_BYTES)


class TestFailurePolicyConfig:
    def test_coerce(self):
        assert FailurePolicy.coerce(None).mode == "raise"
        assert FailurePolicy.coerce("quarantine").quarantines
        policy = FailurePolicy(mode="retry-then-quarantine", retries=2)
        assert FailurePolicy.coerce(policy) is policy
        assert policy.retries_first

    def test_invalid(self):
        with pytest.raises(ValueError):
            FailurePolicy(mode="explode")
        with pytest.raises(ValueError):
            FailurePolicy(retries=-1)
        with pytest.raises(TypeError):
            FailurePolicy.coerce(42)

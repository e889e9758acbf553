"""Property-based tests: crypto primitives and the functional tree."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.common.errors import SecurityError
from repro.crypto.keys import KeySet, keyed_blake2b
from repro.crypto.mac import compute_mac, nested_mac, pack_counters
from repro.crypto.otp import decrypt_line, encrypt_line, xor_bytes
from repro.tree.geometry import TreeGeometry
from repro.tree.integrity_tree import CounterTree

KEYS = KeySet.from_seed(b"property-tests")

lines = st.binary(min_size=64, max_size=64)
addrs = st.integers(min_value=0, max_value=(1 << 20) - 64).map(
    lambda a: a - a % 64
)
counters = st.integers(min_value=0, max_value=2**32)


class TestOtpProperties:
    @given(lines, addrs, counters)
    def test_roundtrip(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        assert (
            decrypt_line(KEYS.encryption_key, addr, counter, ciphertext)
            == plaintext
        )

    @given(lines, addrs, counters)
    def test_encryption_is_not_identity(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        assert ciphertext != plaintext or plaintext == b""  # pad is nonzero

    @given(lines, addrs, counters)
    def test_counter_change_breaks_decryption(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        garbled = decrypt_line(
            KEYS.encryption_key, addr, counter + 1, ciphertext
        )
        assert garbled != plaintext


class TestMacProperties:
    @given(lines, addrs, counters)
    def test_mac_is_deterministic(self, data, addr, counter):
        assert compute_mac(KEYS.mac_key, addr, counter, data) == compute_mac(
            KEYS.mac_key, addr, counter, data
        )

    @given(st.lists(lines, min_size=1, max_size=8))
    def test_nested_mac_depends_on_every_element(self, blobs):
        macs = [
            compute_mac(KEYS.mac_key, i * 64, 0, blob)
            for i, blob in enumerate(blobs)
        ]
        merged = nested_mac(KEYS.mac_key, macs)
        for i in range(len(macs)):
            mutated = list(macs)
            mutated[i] = bytes(8)
            if mutated[i] != macs[i]:
                assert nested_mac(KEYS.mac_key, mutated) != merged


class TestFastPathsMatchReferences:
    """The optimized primitives equal their straightforward definitions."""

    @given(
        st.binary(max_size=300).flatmap(
            lambda a: st.tuples(
                st.just(a), st.binary(min_size=len(a), max_size=len(a))
            )
        )
    )
    def test_xor_bytes_matches_per_byte_xor(self, pair):
        data, pad = pair
        assert xor_bytes(data, pad) == bytes(a ^ b for a, b in zip(data, pad))

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=16))
    def test_pack_counters_matches_per_counter_bytes(self, values):
        assert pack_counters(values) == b"".join(
            v.to_bytes(8, "little") for v in values
        )

    @given(
        st.binary(min_size=1, max_size=64),
        st.sampled_from([b"repro-otp-pad00", b"repro-mac-fold0", b""]),
        st.sampled_from([8, 64]),
        st.binary(max_size=200),
    )
    def test_keyed_blake2b_matches_a_freshly_keyed_hash(
        self, key, person, size, message
    ):
        fresh = hashlib.blake2b(message, key=key, digest_size=size, person=person)
        for _ in range(2):  # a caller's updates never leak into the cache
            h = keyed_blake2b(key, person, size)
            h.update(message)
            assert h.digest() == fresh.digest()


class TestTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(addrs, min_size=1, max_size=20),
    )
    def test_increment_sequences_are_consistent(self, level, addresses):
        """Random increments at one level always read back exactly.

        The level is fixed per sequence: promoted counters *reuse*
        freshness-counter slots (Fig. 10), so counters at different
        levels of overlapping paths are intentionally not independent.
        """
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        expected = {}
        for addr in addresses:
            key = tree.geometry.counter_slot(addr, level)
            value = tree.increment_counter(addr, level=level)
            expected[key] = expected.get(key, 0) + 1
            assert value == expected[key]
        for (node, slot), count in expected.items():
            addr = (node * 8 + slot) * (64 * 8**level)
            assert tree.read_counter(addr, level=level) == count

    @settings(max_examples=15, deadline=None)
    @given(addrs, st.integers(min_value=0, max_value=2))
    def test_any_tamper_is_detected(self, addr, level):
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        tree.increment_counter(addr)
        tree.drop_trust_cache()
        tree.tamper_counter(addr, level=level)
        with pytest.raises(SecurityError):
            tree.read_counter(addr)

    @settings(max_examples=15, deadline=None)
    @given(addrs, st.integers(min_value=1, max_value=5))
    def test_any_replay_depth_is_detected(self, addr, writes_after):
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        tree.increment_counter(addr)
        snapshot = tree.snapshot_node(addr)
        for _ in range(writes_after):
            tree.increment_counter(addr)
        tree.replay_node(addr, snapshot)
        tree.drop_trust_cache()
        with pytest.raises(SecurityError):
            tree.read_counter(addr)

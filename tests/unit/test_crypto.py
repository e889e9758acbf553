"""Functional crypto: OTP uniqueness, MAC binding, nested MAC folding."""

import hashlib
import random
from itertools import repeat

import pytest

from repro.crypto.keys import KEY_BYTES, KeySet
from repro.crypto.mac import (
    compute_mac,
    line_macs,
    macs_equal,
    nested_mac,
    node_mac,
    pack_counters,
)
from repro.crypto.otp import (
    decrypt_line,
    encrypt_line,
    encrypt_lines,
    generate_otp,
    xor_bytes,
)


@pytest.fixture(scope="module")
def keys():
    return KeySet.from_seed(b"crypto-tests")


class TestKeySet:
    def test_from_seed_is_deterministic(self):
        a = KeySet.from_seed(b"seed")
        b = KeySet.from_seed(b"seed")
        assert a.encryption_key == b.encryption_key
        assert a.mac_key == b.mac_key

    def test_different_seeds_differ(self):
        assert (
            KeySet.from_seed(b"a").encryption_key
            != KeySet.from_seed(b"b").encryption_key
        )

    def test_encryption_and_mac_keys_differ(self, keys):
        assert keys.encryption_key != keys.mac_key

    def test_generate_is_random(self):
        assert KeySet.generate().encryption_key != KeySet.generate().encryption_key

    def test_rejects_short_keys(self):
        with pytest.raises(ValueError):
            KeySet(b"short", b"x" * KEY_BYTES)


class TestOTP:
    def test_pad_length(self, keys):
        assert len(generate_otp(keys.encryption_key, 0, 0, 64)) == 64
        assert len(generate_otp(keys.encryption_key, 0, 0, 200)) == 200

    def test_pad_depends_on_address(self, keys):
        assert generate_otp(keys.encryption_key, 0, 5) != generate_otp(
            keys.encryption_key, 64, 5
        )

    def test_pad_depends_on_counter(self, keys):
        assert generate_otp(keys.encryption_key, 0, 5) != generate_otp(
            keys.encryption_key, 0, 6
        )

    def test_pad_depends_on_key(self, keys):
        other = KeySet.from_seed(b"other")
        assert generate_otp(keys.encryption_key, 0, 5) != generate_otp(
            other.encryption_key, 0, 5
        )

    def test_rejects_nonpositive_length(self, keys):
        with pytest.raises(ValueError):
            generate_otp(keys.encryption_key, 0, 0, 0)

    def test_encrypt_decrypt_roundtrip(self, keys):
        plaintext = bytes(range(64))
        ciphertext = encrypt_line(keys.encryption_key, 128, 7, plaintext)
        assert ciphertext != plaintext
        assert decrypt_line(keys.encryption_key, 128, 7, ciphertext) == plaintext

    def test_wrong_counter_garbles(self, keys):
        plaintext = bytes(range(64))
        ciphertext = encrypt_line(keys.encryption_key, 128, 7, plaintext)
        assert decrypt_line(keys.encryption_key, 128, 8, ciphertext) != plaintext

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestMac:
    def test_mac_is_8_bytes(self, keys):
        assert len(compute_mac(keys.mac_key, 0, 0, b"x" * 64)) == 8

    def test_mac_binds_address(self, keys):
        data = b"d" * 64
        assert compute_mac(keys.mac_key, 0, 1, data) != compute_mac(
            keys.mac_key, 64, 1, data
        )

    def test_mac_binds_counter(self, keys):
        data = b"d" * 64
        assert compute_mac(keys.mac_key, 0, 1, data) != compute_mac(
            keys.mac_key, 0, 2, data
        )

    def test_mac_binds_data(self, keys):
        assert compute_mac(keys.mac_key, 0, 1, b"a" * 64) != compute_mac(
            keys.mac_key, 0, 1, b"b" * 64
        )

    def test_macs_equal_constant_time_wrapper(self, keys):
        mac = compute_mac(keys.mac_key, 0, 1, b"a" * 64)
        assert macs_equal(mac, bytes(mac))
        assert not macs_equal(mac, bytes(8))


class TestNestedMac:
    def test_order_sensitivity(self, keys):
        m1 = compute_mac(keys.mac_key, 0, 1, b"a" * 64)
        m2 = compute_mac(keys.mac_key, 64, 1, b"b" * 64)
        assert nested_mac(keys.mac_key, [m1, m2]) != nested_mac(
            keys.mac_key, [m2, m1]
        )

    def test_single_mac_fold_differs_from_raw(self, keys):
        m1 = compute_mac(keys.mac_key, 0, 1, b"a" * 64)
        assert nested_mac(keys.mac_key, [m1]) != m1

    def test_deterministic(self, keys):
        macs = [
            compute_mac(keys.mac_key, i * 64, 1, bytes([i]) * 64)
            for i in range(8)
        ]
        assert nested_mac(keys.mac_key, macs) == nested_mac(keys.mac_key, macs)

    def test_empty_rejected(self, keys):
        with pytest.raises(ValueError):
            nested_mac(keys.mac_key, [])

    def test_any_constituent_change_propagates(self, keys):
        macs = [
            compute_mac(keys.mac_key, i * 64, 1, bytes([i]) * 64)
            for i in range(8)
        ]
        merged = nested_mac(keys.mac_key, macs)
        for i in range(8):
            mutated = list(macs)
            mutated[i] = compute_mac(keys.mac_key, i * 64, 2, bytes([i]) * 64)
            assert nested_mac(keys.mac_key, mutated) != merged


class TestNodeMac:
    def test_binds_parent_counter(self, keys):
        payload = pack_counters(range(8))
        assert node_mac(keys.mac_key, 0, 1, payload) != node_mac(
            keys.mac_key, 0, 2, payload
        )

    def test_binds_payload(self, keys):
        assert node_mac(
            keys.mac_key, 0, 1, pack_counters(range(8))
        ) != node_mac(keys.mac_key, 0, 1, pack_counters(range(1, 9)))

    def test_pack_counters_layout(self):
        packed = pack_counters([1, 2])
        assert len(packed) == 16
        assert packed[:8] == (1).to_bytes(8, "little")


class TestKnownAnswers:
    """Exact bytes of every primitive, pinned so a faster implementation
    must stay byte-identical (and keep raising the same exceptions)."""

    OTP = (
        "e7133e51e772b7d29c73789371396e1b3fffbc0512fa3adada1444d52d254f1f"
        "197d8996f9d469e183c14f1d2ca0d32441355d00bc372b2da918746c09116c14"
        "d6d13f530a6aebc471b64a5c1d680072e4f21d2cf7b57bd86cc67d71d522c9bb"
        "c635bd97"
    )

    @pytest.mark.parametrize("length", [1, 64, 100])
    def test_generate_otp(self, keys, length):
        pad = generate_otp(keys.encryption_key, 0x1240, 7, length)
        assert pad.hex() == self.OTP[: 2 * length]

    def test_generate_otp_multi_block(self, keys):
        pad = generate_otp(keys.encryption_key, 0x1240, 7, 200)
        assert pad[:100].hex() == self.OTP
        assert hashlib.sha256(pad).hexdigest() == (
            "e88413b723b1c9663755860b8dd4aa9f3b6592f681ab00fbb1eeecdc85027d01"
        )

    def test_encrypt_line(self, keys):
        assert encrypt_line(keys.encryption_key, 128, 7, bytes(range(64))).hex() == (
            "5f9766a47af48232f92d9e14e19bc276bbd0108407c9c38808f398dfe781769e"
            "1bad547100f6a7503d6eb4ef96dc3bdbf9d130a3068cb2233890012887518247"
        )

    def test_compute_mac(self, keys):
        mac = compute_mac(keys.mac_key, 0x8000, 3, bytes(range(64)))
        assert mac.hex() == "bcbb7b8242f63d24"

    def test_node_mac(self, keys):
        mac = node_mac(keys.mac_key, 0x40, 5, pack_counters(range(8)))
        assert mac.hex() == "05ae4f2c35497af3"

    @pytest.mark.parametrize(
        "count, expected",
        [(1, "9413667705d45d8b"), (8, "034f3b267326be92"), (512, "1ed76cd71e54f0be")],
    )
    def test_nested_mac(self, keys, count, expected):
        fines = [
            compute_mac(keys.mac_key, i * 64, 9, bytes([i % 256]) * 64)
            for i in range(count)
        ]
        assert nested_mac(keys.mac_key, fines).hex() == expected

    def test_pack_counters(self):
        assert pack_counters([0, 1, 2**64 - 1]).hex() == (
            "0000000000000000" "0100000000000000" "ffffffffffffffff"
        )
        assert pack_counters(iter([1, 2])) == pack_counters([1, 2])
        assert pack_counters([]) == b""

    @pytest.mark.parametrize("value", [2**64, -1])
    def test_pack_counters_out_of_range(self, value):
        with pytest.raises(OverflowError):
            pack_counters([0, value])

    def test_xor_bytes(self, keys):
        assert xor_bytes(b"", b"") == b""
        assert xor_bytes(bytearray(b"ab"), memoryview(b"cd")) == b"\x02\x06"
        assert type(xor_bytes(bytearray(b"ab"), b"cd")) is bytes
        pad = generate_otp(keys.encryption_key, 0, 0)
        assert xor_bytes(bytes(range(64)), pad).hex() == (
            "3943194bc3ef21ed4fc5fed2f8d48c3bd2a94c09460b29fcad8a1cd28a275ef4"
            "daf3b7c5e2aac700eaa21b214ae4e4c43b923eb257bbe7b540db3ec3b10524f9"
        )

    def test_xor_bytes_length_mismatch_message(self):
        with pytest.raises(ValueError, match="length mismatch 2 vs 3"):
            xor_bytes(b"ab", b"abc")

    def test_bad_key_and_address_errors(self, keys):
        with pytest.raises(ValueError, match="maximum key length"):
            generate_otp(b"x" * 65, 0, 0, 8)
        with pytest.raises(OverflowError):
            generate_otp(keys.encryption_key, -1, 0, 8)
        with pytest.raises(OverflowError):
            compute_mac(keys.mac_key, 2**64, 0, b"")

    def test_unhashable_key_matches_bytes_key(self, keys):
        key = bytearray(keys.mac_key)
        assert compute_mac(key, 64, 1, b"d" * 64) == compute_mac(
            keys.mac_key, 64, 1, b"d" * 64
        )
        assert generate_otp(bytearray(keys.encryption_key), 0, 1) == generate_otp(
            keys.encryption_key, 0, 1
        )

    def test_prekeyed_cache_is_bounded(self):
        from repro.crypto import keys as keys_module

        limit = keys_module.PREKEYED_STATES
        for tenant in range(limit + 16):
            compute_mac(tenant.to_bytes(KEY_BYTES, "little"), 0, 0, b"")
        assert keys_module._prekeyed.cache_info().currsize == limit


class TestLineKernels:
    """The batched kernels equal the per-line primitives, pair by pair."""

    @staticmethod
    def pairs():
        rng = random.Random(20)
        addrs = [0, 64, 0x1240, 2**40 + 64]
        addrs += [rng.randrange(2**30) * 64 for _ in range(60)]
        counters = [0, 1, 2**64 - 1, 7] + [rng.randrange(2**64) for _ in range(60)]
        lines = [rng.randbytes(64) for _ in addrs]
        return addrs, counters, lines

    def test_encrypt_lines_matches_encrypt_line(self, keys):
        addrs, counters, lines = self.pairs()
        key = keys.encryption_key
        out = encrypt_lines(key, addrs, counters, lines)
        assert out == [encrypt_line(key, *args) for args in zip(addrs, counters, lines)]
        assert encrypt_lines(key, addrs, counters, out) == lines

    def test_encrypt_lines_takes_a_shared_counter(self, keys):
        addrs = range(0x8000, 0x8000 + 4096, 64)
        lines = [bytes([i]) * 64 for i in range(64)]
        assert encrypt_lines(keys.encryption_key, addrs, repeat(9), lines) == [
            encrypt_line(keys.encryption_key, a, 9, line)
            for a, line in zip(addrs, lines)
        ]

    def test_encrypt_lines_rejects_a_partial_line(self, keys):
        with pytest.raises(ValueError, match="line of 63 bytes, expected 64"):
            encrypt_lines(keys.encryption_key, [0, 64], [1, 1], [bytes(64), bytes(63)])

    def test_line_macs_matches_compute_mac(self, keys):
        addrs, counters, lines = self.pairs()
        data = lines[:-3] + [b"", bytes(100), bytearray(b"\x01" * 64)]
        assert line_macs(keys.mac_key, addrs, counters, data) == [
            compute_mac(keys.mac_key, *args) for args in zip(addrs, counters, data)
        ]

    def test_kernels_stop_at_the_shortest_input(self, keys):
        assert encrypt_lines(keys.encryption_key, [0], repeat(1), []) == []
        assert line_macs(keys.mac_key, [], [], [b"x"]) == []

"""Counter-mode one-time-pad encryption (paper Sec. 2.2, Fig. 2).

A pad is a keyed function of (address, counter).  Uniqueness of the
(address, counter) pair guarantees pad uniqueness; the counter is
incremented on every dirty eviction so a pad never repeats for the same
address.  Hardware uses AES; the functional layer uses keyed BLAKE2b,
which preserves the property the system depends on -- pads are
pseudorandom and unique per (key, address, counter).

Multi-granular twist (paper Sec. 4.3): when several cachelines share a
coarse counter, each 64B slice is still encrypted with its *own
address*, so slices of a chunk never share a pad even though they share
a counter.
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_BYTES
from repro.crypto.keys import keyed_blake2b


def generate_otp(key: bytes, addr: int, counter: int, length: int = CACHELINE_BYTES) -> bytes:
    """Derive a one-time pad for (addr, counter) of ``length`` bytes."""
    if length <= 0:
        raise ValueError(f"non-positive OTP length {length}")
    pad = b""
    block = 0
    while len(pad) < length:
        h = keyed_blake2b(key, b"repro-otp-pad00", 64)
        h.update(addr.to_bytes(8, "little"))
        h.update(counter.to_bytes(8, "little"))
        h.update(block.to_bytes(4, "little"))
        pad += h.digest()
        block += 1
    return pad[:length]


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """XOR two equal-length byte strings (as two integers, in one step)."""
    if len(data) != len(pad):
        raise ValueError(f"length mismatch {len(data)} vs {len(pad)}")
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    return mixed.to_bytes(len(data), "little")


def encrypt_line(key: bytes, addr: int, counter: int, plaintext: bytes) -> bytes:
    """Encrypt one cacheline: ciphertext = plaintext XOR OTP(addr, counter)."""
    return xor_bytes(plaintext, generate_otp(key, addr, counter, len(plaintext)))


def decrypt_line(key: bytes, addr: int, counter: int, ciphertext: bytes) -> bytes:
    """Decrypt one cacheline (XOR is its own inverse)."""
    return encrypt_line(key, addr, counter, ciphertext)

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

import struct
from typing import Iterable, List

from repro.common.constants import CACHELINE_BYTES
from repro.crypto.keys import keyed_blake2b

#: Personalization of the pad hash.
_PAD_PERSON = b"repro-otp-pad00"
#: Bytes of pad one hash yields (BLAKE2b's largest digest).
_PAD_BLOCK_BYTES = 64
#: Hash input of one pad block: address, counter, block index.
_PAD_BLOCK = struct.Struct("<QQI")


def generate_otp(key: bytes, addr: int, counter: int, length: int = CACHELINE_BYTES) -> bytes:
    """Derive a one-time pad for (addr, counter) of ``length`` bytes."""
    if length <= 0:
        raise ValueError(f"non-positive OTP length {length}")
    pad = b""
    block = 0
    while len(pad) < length:
        h = keyed_blake2b(key, _PAD_PERSON, _PAD_BLOCK_BYTES)
        try:
            h.update(_PAD_BLOCK.pack(addr, counter, block))
        except struct.error as exc:  # a field out of range
            raise OverflowError(str(exc)) from None
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


def encrypt_lines(
    key: bytes,
    addrs: Iterable[int],
    counters: Iterable[int],
    lines: Iterable[bytes],
) -> List[bytes]:
    """Encrypt (or, XOR being its own inverse, decrypt) 64B lines.

    Byte-identical to ``[encrypt_line(key, a, c, line) for a, c, line in
    zip(addrs, counters, lines)]``: a 64B pad is exactly one pad block,
    so each line costs one copy of the pre-keyed state (fetched once
    per call), one update with its packed (address, counter, block 0)
    and one integer XOR.
    """
    size = CACHELINE_BYTES
    copy = keyed_blake2b(key, _PAD_PERSON, _PAD_BLOCK_BYTES).copy
    pack = _PAD_BLOCK.pack
    from_bytes = int.from_bytes
    out: List[bytes] = []
    for addr, counter, line in zip(addrs, counters, lines):
        if len(line) != size:
            raise ValueError(f"line of {len(line)} bytes, expected {size}")
        h = copy()
        h.update(pack(addr, counter, 0))
        mixed = from_bytes(line, "little") ^ from_bytes(h.digest(), "little")
        out.append(mixed.to_bytes(size, "little"))
    return out

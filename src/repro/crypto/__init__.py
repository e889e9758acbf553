"""Functional cryptography: counter-mode OTP encryption and keyed MACs."""

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

__all__ = [
    "KEY_BYTES",
    "KeySet",
    "compute_mac",
    "line_macs",
    "macs_equal",
    "nested_mac",
    "node_mac",
    "pack_counters",
    "decrypt_line",
    "encrypt_line",
    "encrypt_lines",
    "generate_otp",
    "xor_bytes",
]

"""Key material for the functional memory-protection engine.

Real hardware derives its keys from fuses or a secure-boot chain; the
functional layer just needs distinct, fixed-length secrets for the
encryption pad and the MAC.  Keys are wrapped in a class so tests can
create independent engines that provably cannot validate each other's
ciphertexts.

The hot primitives (pads, line MACs, merged-MAC folds, tree-node MACs)
start every hash from :func:`keyed_blake2b`, a copy of a cached
pre-keyed BLAKE2b state.  Those cached states are on-chip key material
exactly like a :class:`KeySet`: hardware keeps its AES/MAC key schedules
in the engine, never off chip.
"""

from __future__ import annotations

import functools
import hashlib
import os


KEY_BYTES = 32
#: Pre-keyed states kept at once (~0.9 KB each, so ~7 MB at most).  A
#: keyset uses five -- one pad and four MAC personalizations -- so this
#: covers ~1600 live keysets, e.g. a 1000-tenant daemon plus key
#: epochs; keysets beyond that are re-keyed on demand, never accumulated.
PREKEYED_STATES = 8192


@functools.lru_cache(maxsize=PREKEYED_STATES)
def _prekeyed(key: bytes, person: bytes, digest_size: int):
    return hashlib.blake2b(key=key, digest_size=digest_size, person=person)


def keyed_blake2b(key: bytes, person: bytes, digest_size: int):
    """Fresh keyed BLAKE2b state, copied from a cached pre-keyed one.

    Byte-identical to ``hashlib.blake2b(key=key, person=person,
    digest_size=digest_size)`` -- same digests, same exceptions -- but
    copying a keyed state skips the key setup.  Unhashable keys
    (``bytearray``) are keyed afresh.
    """
    try:
        base = _prekeyed(key, person, digest_size)
    except TypeError:
        return hashlib.blake2b(key=key, digest_size=digest_size, person=person)
    return base.copy()


class KeySet:
    """Encryption + MAC key pair for one memory protection engine."""

    def __init__(self, encryption_key: bytes, mac_key: bytes) -> None:
        if len(encryption_key) != KEY_BYTES or len(mac_key) != KEY_BYTES:
            raise ValueError(f"keys must be {KEY_BYTES} bytes")
        self._encryption_key = bytes(encryption_key)
        self._mac_key = bytes(mac_key)

    @property
    def encryption_key(self) -> bytes:
        return self._encryption_key

    @property
    def mac_key(self) -> bytes:
        return self._mac_key

    @classmethod
    def generate(cls) -> "KeySet":
        """Fresh random keys (non-deterministic, like a real power-on)."""
        return cls(os.urandom(KEY_BYTES), os.urandom(KEY_BYTES))

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeySet":
        """Deterministic keys for reproducible tests and examples."""
        enc = hashlib.blake2b(seed, digest_size=KEY_BYTES, person=b"repro-enc-key01").digest()
        mac = hashlib.blake2b(seed, digest_size=KEY_BYTES, person=b"repro-mac-key01").digest()
        return cls(enc, mac)

    def derive(self, label: bytes) -> "KeySet":
        """Derive a sub-keyset bound to ``label`` (key-epoch rotation).

        Counter-overflow recovery re-encrypts a region under a fresh
        key epoch so counter values may repeat without ever repeating a
        pad.  Derivation is one-way (keyed hash of the label), so old
        epochs cannot be reconstructed from new ones.
        """
        enc = hashlib.blake2b(
            label,
            key=self._encryption_key,
            digest_size=KEY_BYTES,
            person=b"repro-derive-enc",
        ).digest()
        mac = hashlib.blake2b(
            label,
            key=self._mac_key,
            digest_size=KEY_BYTES,
            person=b"repro-derive-mac",
        ).digest()
        return KeySet(enc, mac)

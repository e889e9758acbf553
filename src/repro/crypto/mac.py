"""Message authentication codes, fine-grained and merged (paper Eq. 5).

A fine MAC authenticates one 64B cacheline together with its address
and counter, so relocating or replaying a ciphertext is detectable.  A
coarse (merged) MAC is the left fold of the fine MACs of its region:

    MAC_coarse = H(...H(H(MAC_fine1), MAC_fine2)..., MAC_fineN)

which lets the engine *upgrade* granularity from stored fine MACs
without touching the data, exactly as the paper's granularity-switch
procedure requires (Sec. 4.4, Fig. 13).
"""

from __future__ import annotations

import hmac
import struct
from typing import Iterable, List, Sequence

from repro.common.constants import MAC_BYTES
from repro.crypto.keys import keyed_blake2b

#: Personalization of a fine MAC's hash.
_FINE_PERSON = b"repro-mac-fine0"
#: The (address, counter) prefix of a fine MAC's input.
_LINE_HEADER = struct.Struct("<QQ")


def compute_mac(key: bytes, addr: int, counter: int, data: bytes) -> bytes:
    """Fine-grained 8B MAC over (address, counter, ciphertext)."""
    h = keyed_blake2b(key, _FINE_PERSON, MAC_BYTES)
    try:
        h.update(_LINE_HEADER.pack(addr, counter))
    except struct.error as exc:  # a field out of range
        raise OverflowError(str(exc)) from None
    h.update(data)
    return h.digest()


def line_macs(
    key: bytes,
    addrs: Iterable[int],
    counters: Iterable[int],
    data: Iterable[bytes],
) -> List[bytes]:
    """Fine MACs of many lines, one (address, counter) pair each.

    Byte-identical to ``[compute_mac(key, a, c, d) for a, c, d in
    zip(addrs, counters, data)]``, with the pre-keyed state fetched once
    per call and one update per line over its packed (address, counter)
    and its bytes.
    """
    copy = keyed_blake2b(key, _FINE_PERSON, MAC_BYTES).copy
    pack = _LINE_HEADER.pack
    out: List[bytes] = []
    for addr, counter, line in zip(addrs, counters, data):
        h = copy()
        h.update(pack(addr, counter) + line)
        out.append(h.digest())
    return out


def nested_mac(key: bytes, fine_macs: Sequence[bytes]) -> bytes:
    """Merged coarse MAC: left fold of fine MACs (paper Eq. 5)."""
    if not fine_macs:
        raise ValueError("cannot merge an empty MAC sequence")
    h = keyed_blake2b(key, b"repro-mac-init0", MAC_BYTES)
    h.update(fine_macs[0])
    acc = h.digest()
    fold = keyed_blake2b(key, b"repro-mac-fold0", MAC_BYTES)
    for mac in fine_macs[1:]:
        h = fold.copy()
        h.update(acc)
        h.update(mac)
        acc = h.digest()
    return acc


def node_mac(key: bytes, addr: int, parent_counter: int, payload: bytes) -> bytes:
    """MAC of one integrity-tree node, bound to its parent counter.

    Binding the node hash to the parent's counter is what makes the
    counter tree replay-proof: rolling a node back to an old value
    fails verification against the (fresh) parent counter.
    """
    h = keyed_blake2b(key, b"repro-mac-node0", MAC_BYTES)
    h.update(addr.to_bytes(8, "little"))
    h.update(parent_counter.to_bytes(8, "little"))
    h.update(payload)
    return h.digest()


def macs_equal(a: bytes, b: bytes) -> bool:
    """Constant-time MAC comparison."""
    return hmac.compare_digest(a, b)


def pack_counters(counters: Iterable[int]) -> bytes:
    """Serialize counters into the byte payload of one tree node."""
    values = tuple(counters)
    try:
        return struct.pack(f"<{len(values)}Q", *values)
    except struct.error:
        # Out of range or not an int: the per-value path raises the
        # same OverflowError/AttributeError it always has.
        return b"".join(c.to_bytes(8, "little") for c in values)

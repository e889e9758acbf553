"""Functional off-chip memory: a sparse byte store the attacker owns.

The functional security layer reads and writes ciphertext, MACs and
tree nodes through this store.  It is deliberately *unprotected*: tests
and examples mutate it directly to model the physical attacker of the
paper's threat model (Sec. 2.5), and the engine must detect every such
mutation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.common.constants import CACHELINE_BYTES


class BackingStore:
    """Sparse line-granular byte storage (simulated DRAM contents)."""

    def __init__(self, line_bytes: int = CACHELINE_BYTES) -> None:
        self.line_bytes = line_bytes
        self._lines: Dict[int, bytes] = {}
        self._transient: Dict[int, bytes] = {}
        self._zero = bytes(line_bytes)

    def read_line(self, addr: int) -> bytes:
        """Read the aligned line at ``addr`` (uninitialized lines are zero).

        A pending transient corruption (bus glitch model) is served
        exactly once and then clears itself; subsequent reads see the
        stored contents again.
        """
        self._check_aligned(addr)
        glitched = self._transient.pop(addr, None)
        if glitched is not None:
            return glitched
        return self._lines.get(addr, self._zero)

    def write_line(self, addr: int, data: bytes) -> None:
        """Write one full aligned line."""
        self._check_aligned(addr)
        if len(data) != self.line_bytes:
            raise ValueError(
                f"line write of {len(data)} bytes, expected {self.line_bytes}"
            )
        self._lines[addr] = bytes(data)

    def corrupt(self, addr: int, offset: int = 0, flip_mask: int = 0x01) -> None:
        """Attacker primitive: flip bits of one stored byte in place."""
        self._check_aligned(addr)
        line = bytearray(self._lines.get(addr, self._zero))
        line[offset] ^= flip_mask
        self._lines[addr] = bytes(line)

    def corrupt_transient(
        self, addr: int, offset: int = 0, flip_mask: int = 0x01
    ) -> None:
        """Fault primitive: the *next* read of ``addr`` sees flipped bits.

        Models a transient bus/DRAM glitch rather than a persistent
        off-chip mutation: one read observes the corruption, after
        which the stored line is intact again.  The engine's
        retry-then-quarantine failure policy exists to absorb exactly
        this fault class.
        """
        self._check_aligned(addr)
        line = bytearray(self._lines.get(addr, self._zero))
        line[offset] ^= flip_mask
        self._transient[addr] = bytes(line)

    def has_transient(self, addr: int) -> bool:
        """True when the next read of ``addr``'s line is glitched."""
        return addr in self._transient

    def snapshot_line(self, addr: int) -> bytes:
        """Attacker primitive: copy a line for a later replay.

        Reads the stored contents directly so snapshotting never
        consumes a pending transient glitch.
        """
        self._check_aligned(addr)
        return self._lines.get(addr, self._zero)

    def replay_line(self, addr: int, old: bytes) -> None:
        """Attacker primitive: restore a previously captured line."""
        self.write_line(addr, old)

    def lines(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate over (addr, data) of populated lines."""
        return iter(sorted(self._lines.items()))

    @property
    def populated_lines(self) -> int:
        return len(self._lines)

    def _check_aligned(self, addr: int) -> None:
        if addr % self.line_bytes != 0:
            raise ValueError(f"address {addr:#x} not {self.line_bytes}B-aligned")

"""Functional secure memory: encryption + integrity + freshness, end to end.

This is the paper's memory protection engine as a *working* object: it
stores real ciphertext in an attacker-accessible backing store, real
MACs in an attacker-accessible MAC store, and real counters in the
functional counter tree.  Reads verify everything and raise
:class:`~repro.common.errors.IntegrityError` /
:class:`~repro.common.errors.ReplayError` on any off-chip mutation.

Two policies:

* ``fixed``         -- the conventional baseline: 64B counters + MACs.
* ``multigranular`` -- the paper's contribution: the access tracker
  detects stream partitions (Alg. 1), the granularity table applies
  lazy switching, counters are promoted into parent tree nodes
  (Fig. 10) and MACs are merged + compacted (Fig. 9, Eq. 5).

Uninitialized memory reads as zeros.  A line is "sealed" once it has a
stored MAC; absence of a MAC is only accepted for the pristine all-zero
ciphertext, so an attacker cannot hide data by deleting its MAC.

Beyond detection, the engine supports *recovery* (see
:mod:`repro.secure_memory.failure` and ``docs/fault_model.md``):

* a configurable :class:`FailurePolicy` -- ``raise`` (paper
  semantics), ``quarantine`` and ``retry-then-quarantine`` -- that
  contains an integrity failure to the poisoned protection region,
  demotes it back to 64B granularity and lets fresh writes heal it
  while the rest of the region keeps serving;
* real :class:`~repro.common.errors.CounterOverflowError` handling:
  counter exhaustion triggers a lazy re-encryption of the affected
  32KB chunk under a fresh key epoch, so narrow counters degrade into
  extra work instead of a dead engine.

Read-path invariant: every :meth:`SecureMemory.read` call verifies
the merged MAC of each coarse region it covers against the region's
*current* off-chip bytes -- once per call, however many of the
region's lines it returns -- and decrypts only the requested lines.
The verified ciphertexts are memoized in a dict local to that one call,
keyed by (region base, granularity, counter, current bitmap, key
epoch), so a switch or epoch bump inside the call misses it and
nothing verified survives into the next call: a tamper staged between
two reads is caught by the second.  Writes, switches and overflow
re-encryption open (verify + decrypt) whole regions.  The crypto
primitives start from cached pre-keyed hash states
(:func:`repro.crypto.keys.keyed_blake2b`), which are on-chip key
material like the :class:`KeySet` itself.

Write-path invariant: one :meth:`SecureMemory.write` call defers three
kinds of sealing to points inside the same call.  The counter tree is a
write-back cache for the call: a node updated many times climbs its
freshness chain once at its first update and once more, with its summed
count, when it is sealed (:attr:`CounterTree.defer_seals`).  Consecutive
lines that land in one coarse region (same base, granularity and current
bitmap, no switch between them) form a *run*: the region is opened
(verified + decrypted against its current off-chip bytes) at the run's
first line, its shared counter is still incremented once per line, and
its lines are encrypted and its merged MAC stored once, when the run
ends -- at the next region, before a switch, first thing in the overflow
and integrity handlers, and when the call returns or raises.  And a line
that a call of more than one line writes at 64B is *pending*: its
counter is bumped at once, but the bumped counter and the plaintext wait
on-chip, as trusted state that dies with the call, and the call's
pending lines are encrypted and MACed in one batched pass -- when the
call moves to another chunk, when it returns or raises, first thing in
the overflow and integrity handlers and in chunk re-encryption, and at
the start of a switch, under the switch's old bitmap, for the lines
outside its span.  A scale-up switch that a write triggers takes the
pending plaintexts of its span directly and starts the run itself, from
them and the plaintexts it has just verified against the span's current
off-chip bytes, instead of sealing the new region for the triggering
line to open it again; any other switch first seals every pending line,
and a switch that raises seals what is left pending under the old bitmap
before a retry or the failure handler.  Nothing reads a pending line
from off-chip, with one exception: when a transient glitch is staged on
a line a switch takes, the switch seals that line first and reads it
back, so the glitch is consumed and checked exactly as when every line
is sealed as it is written.  Nothing deferred outlives the call: a
write's first touch of a region always verifies it, a tamper staged
between two writes is caught by the second, and the state after each
call is the one resealing every line leaves.

The timing layer in :mod:`repro.schemes` shares the same core logic but
only counts.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.address import align_down, check_range, chunk_base, chunk_index, iter_lines
from repro.common.constants import (
    CACHELINE_BYTES,
    CHUNK_BYTES,
    GRANULARITIES,
    granularity_level,
)
from repro.common.errors import (
    AddressError,
    CounterOverflowError,
    IntegrityError,
    QuarantineError,
    ReplayError,
)
from repro.common.stats import CounterStats
from repro.core import addressing, stream_part
from repro.core.detector import merge_detection
from repro.core.gran_table import GranularityTable, SwitchEvent
from repro.core.switching import SwitchAccounting
from repro.core.tracker import AccessTracker
from repro.crypto.keys import KeySet
from repro.crypto.mac import compute_mac, line_macs, macs_equal, nested_mac
from repro.crypto.otp import decrypt_line, encrypt_line, encrypt_lines
from repro.mem.backing_store import BackingStore
from repro.obs import EventType, ObsContext
from repro.secure_memory.failure import FailurePolicy, IntegrityEvent, IntegrityLog
from repro.tree.geometry import TreeGeometry
from repro.tree.integrity_tree import CounterTree

#: Older counters a replay probe tries (classification only, see
#: ``_raise_classified``).
_REPLAY_PROBE_WINDOW = 64
#: Line MACs one probe of a coarse region may compute: its window is
#: this budget over the region's lines, at most the window above -- 64
#: counters for a 512 B or 4 KB region, 8 for a 32 KB one.
_REPLAY_PROBE_LINES = 64 * 64
_ZERO_LINE = bytes(CACHELINE_BYTES)


class _OpenRun:
    """A coarse region one ``write`` call has opened and not yet sealed."""

    __slots__ = ("key", "counter", "plaintexts")

    def __init__(
        self,
        base: int,
        granularity: int,
        bits: int,
        counter: int,
        plaintexts: List[bytes],
    ) -> None:
        self.key = (base, granularity, bits)
        self.counter = counter
        self.plaintexts = plaintexts


class SecureMemory:
    """Encrypted, integrity- and replay-protected memory region."""

    def __init__(
        self,
        region_bytes: int,
        keys: Optional[KeySet] = None,
        policy: str = "multigranular",
        tracker: Optional[AccessTracker] = None,
        failure_policy=None,
        counter_bits: int = 64,
        obs: Optional[ObsContext] = None,
    ) -> None:
        if policy not in ("fixed", "multigranular"):
            raise ValueError(f"unknown policy {policy!r}")
        if not 2 <= counter_bits <= 64:
            raise ValueError(
                f"counter_bits {counter_bits} out of range [2, 64]"
            )
        self.policy = policy
        self.keys = keys or KeySet.generate()
        self.geometry = TreeGeometry.build(region_bytes)
        self.counter_bits = counter_bits
        self.tree = CounterTree(
            self.geometry, self.keys, counter_limit=(1 << counter_bits) - 1
        )
        self.dram = BackingStore()
        self._macs: Dict[int, bytes] = {}
        self.table = GranularityTable(table_base=self.geometry.table_base)
        self.tracker = tracker or AccessTracker()
        self.switching = SwitchAccounting()
        self.failure_policy = FailurePolicy.coerce(failure_policy)
        self.obs = obs or ObsContext.disabled()
        self.tracer = self.obs.tracer
        # Registry-owned counter group: same CounterStats API the rest
        # of the code (and tests) already use, surfaced uniformly as
        # ``engine.events.*`` in the metrics snapshot.
        self.events: CounterStats = self.obs.registry.group("engine.events")
        self.tree.metrics_into(self.obs.registry, "tree")
        self.integrity_log = IntegrityLog()
        # Key-epoch state for counter-overflow recovery: chunks whose
        # counters exhausted are re-encrypted under a derived key, so a
        # reset counter can never repeat a pad.  Epochs are on-chip
        # trusted state (hardware would keep a small epoch table or
        # re-derive from fuses).
        self._key_epochs: Dict[int, int] = {}
        self._epoch_keys: Dict[int, KeySet] = {}
        # Quarantine state: poisoned 64B lines fail closed until healed
        # by a fresh write ("heal") or permanently ("hard").
        self._quarantined: Dict[int, str] = {}
        self._quarantine_masks: Dict[int, int] = {}
        # The coarse region a ``write`` call has opened and not sealed.
        self._run: Optional[_OpenRun] = None
        # Line -> (bumped counter, plaintext) of the 64B lines the
        # running ``write`` call has not sealed yet, all in one chunk
        # (module docstring).  A one-line call has nothing to batch: it
        # seals its line as it writes it (``_defer_lines`` is False).
        self._pending: Dict[int, Tuple[int, bytes]] = {}
        self._defer_lines = False
        self.cycle = 0
        self.reads = 0
        self.writes = 0
        self.switches = 0

    # ------------------------------------------------------------------
    # Public data interface
    # ------------------------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Encrypt and store ``data`` at 64B-aligned ``addr``.

        Tree-node, coarse-region and 64B-line seals wait for points
        inside the call (see the module docstring); none outlives it.
        """
        self._check_aligned_access(addr, len(data))
        tree = self.tree
        pending = self._pending
        self._defer_lines = len(data) > CACHELINE_BYTES
        tree.defer_seals = True
        try:
            for line_index in iter_lines(addr, len(data)):
                line_addr = line_index * CACHELINE_BYTES
                if pending and not line_addr % CHUNK_BYTES:
                    self._seal_pending()  # pending lines share one chunk
                offset = line_addr - addr
                payload = data[offset : offset + CACHELINE_BYTES]
                self._write_line(line_addr, payload)
                self.writes += 1
        finally:
            tree.defer_seals = False
            if pending:
                self._seal_pending()
            self._close_run()
            tree.seal()

    def read(self, addr: int, size: int) -> bytes:
        """Verified read of ``size`` bytes from 64B-aligned ``addr``.

        Each covering coarse region is verified once per call (see the
        module docstring); the memo dies with the call.
        """
        self._check_aligned_access(addr, size)
        out = bytearray()
        verified: Dict[tuple, Optional[List[bytes]]] = {}
        for line_index in iter_lines(addr, size):
            line_addr = line_index * CACHELINE_BYTES
            out += self._read_line(line_addr, verified)
            self.reads += 1
        return bytes(out)

    def advance(self, cycles: int) -> None:
        """Advance the logical clock used by the access tracker."""
        self.cycle += cycles

    def granularity_of(self, addr: int) -> int:
        """Currently sealed protection granularity of ``addr``."""
        if self.policy == "fixed":
            return GRANULARITIES[0]
        return self.table.peek_granularity(addr)

    def force_granularity(self, addr: int, granularity: int) -> int:
        """Deterministically request ``granularity`` for ``addr``'s region.

        Test and campaign helper: stores the detection bitmap directly
        (bypassing the access tracker's stochastic timing) and applies
        the lazy switch immediately, exactly as a first access to the
        region would.  Returns the granularity now in effect at
        ``addr``.  Forcing 64B demotes the covering 512B partition (the
        bitmap's finest unit); forcing 512B on a fully streamed 4KB
        group still resolves to 4KB, as in the real encoding.
        """
        if self.policy == "fixed":
            raise ValueError("the fixed policy has no granularity table")
        granularity_level(granularity)  # validates the size
        entry = self.table.entry(addr)
        if granularity == GRANULARITIES[0]:
            entry.next &= ~self.table.region_partition_mask(
                addr, GRANULARITIES[1]
            )
        elif granularity == CHUNK_BYTES:
            entry.next = stream_part.FULL_MASK
        else:
            entry.next |= self.table.region_partition_mask(addr, granularity)
        resolved, event = self.table.resolve(addr, is_write=False)
        self.switching.record_resolution(switched=event is not None)
        if event is not None:
            self.switching.record_event(event)
            self.switches += 1
            self._emit_switch(event)
            self._apply_switch_with_recovery(event)
        return resolved

    # ------------------------------------------------------------------
    # Quarantine introspection
    # ------------------------------------------------------------------

    def is_quarantined(self, addr: int) -> bool:
        """True when the 64B line of ``addr`` is currently quarantined."""
        return align_down(addr, CACHELINE_BYTES) in self._quarantined

    def quarantined_lines(self) -> List[int]:
        """Sorted line addresses currently failing closed."""
        return sorted(self._quarantined)

    def key_epoch(self, addr: int) -> int:
        """Key epoch of ``addr``'s chunk (bumped by overflow recovery)."""
        return self._key_epochs.get(chunk_index(addr), 0)

    # ------------------------------------------------------------------
    # Attacker primitives (physical off-chip access, paper Sec. 2.5)
    # ------------------------------------------------------------------

    def tamper_data(self, addr: int, flip_mask: int = 0x01, offset: int = 0) -> None:
        """Flip bits of stored ciphertext."""
        self.dram.corrupt(
            align_down(addr, CACHELINE_BYTES), offset=offset, flip_mask=flip_mask
        )

    def tamper_data_transient(
        self, addr: int, flip_mask: int = 0x01, offset: int = 0
    ) -> None:
        """Glitch primitive: the next read of ``addr``'s line is corrupted once."""
        self.dram.corrupt_transient(
            align_down(addr, CACHELINE_BYTES), offset=offset, flip_mask=flip_mask
        )

    def tamper_mac(self, addr: int) -> None:
        """Flip a bit of the stored MAC covering ``addr``."""
        mac_addr = self._region_mac_addr(addr)
        mac = self._macs.get(mac_addr)
        if mac is None:
            raise KeyError(f"no MAC stored yet for {addr:#x}")
        self._macs[mac_addr] = bytes([mac[0] ^ 0x01]) + mac[1:]

    def delete_mac(self, addr: int) -> None:
        """Delete the stored MAC covering ``addr`` (metadata erasure attack)."""
        mac_addr = self._region_mac_addr(addr)
        if mac_addr not in self._macs:
            raise KeyError(f"no MAC stored yet for {addr:#x}")
        del self._macs[mac_addr]

    def snapshot(self, addr: int) -> Tuple[bytes, bytes]:
        """Capture (ciphertext, MAC) of one line for a replay attack."""
        line_addr = align_down(addr, CACHELINE_BYTES)
        return (
            self.dram.snapshot_line(line_addr),
            self._macs.get(self._region_mac_addr(addr), b""),
        )

    def replay(self, addr: int, snapshot: Tuple[bytes, bytes]) -> None:
        """Restore a previously captured (ciphertext, MAC) pair."""
        line_addr = align_down(addr, CACHELINE_BYTES)
        ciphertext, mac = snapshot
        self.dram.replay_line(line_addr, ciphertext)
        if mac:
            self._macs[self._region_mac_addr(addr)] = mac

    # ------------------------------------------------------------------
    # Line-level paths
    # ------------------------------------------------------------------

    def _write_line(self, line_addr: int, payload: bytes) -> None:
        if len(payload) != CACHELINE_BYTES:
            payload = payload.ljust(CACHELINE_BYTES, b"\0")
        state = self._quarantined.get(line_addr)
        if state == "hard":
            self.events.bump("quarantined_line_writes")
            raise QuarantineError(
                f"write to hard-quarantined line {line_addr:#x}"
            )
        healed = state == "heal"
        if healed:
            self._heal_line(line_addr)
        granularity = self._resolve(line_addr, is_write=True)
        try:
            self._write_line_at(line_addr, payload, granularity)
        except CounterOverflowError:
            self._close_run()
            self._seal_pending()
            level = granularity_level(granularity)
            region_base = align_down(line_addr, granularity)
            if self.tree.read_counter(region_base, level) < self.tree.counter_limit:
                # A freshness counter overflowed on the tree climb:
                # re-keying the data cannot lower it.
                raise
            self.events.bump("counter_overflows")
            if self.tracer:
                self.tracer.emit(
                    EventType.COUNTER_OVERFLOW,
                    self.cycle,
                    chunk=chunk_index(line_addr),
                    addr=line_addr,
                )
            chunk_b = chunk_base(line_addr)
            # A healed line may still hold its tampered seal: never carry
            # it, and restart its counter under the new epoch instead.
            skip = line_addr if healed and level == 0 else None
            self._reencrypt_chunk(chunk_b, skip_base=skip, skip_size=CACHELINE_BYTES)
            if skip is not None:
                self.tree.set_counter(line_addr, 0, 0)
            if level == 0:
                self._restart_unsealed_counters(line_addr, chunk_b)
            self._write_line_at(line_addr, payload, granularity)
        except (IntegrityError, ReplayError) as exc:
            self._close_run()
            self._seal_pending()
            self._handle_write_failure(line_addr, payload, granularity, exc)

    def _write_line_at(
        self, line_addr: int, payload: bytes, granularity: int
    ) -> None:
        if granularity == GRANULARITIES[0]:
            self._close_run()
            counter = self.tree.increment_counter(line_addr, level=0)
            if self._defer_lines:
                self._pending[line_addr] = (counter, payload)
            else:
                self._seal_line(
                    line_addr, counter, payload, self._current_bits(line_addr)
                )
            return
        self._write_line_coarse(line_addr, payload, granularity)

    def _write_line_coarse(
        self, line_addr: int, payload: bytes, granularity: int
    ) -> None:
        """Write one line of a coarse region (shared counter + merged MAC).

        The shared counter advances, so every line of the region is
        re-encrypted under the new value -- this is precisely the cost
        the dynamic detector exists to avoid on mispredicted regions.
        Within one ``write`` call the region stays open across a run of
        its lines and is sealed once, when the run ends (module
        docstring); the counter still advances once per line.
        """
        level = granularity_level(granularity)
        region_base = align_down(line_addr, granularity)
        bits = self._current_bits(line_addr)
        index = (line_addr - region_base) // CACHELINE_BYTES
        run = self._run
        if run is not None and run.key == (region_base, granularity, bits):
            run.counter = self.tree.increment_counter(region_base, level=level)
            run.plaintexts[index] = payload
            return
        self._close_run()
        old_counter = self.tree.read_counter(region_base, level=level)
        plaintexts = self._open_region(region_base, granularity, old_counter, bits)
        plaintexts[index] = payload
        counter = self.tree.increment_counter(region_base, level=level)
        self._run = _OpenRun(region_base, granularity, bits, counter, plaintexts)

    def _close_run(self) -> None:
        """Seal the open coarse region, if any, under its latest counter."""
        run = self._run
        if run is not None:
            self._run = None
            base, granularity, bits = run.key
            self._seal_region(base, granularity, run.counter, run.plaintexts, bits)

    def _read_line(self, line_addr: int, verified: dict) -> bytes:
        if line_addr in self._quarantined:
            self.events.bump("quarantined_line_reads")
            raise QuarantineError(
                f"read of quarantined line {line_addr:#x}"
            )
        try:
            return self._read_line_verified(line_addr, verified)
        except (IntegrityError, ReplayError) as exc:
            return self._handle_read_failure(line_addr, exc, verified)

    def _read_line_verified(self, line_addr: int, verified: dict) -> bytes:
        """Read one line; ``verified`` is the calling ``read``'s memo."""
        granularity = self._resolve(line_addr, is_write=False)
        bits = self._current_bits(line_addr)
        if granularity == GRANULARITIES[0]:
            counter = self.tree.read_counter(line_addr, level=0)
            return self._open_line(line_addr, counter, bits)
        level = granularity_level(granularity)
        region_base = align_down(line_addr, granularity)
        counter = self.tree.read_counter(region_base, level=level)
        memo = (region_base, granularity, counter, bits, self.key_epoch(region_base))
        if memo in verified:
            ciphertexts = verified[memo]
        else:
            ciphertexts = self._verify_region(region_base, granularity, counter, bits)
            verified[memo] = ciphertexts
        if ciphertexts is None:
            return _ZERO_LINE  # pristine region
        return decrypt_line(
            self._keys_for(region_base).encryption_key,
            line_addr,
            counter,
            ciphertexts[(line_addr - region_base) // CACHELINE_BYTES],
        )

    # ------------------------------------------------------------------
    # Integrity-failure handling (FailurePolicy)
    # ------------------------------------------------------------------

    def _handle_read_failure(
        self, line_addr: int, exc: Exception, verified: dict
    ) -> bytes:
        self.events.bump("integrity_failures")
        if self.tracer:
            self.tracer.emit(
                EventType.INTEGRITY_FAILURE,
                self.cycle,
                chunk=chunk_index(line_addr),
                addr=line_addr,
                error=type(exc).__name__,
                on="read",
            )
        if not self.failure_policy.quarantines:
            raise exc
        if self.failure_policy.retries_first:
            for _ in range(self.failure_policy.retries):
                try:
                    data = self._read_line_verified(line_addr, verified)
                except (IntegrityError, ReplayError) as again:
                    exc = again
                    continue
                self._record_recovery("read-failure", line_addr, exc)
                return data
        self._quarantine_region(line_addr, exc, kind="read-failure")
        raise AssertionError("unreachable")  # pragma: no cover

    def _handle_write_failure(
        self, line_addr: int, payload: bytes, granularity: int, exc: Exception
    ) -> None:
        """A read-modify-write (coarse write) failed verification."""
        self.events.bump("integrity_failures")
        if self.tracer:
            self.tracer.emit(
                EventType.INTEGRITY_FAILURE,
                self.cycle,
                chunk=chunk_index(line_addr),
                addr=line_addr,
                error=type(exc).__name__,
                on="write",
            )
        if not self.failure_policy.quarantines:
            raise exc
        if self.failure_policy.retries_first:
            for _ in range(self.failure_policy.retries):
                try:
                    self._write_line_at(line_addr, payload, granularity)
                except (IntegrityError, ReplayError) as again:
                    exc = again
                    continue
                self._record_recovery("write-failure", line_addr, exc)
                return
        self._quarantine_region(line_addr, exc, kind="write-failure")

    def _record_recovery(self, kind: str, line_addr: int, exc: Exception) -> None:
        self.events.bump("retry_recoveries")
        self.integrity_log.record(
            IntegrityEvent(
                kind=kind,
                addr=line_addr,
                granularity=self._peek_granularity(line_addr),
                error=type(exc).__name__,
                healable=True,
                recovered=True,
            )
        )

    def _quarantine_region(
        self, line_addr: int, cause: Exception, kind: str, reraise: bool = True
    ) -> None:
        """Fail the poisoned region closed; keep the rest serving.

        The failing protection region is quarantined whole (its merged
        MAC cannot localize the tamper further), demoted back to 64B
        granularity so fresh writes can heal it line by line, and its
        partitions are barred from re-promotion until healed.  If even
        the demotion bookkeeping fails verification (the counter tree
        itself is corrupted), the region is quarantined *hard*: no
        access, including writes, is accepted for it again.
        """
        granularity = self._peek_granularity(line_addr)
        base = align_down(line_addr, granularity)
        healable = True
        if granularity != GRANULARITIES[0] and self.policy == "multigranular":
            try:
                self._demote_quarantined(base, granularity)
            except (IntegrityError, ReplayError, CounterOverflowError):
                healable = False
                self.events.bump("hard_quarantines")
        self._quarantine_lines(base, granularity, "heal" if healable else "hard")
        self.events.bump("quarantined_regions")
        if self.tracer:
            self.tracer.emit(
                EventType.QUARANTINE,
                self.cycle,
                chunk=chunk_index(base),
                base=base,
                granularity=granularity,
                healable=healable,
                kind=kind,
            )
        self.integrity_log.record(
            IntegrityEvent(
                kind=kind,
                addr=line_addr,
                granularity=granularity,
                error=type(cause).__name__,
                healable=healable,
            )
        )
        if reraise:
            raise QuarantineError(
                f"region [{base:#x}, +{granularity}B) quarantined after "
                f"{type(cause).__name__}"
            ) from cause

    def _demote_quarantined(self, base: int, granularity: int) -> None:
        """Demote a poisoned coarse region to 64B without re-sealing it.

        The region's data is unverifiable, so unlike a normal scale-
        down the plaintext cannot be carried over; instead the per-line
        counters are revived at the region's shared counter value
        (>= every counter ever used for these lines, the scale-down
        argument of SECURITY.md), so heal-writes never reuse a pad.
        Compacted MACs of the chunk's *other* regions move to their new
        addresses; the poisoned merged MAC is dropped.
        """
        level = granularity_level(granularity)
        shared = self.tree.read_counter(base, level=level)
        chunk_b = chunk_base(base)
        old_bits, new_bits = self.table.demote_region(base, granularity)
        outside = self._pop_chunk_macs(
            chunk_b, old_bits, skip_base=base, skip_size=granularity
        )
        self._macs.pop(addressing.mac_addr(self.geometry, old_bits, base), None)
        self._reinsert_macs(outside, new_bits)
        for off in range(0, granularity, CACHELINE_BYTES):
            self.tree.set_counter(base + off, 0, shared, revive=True)

    def _quarantine_lines(self, base: int, size: int, state: str) -> None:
        for off in range(0, size, CACHELINE_BYTES):
            self._quarantined[base + off] = state
        chunk = chunk_index(base)
        self._quarantine_masks[chunk] = self._quarantine_masks.get(
            chunk, 0
        ) | self.table.region_partition_mask(base, size)

    def _heal_line(self, line_addr: int) -> None:
        """A fresh write re-seals a quarantined line; lift its quarantine."""
        self._quarantined.pop(line_addr, None)
        self.events.bump("healed_lines")
        if self.tracer:
            self.tracer.emit(
                EventType.HEAL,
                self.cycle,
                chunk=chunk_index(line_addr),
                addr=line_addr,
            )
        self._refresh_quarantine_mask(chunk_index(line_addr))

    def _refresh_quarantine_mask(self, chunk: int) -> None:
        mask = 0
        for line_addr in self._quarantined:
            if chunk_index(line_addr) == chunk:
                mask |= stream_part.partition_bit(line_addr)
        if mask:
            self._quarantine_masks[chunk] = mask
        else:
            self._quarantine_masks.pop(chunk, None)

    def _peek_granularity(self, addr: int) -> int:
        if self.policy == "fixed":
            return GRANULARITIES[0]
        return stream_part.resolve_granularity(
            self._current_bits(addr), addr, self.table.max_granularity
        )

    # ------------------------------------------------------------------
    # Counter-overflow recovery (lazy re-encryption, fresh key epoch)
    # ------------------------------------------------------------------

    def _reencrypt_chunk(
        self,
        chunk_b: int,
        bits: Optional[int] = None,
        skip_base: Optional[int] = None,
        skip_size: int = 0,
    ) -> None:
        """Re-encrypt every sealed region of a chunk under a new key epoch.

        Counter exhaustion must never repeat a (key, address, counter)
        pad, so instead of wrapping, the affected chunk's data is
        decrypted under the old epoch, the epoch advances (deriving a
        fresh keyset), all carried regions are re-sealed at counter 1,
        and the overflowing write retries.  Quarantined lines are not
        carried -- they stay quarantined.  ``skip_base/skip_size``
        exclude a span the caller re-seals itself (mid-switch
        overflow).  Lines the running write left pending are sealed
        first, under the old epoch's keys.
        """
        if bits is None:
            bits = self._current_bits(chunk_b)
        # Only a write-triggered scale-up's span can still hold pending
        # lines here (the overflow handler seals them before it calls):
        # ``skip_base`` covers that span and the switch reseals it.
        # Sealing them now, under the old epoch, is what sealing each
        # line as it is written leaves if the switch's pass 2 then fails.
        # No test reaches that case: a scale-up's pass 2 only touches
        # tree nodes its pass 1 verified, so it cannot fail.  The flush
        # keeps the re-key's result from resting on that argument.
        self._seal_pending(bits)
        limit = min(CHUNK_BYTES, self.geometry.region_bytes - chunk_b)
        sealed = []
        for sub, sub_g in self._iter_subregions(chunk_b, limit, bits):
            if skip_base is not None and skip_base <= sub < skip_base + skip_size:
                continue
            if any(
                sub + off in self._quarantined
                for off in range(0, sub_g, CACHELINE_BYTES)
            ):
                continue
            mac_addr = addressing.mac_addr(self.geometry, bits, sub)
            if mac_addr not in self._macs:
                continue  # pristine, nothing sealed to carry over
            counter = self.tree.read_counter(sub, level=granularity_level(sub_g))
            sealed.append(
                (sub, sub_g, self._open_region(sub, sub_g, counter, bits))
            )
        chunk = chunk_index(chunk_b)
        self._key_epochs[chunk] = self._key_epochs.get(chunk, 0) + 1
        self._epoch_keys.pop(chunk, None)
        if self.tracer:
            self.tracer.emit(
                EventType.EPOCH_BUMP,
                self.cycle,
                chunk=chunk,
                epoch=self._key_epochs[chunk],
                carried_regions=len(sealed),
            )
        for sub, sub_g, plaintexts in sealed:
            self.tree.set_counter(sub, granularity_level(sub_g), 1)
            self._seal_region(sub, sub_g, 1, plaintexts, bits)
        self.events.bump("chunk_reencryptions")

    def _restart_unsealed_counters(self, line_addr: int, chunk_b: int) -> None:
        """Restart at 0 the 64 B counters a re-encryption carried no seal of.

        After an overflow re-keys the chunk, the written line (a heal of
        a line revived by quarantine, or a deleted MAC) and every other
        heal-quarantined line of the chunk without a MAC may still sit
        at the counter limit.  The fresh epoch key means no pad can
        repeat, so their counters restart: the written line is sealed by
        the retried write at once, and the others stay quarantined until
        their own heal-write seals them, so none ever reads as pristine.
        One re-key therefore serves the heal of a whole region.
        """
        bits = self._current_bits(chunk_b)
        lines = [line_addr] + [
            addr
            for addr, state in self._quarantined.items()
            if state == "heal" and chunk_base(addr) == chunk_b
        ]
        for addr in lines:
            if not self.has_mac(addressing.mac_addr(self.geometry, bits, addr)):
                self.tree.set_counter(addr, 0, 0)

    def _keys_for(self, addr: int) -> KeySet:
        """Keyset of ``addr``'s chunk under its current key epoch."""
        chunk = chunk_index(addr)
        epoch = self._key_epochs.get(chunk, 0)
        if epoch == 0:
            return self.keys
        cached = self._epoch_keys.get(chunk)
        if cached is None:
            cached = self.keys.derive(b"chunk-%d-epoch-%d" % (chunk, epoch))
            self._epoch_keys[chunk] = cached
        return cached

    # ------------------------------------------------------------------
    # Granularity resolution + functional switching
    # ------------------------------------------------------------------

    def _resolve(self, line_addr: int, is_write: bool) -> int:
        if self.policy == "fixed":
            return GRANULARITIES[0]

        for eviction in self.tracker.observe(line_addr, self.cycle):
            chunk = eviction.entry.chunk_index
            bits = merge_detection(
                self.table.entry_by_chunk(chunk).next,
                eviction.entry.access_bits,
                censored=eviction.reason == "capacity",
            )
            self.table.record_detection(chunk, bits)
        self.cycle += 1

        if self._quarantine_masks:
            quarantine_mask = self._quarantine_masks.get(chunk_index(line_addr))
            if quarantine_mask:
                # Quarantined partitions must stay fine: a promotion would
                # have to open their unverifiable data mid-switch.
                self.table.restrict_next(line_addr, quarantine_mask)

        granularity, event = self.table.resolve(line_addr, is_write)
        self.switching.record_resolution(switched=event is not None)
        if event is not None:
            self.switching.record_event(event)
            self.switches += 1
            self._emit_switch(event)
            self._apply_switch_with_recovery(event)
        return granularity

    def _emit_switch(self, event: SwitchEvent) -> None:
        if self.tracer:
            self.tracer.emit(
                EventType.SWITCH,
                self.cycle,
                chunk=chunk_index(event.addr),
                old=event.old_granularity,
                new=event.new_granularity,
                scale_up=event.scale_up,
            )
            self.tracer.emit(
                EventType.MAC_MERGE if event.scale_up else EventType.MAC_SPLIT,
                self.cycle,
                chunk=chunk_index(event.addr),
                granularity=event.new_granularity,
            )

    def _apply_switch_with_recovery(self, event: SwitchEvent) -> None:
        """Apply a lazy switch; contain mid-switch metadata tamper.

        A switch re-keys a whole span, so a tamper staged inside the
        lazy-switching window surfaces *here* rather than in a plain
        read.  Retries only help when the first failure hit the
        verification pass (transient glitches); a failure during the
        re-seal pass leaves the span fail-closed via quarantine.
        """
        self._close_run()  # the switch re-opens the span from off-chip
        try:
            try:
                self._apply_switch_functional(event)
            finally:
                # A failed attempt hands nothing to the write's run: the
                # lines still pending are sealed where the write put
                # them, before a retry or the failure handler opens them.
                # After a success nothing is pending.
                self._seal_pending(event.old_bits)
            return
        except (IntegrityError, ReplayError) as exc:
            self.events.bump("switch_failures")
            if self.failure_policy.retries_first:
                for _ in range(self.failure_policy.retries):
                    try:
                        self._apply_switch_functional(event)
                    except (IntegrityError, ReplayError) as again:
                        exc = again
                        continue
                    self._record_recovery("switch-failure", event.addr, exc)
                    return
            self._handle_switch_failure(event, exc)

    def _handle_switch_failure(self, event: SwitchEvent, exc: Exception) -> None:
        span = max(event.old_granularity, event.new_granularity)
        span_base = align_down(event.addr, span)
        self.table.rollback_region(event.addr, span, event.old_bits)
        if not self.failure_policy.quarantines:
            raise exc
        # Locate the poisoned sub-regions under the restored old
        # layout; intact sub-regions of the span keep serving.
        poisoned = 0
        for sub, sub_g in self._iter_subregions(span_base, span, event.old_bits):
            try:
                counter = self.tree.read_counter(
                    sub, level=granularity_level(sub_g)
                )
                self._open_region(sub, sub_g, counter, event.old_bits)
            except (IntegrityError, ReplayError) as sub_exc:
                self._quarantine_region(
                    sub, sub_exc, kind="switch-failure", reraise=False
                )
                poisoned += 1
        if poisoned == 0:
            # The old layout verifies but re-keying still failed
            # (corruption confined to switch targets): fail the whole
            # span closed rather than guess.
            self._quarantine_lines(span_base, span, "hard")
            self.events.bump("quarantined_regions")
            self.events.bump("hard_quarantines")
            if self.tracer:
                self.tracer.emit(
                    EventType.QUARANTINE,
                    self.cycle,
                    chunk=chunk_index(span_base),
                    base=span_base,
                    granularity=span,
                    healable=False,
                    kind="switch-failure",
                )
            self.integrity_log.record(
                IntegrityEvent(
                    kind="switch-failure",
                    addr=event.addr,
                    granularity=span,
                    error=type(exc).__name__,
                    healable=False,
                )
            )
        raise QuarantineError(
            f"granularity switch at {event.addr:#x} failed verification; "
            f"span quarantined"
        ) from exc

    def _apply_switch_functional(self, event: SwitchEvent) -> None:
        """Re-key counters and MACs for a granularity switch (Fig. 13).

        The switched span may contain sub-regions of *different* old
        (or new) granularities -- e.g. a 4KB group promoted from a mix
        of 512B stream partitions and fine partitions -- so both passes
        walk the span resolving each sub-region against its bitmap.
        Reads use the *old* bitmap's MAC addresses; writes use the new
        one, because compaction moves MACs when the bitmap changes.

        Counter values follow Fig. 13: scale-up seals under
        ``max(old counters) + 1`` (a never-used value, forcing
        re-encryption); scale-down retains the shared value, so the
        deterministic OTP reproduces the identical ciphertext.

        Compaction also shifts the MAC addresses of the chunk's
        regions *outside* the span (Eq. 1 indexes depend on the whole
        chunk bitmap), so their stored MACs are relocated from the
        old-bitmap addresses to the new ones.

        A scale-up triggered by a write does not seal its one new
        region: the triggering line lands in it, so the switch hands it
        over as the write's open run (module docstring), to be sealed
        once when that run ends.  It takes the lines of the span that
        the write left pending from the call, not from off-chip; every
        other pending line is sealed first, under the old bitmap.
        """
        span = max(event.old_granularity, event.new_granularity)
        span_base = align_down(event.addr, span)
        hand_off = event.is_write and event.scale_up
        self._seal_pending(event.old_bits, keep=(span_base, span) if hand_off else None)
        old_layout = list(self._iter_subregions(span_base, span, event.old_bits))

        # Pass 1: open every sub-region under its old seal, or take a
        # pending line's plaintext from the call.
        plaintexts: List[bytes] = []
        max_counter = 0
        pending = self._pending
        for sub, sub_g in old_layout:
            counter = self.tree.read_counter(sub, level=granularity_level(sub_g))
            if sub in pending:  # a 64B line, as every pending line is
                plaintexts.append(self._take_pending(sub, event.old_bits))
            else:
                plaintexts.extend(
                    self._open_region(sub, sub_g, counter, event.old_bits)
                )
            max_counter = max(max_counter, counter)

        # Stale fine/merged MACs of the old layout are garbage once the
        # region is resealed; collect their addresses for reclamation.
        stale_macs = set(
            addressing.mac_addrs(
                self.geometry, event.old_bits, [sub for sub, _ in old_layout]
            )
        )

        # Scale-up under an exhausted counter would exceed the legal
        # width: rotate the chunk's key epoch first (re-encrypting the
        # regions outside the span), then reseal the span at counter 1.
        shared = max_counter + 1 if event.scale_up else max_counter
        chunk_b = chunk_base(span_base)
        if shared > self.tree.counter_limit:
            self.events.bump("counter_overflows")
            if self.tracer:
                self.tracer.emit(
                    EventType.COUNTER_OVERFLOW,
                    self.cycle,
                    chunk=chunk_index(span_base),
                    addr=span_base,
                    mid_switch=True,
                )
            self._reencrypt_chunk(
                chunk_b, bits=event.old_bits, skip_base=span_base, skip_size=span
            )
            shared = 1

        # MACs of the chunk's other regions move when compaction
        # indices shift; pop them under the old layout now, re-insert
        # under the new layout after the span is resealed.  A span that
        # covers the whole chunk leaves no other region to move.
        outside = []
        if span < CHUNK_BYTES:
            outside = self._pop_chunk_macs(
                chunk_b, event.old_bits, skip_base=span_base, skip_size=span
            )

        # Pass 2: reseal every sub-region under its new granularity.
        fresh_macs = set()
        try:
            for sub, sub_g in self._iter_subregions(
                span_base, span, event.new_bits
            ):
                level = granularity_level(sub_g)
                self.tree.set_counter(sub, level, shared, revive=True)
                if level > 0:
                    self.tree.prune_subtree(sub, level)
                if not hand_off:
                    first_line = (sub - span_base) // CACHELINE_BYTES
                    lines = plaintexts[
                        first_line : first_line + sub_g // CACHELINE_BYTES
                    ]
                    self._seal_region(sub, sub_g, shared, lines, event.new_bits)
                fresh_macs.add(
                    addressing.mac_addr(self.geometry, event.new_bits, sub)
                )
        except (IntegrityError, ReplayError):
            # The attempt is retried, or the table rolls back to the old
            # bitmap: the other regions' MACs stay where it addresses
            # them.
            self._reinsert_macs(outside, event.old_bits)
            raise

        # Reclaim obsolete MAC slots (compaction frees them, Fig. 9).
        for mac_addr in stale_macs - fresh_macs:
            self._macs.pop(mac_addr, None)

        self._reinsert_macs(outside, event.new_bits)
        if hand_off:
            # Last, so a failed attempt never leaves a run open.  If the
            # write's line does not join it, ``_close_run`` seals it
            # exactly as the loop above would have.  The span's pending
            # lines, all that is left pending, ride in it.
            pending.clear()
            self._run = _OpenRun(
                span_base, span, event.new_bits, shared, plaintexts
            )

    # ------------------------------------------------------------------
    # Chunk-wide MAC relocation helpers
    # ------------------------------------------------------------------

    def _iter_subregions(
        self, base: int, span: int, bits: int
    ) -> Iterator[Tuple[int, int]]:
        """Yield (sub_base, granularity) regions of [base, base+span)."""
        off = 0
        while off < span:
            sub = base + off
            sub_g = min(stream_part.resolve_granularity(bits, sub), span)
            yield sub, sub_g
            off += sub_g

    def _pop_chunk_macs(
        self,
        chunk_b: int,
        bits: int,
        skip_base: Optional[int] = None,
        skip_size: int = 0,
    ) -> List[Tuple[int, bytes]]:
        """Remove and return (region base, MAC) pairs of a chunk's regions.

        Addresses are computed under ``bits``; regions inside the skip
        window (handled by the caller) and pristine regions (no stored
        MAC) are left alone.
        """
        entries: List[Tuple[int, bytes]] = []
        limit = min(CHUNK_BYTES, self.geometry.region_bytes - chunk_b)
        for sub, _ in self._iter_subregions(chunk_b, limit, bits):
            if skip_base is not None and skip_base <= sub < skip_base + skip_size:
                continue
            mac = self._macs.pop(
                addressing.mac_addr(self.geometry, bits, sub), None
            )
            if mac is not None:
                entries.append((sub, mac))
        return entries

    def _reinsert_macs(
        self, entries: List[Tuple[int, bytes]], bits: int
    ) -> None:
        """Store popped MACs back at their addresses under ``bits``."""
        for sub, mac in entries:
            self._macs[addressing.mac_addr(self.geometry, bits, sub)] = mac

    # ------------------------------------------------------------------
    # Seal / open helpers (the only code that touches MACs + ciphertext)
    # ------------------------------------------------------------------

    def _seal_line(
        self, line_addr: int, counter: int, payload: bytes, bits: int
    ) -> bytes:
        """Encrypt and MAC one fine-grained line; return its ciphertext."""
        keys = self._keys_for(line_addr)
        ciphertext = encrypt_line(keys.encryption_key, line_addr, counter, payload)
        self.dram.write_line(line_addr, ciphertext)
        mac_addr = addressing.mac_addr(self.geometry, bits, line_addr)
        self._macs[mac_addr] = compute_mac(
            keys.mac_key, line_addr, counter, ciphertext
        )
        return ciphertext

    def _open_line(
        self,
        line_addr: int,
        counter: int,
        bits: int,
        ciphertext: Optional[bytes] = None,
    ) -> bytes:
        """Verify and decrypt one fine-grained line.

        ``ciphertext`` is the line's off-chip bytes when the caller has
        already read them; otherwise they are read here.
        """
        keys = self._keys_for(line_addr)
        if ciphertext is None:
            ciphertext = self.dram.read_line(line_addr)
        stored = self._macs.get(addressing.mac_addr(self.geometry, bits, line_addr))
        if stored is None:
            if ciphertext == _ZERO_LINE and counter == 0:
                return _ZERO_LINE  # pristine, never written
            raise IntegrityError(f"missing MAC for line {line_addr:#x}")
        expected = compute_mac(keys.mac_key, line_addr, counter, ciphertext)
        if not macs_equal(stored, expected):
            self._raise_classified(line_addr, counter, ciphertext, stored)
        return decrypt_line(keys.encryption_key, line_addr, counter, ciphertext)

    def _seal_pending(
        self,
        bits: Optional[int] = None,
        keep: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Seal the lines the running ``write`` left pending, in one pass.

        Their MACs are stored at their addresses under ``bits`` (default:
        their chunk's current bitmap).  Lines inside the span ``keep``
        (base, size) stay pending.
        """
        pending = self._pending
        if keep is None:
            items = list(pending.items())
            pending.clear()
        else:
            base, size = keep
            outside = [addr for addr in pending if not base <= addr < base + size]
            items = [(addr, pending.pop(addr)) for addr in outside]
        if not items:
            return
        addrs, entries = zip(*items)
        counters, payloads = zip(*entries)
        if bits is None:
            bits = self._current_bits(addrs[0])
        fine_macs = self._seal_lines(
            self._keys_for(addrs[0]), addrs, counters, payloads
        )
        macs = self._macs
        for mac_addr, mac in zip(
            addressing.mac_addrs(self.geometry, bits, addrs), fine_macs
        ):
            macs[mac_addr] = mac

    def _take_pending(self, line_addr: int, bits: int) -> bytes:
        """Plaintext of a pending line, for a switch's first pass.

        The line's off-chip bytes are stale, so they are not read --
        unless a transient glitch is staged on it.  Then the line is
        sealed first and read back, so the glitch is consumed and
        checked exactly as when the line was sealed as it was written:
        bytes other than the sealed ones are verified (and fail).
        """
        counter, plaintext = self._pending[line_addr]
        if not self.dram.has_transient(line_addr):
            return plaintext
        del self._pending[line_addr]
        sealed = self._seal_line(line_addr, counter, plaintext, bits)
        ciphertext = self.dram.read_line(line_addr)
        if ciphertext == sealed:
            return plaintext
        return self._open_line(line_addr, counter, bits, ciphertext)

    def _seal_lines(
        self,
        keys: KeySet,
        addrs: Sequence[int],
        counters: Sequence[int],
        plaintexts: Sequence[bytes],
    ) -> List[bytes]:
        """Encrypt lines into off-chip memory; return their fine MACs."""
        ciphertexts = encrypt_lines(keys.encryption_key, addrs, counters, plaintexts)
        write_line = self.dram.write_line
        for addr, ciphertext in zip(addrs, ciphertexts):
            write_line(addr, ciphertext)
        return line_macs(keys.mac_key, addrs, counters, ciphertexts)

    def _seal_region(
        self,
        region_base: int,
        granularity: int,
        counter: int,
        plaintexts: List[bytes],
        bits: int,
    ) -> None:
        """Encrypt a region under ``counter`` and store its merged MAC."""
        if granularity == GRANULARITIES[0]:
            self._seal_line(region_base, counter, plaintexts[0], bits)
            return
        keys = self._keys_for(region_base)
        fine_macs = self._seal_lines(
            keys,
            range(region_base, region_base + granularity, CACHELINE_BYTES),
            [counter] * (granularity // CACHELINE_BYTES),
            plaintexts,
        )
        mac_addr = addressing.mac_addr(self.geometry, bits, region_base)
        self._macs[mac_addr] = nested_mac(keys.mac_key, fine_macs)

    def _open_region(
        self, region_base: int, granularity: int, counter: int, bits: int
    ) -> List[bytes]:
        """Verify a whole region's merged MAC and decrypt every line."""
        if granularity == GRANULARITIES[0]:
            return [self._open_line(region_base, counter, bits)]
        ciphertexts = self._verify_region(region_base, granularity, counter, bits)
        if ciphertexts is None:
            return [_ZERO_LINE] * (granularity // CACHELINE_BYTES)
        return encrypt_lines(  # XOR with the same pads decrypts
            self._keys_for(region_base).encryption_key,
            range(region_base, region_base + granularity, CACHELINE_BYTES),
            repeat(counter),
            ciphertexts,
        )

    def _verify_region(
        self, region_base: int, granularity: int, counter: int, bits: int
    ) -> Optional[List[bytes]]:
        """Check a coarse region's merged MAC against its off-chip bytes.

        MACs every line, folds the fine MACs (Eq. 5) and compares the
        result with the stored merged MAC; a mismatch probes older
        counters, within a fixed line-MAC budget
        (``_REPLAY_PROBE_LINES``), to classify replay vs corruption.
        Returns the verified ciphertexts, or ``None`` for a pristine
        (never written) region, which reads as zeros.  The check MACs line by
        line through :func:`compute_mac`, the call a traced run counts
        per line read; the probe, diagnostics only, runs batched.
        """
        mac_key = self._keys_for(region_base).mac_key
        ciphertexts = [
            self.dram.read_line(region_base + off)
            for off in range(0, granularity, CACHELINE_BYTES)
        ]
        stored = self._macs.get(
            addressing.mac_addr(self.geometry, bits, region_base)
        )
        if stored is None:
            if all(ct == _ZERO_LINE for ct in ciphertexts) and counter == 0:
                return None  # pristine region
            raise IntegrityError(
                f"missing merged MAC for region {region_base:#x}"
            )
        fine_macs = [
            compute_mac(mac_key, region_base + off, counter, ct)
            for off, ct in zip(
                range(0, granularity, CACHELINE_BYTES), ciphertexts
            )
        ]
        merged = nested_mac(mac_key, fine_macs)
        if not macs_equal(stored, merged):
            # Probe older counters to classify replay vs corruption,
            # within the probe's line budget.
            addrs = range(region_base, region_base + granularity, CACHELINE_BYTES)
            window = min(_REPLAY_PROBE_WINDOW, _REPLAY_PROBE_LINES // len(addrs))
            for old in range(max(0, counter - window), counter):
                old_fines = line_macs(mac_key, addrs, repeat(old), ciphertexts)
                if macs_equal(nested_mac(mac_key, old_fines), stored):
                    raise ReplayError(
                        f"replayed region detected at {region_base:#x}"
                    )
            raise IntegrityError(
                f"merged MAC mismatch on region {region_base:#x} "
                f"({granularity}B granularity)"
            )
        return ciphertexts

    # ------------------------------------------------------------------
    # Small utilities
    # ------------------------------------------------------------------

    def _current_bits(self, addr: int) -> int:
        if self.policy == "fixed":
            return 0
        return self.table.entry(addr).current

    def _region_mac_addr(self, addr: int) -> int:
        """MAC address of the protection region containing ``addr``."""
        bits = self._current_bits(addr)
        granularity = self.granularity_of(addr)
        region_base = align_down(addr, granularity)
        return addressing.mac_addr(self.geometry, bits, region_base)

    def _raise_classified(
        self, addr: int, counter: int, ciphertext: bytes, stored: bytes
    ) -> None:
        """Raise ReplayError for stale-but-authentic data, else IntegrityError."""
        keys = self._keys_for(addr)
        for old in range(max(0, counter - _REPLAY_PROBE_WINDOW), counter):
            candidate = compute_mac(keys.mac_key, addr, old, ciphertext)
            if macs_equal(candidate, stored):
                raise ReplayError(f"replayed data detected at {addr:#x}")
        raise IntegrityError(f"MAC mismatch on data line {addr:#x}")

    def _check_aligned_access(self, addr: int, size: int) -> None:
        check_range(addr, size, self.geometry.region_bytes)
        if addr % CACHELINE_BYTES or size % CACHELINE_BYTES:
            raise AddressError(
                f"access [{addr:#x}, +{size}) not 64B-aligned; use "
                f"read_bytes/write_bytes for unaligned access"
            )

    # Introspection for external correctness harnesses ------------------

    def mac_addresses(self) -> List[int]:
        """Sorted addresses currently holding a stored MAC.

        Public, read-only view for differential checkers
        (:mod:`repro.check`): after a write, the compacted MAC of the
        written region must appear at exactly the Eq. 1 address.
        """
        return sorted(self._macs)

    def has_mac(self, mac_addr: int) -> bool:
        """True when a MAC is stored at metadata address ``mac_addr``."""
        return mac_addr in self._macs

    def table_bits(self, addr: int) -> Tuple[int, int]:
        """(current, next) stream-part bitmaps of ``addr``'s chunk."""
        if self.policy == "fixed":
            return 0, 0
        entry = self.table.entry(addr)
        return entry.current, entry.next

    def counter_value(self, addr: int, granularity: Optional[int] = None) -> int:
        """Counter of ``addr``'s protection region, without any access.

        ``granularity`` defaults to the currently sealed granularity;
        the counter is read at its promoted tree level (Eqs. 2-3).
        """
        granularity = granularity or self.granularity_of(addr)
        level = granularity_level(granularity)
        return self.tree.read_counter(align_down(addr, granularity), level)

    def metadata_footprint(self) -> dict:
        """Bytes of security metadata currently stored off-chip.

        The headline saving of the multi-granular design: promoted
        counters prune whole subtrees and merged MACs collapse 8-512
        fine MACs into one, so the same data needs less metadata.
        """
        mac_bytes = len(self._macs) * 8
        tree_nodes = len(self.tree._payloads)
        counter_bytes = tree_nodes * CACHELINE_BYTES
        granularity_hist = {}
        if self.policy == "multigranular":
            for _, entry in self.table.chunks():
                sizes = stream_part.granularity_histogram(entry.current)
                for granularity, covered in sizes.items():
                    if covered:
                        granularity_hist[granularity] = (
                            granularity_hist.get(granularity, 0) + covered
                        )
        return {
            "mac_bytes": mac_bytes,
            "tree_node_bytes": counter_bytes,
            "total_bytes": mac_bytes + counter_bytes,
            "coverage_by_granularity": granularity_hist,
        }

    # Unaligned convenience wrappers -----------------------------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Unaligned write via read-modify-write of the covering lines."""
        if not data:
            return
        start = align_down(addr, CACHELINE_BYTES)
        end = align_down(addr + len(data) - 1, CACHELINE_BYTES) + CACHELINE_BYTES
        merged = bytearray(self.read(start, end - start))
        merged[addr - start : addr - start + len(data)] = data
        self.write(start, bytes(merged))

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Unaligned read."""
        if size <= 0:
            return b""
        start = align_down(addr, CACHELINE_BYTES)
        end = align_down(addr + size - 1, CACHELINE_BYTES) + CACHELINE_BYTES
        whole = self.read(start, end - start)
        return whole[addr - start : addr - start + size]

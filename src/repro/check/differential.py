"""Engine-vs-oracle differential replay harness.

Replays one seeded op stream through the real optimized engine
(:class:`repro.secure_memory.engine.SecureMemory`, multigranular
policy) and the naive reference model (:class:`repro.check.oracle.
RefModel`) in lock-step, and after *every* request diffs every
observable the two sides share:

* effective granularity of the touched address;
* the chunk's ``current`` / ``next`` stream-part bitmaps;
* the counter value of the resolved protection region;
* compacted MAC index / address (optimized ``core.addressing`` vs the
  literal region walk), plus presence of the MAC at the predicted
  address after a write;
* per-chunk MAC count under the live bitmap;
* counter location (optimized ``locate_counter`` vs Eq. 2/3 re-derived
  slot and node address) and the window classification of every
  metadata address the op implies;
* plaintext read data;
* cycle and cumulative lazy-switch counts.

The first mismatch raises :class:`DivergenceError` whose report names
the mismatching request (index, kind, address) and the differing
field.  Each op also appends a stable integer-only observation record,
which the golden corpus digests.

``engine_mode="fast"`` defers the pure layout-math diffs (Eq. 1 MAC
compaction, Eq. 2-4 counter location) into windows verified in one
vectorized numpy pass per :data:`WINDOW_OPS` requests via
:mod:`repro.engine_fast.tables` -- and diffs *both* the scalar
``core.addressing`` values and the independent numpy derivation
against the oracle, so a bug injected into either implementation
(e.g. :func:`repro.check.runner.inject_layout_bug`) is still caught.
Observation records always store the oracle's values, so golden-corpus
digests are byte-identical across engine modes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check import oracle as ref
from repro.check.streams import Op
from repro.common.canonical import canonical_json, digest_text
from repro.common.constants import (
    CACHELINE_BYTES,
    CHUNK_BYTES,
    LINES_PER_CHUNK,
    MAC_BYTES,
    granularity_level,
)
from repro.core import addressing
from repro.crypto.keys import KeySet
from repro.secure_memory.engine import SecureMemory


@dataclass(frozen=True)
class Divergence:
    """One engine/oracle disagreement, anchored to the request stream."""

    index: int
    kind: str
    addr: int
    fld: str
    engine: object
    oracle: object

    def describe(self) -> str:
        return (
            f"first divergence at request #{self.index} "
            f"({self.kind} addr=0x{self.addr:x}): field {self.fld!r} "
            f"engine={self.engine!r} oracle={self.oracle!r}"
        )


class DivergenceError(AssertionError):
    """Raised on the first engine/oracle mismatch."""

    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.describe())
        self.divergence = divergence


def _payload(seed: int, addr: int, version: int) -> bytes:
    """Deterministic, address-keyed line payload.

    Depends only on (seed, addr, per-address write ordinal), never on
    the op's position in the stream, so permuting independent ops does
    not change what any address ends up holding.
    """
    tag = f"{seed}:{addr}:{version}".encode()
    return hashlib.blake2b(tag, digest_size=CACHELINE_BYTES).digest()


#: Fast-mode verification window: layout observables of this many ops
#: are diffed in one vectorized pass (and at stream end).
WINDOW_OPS = 256


@dataclass
class DifferentialHarness:
    """Lock-step replay of one op stream through engine and oracle."""

    region_bytes: int
    seed: int = 0
    engine_mode: str = "scalar"
    records: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.engine_mode not in ("scalar", "fast"):
            raise ValueError(f"unknown engine_mode {self.engine_mode!r}")
        if self.engine_mode == "fast":
            from repro.engine_fast import numpy_or_none

            if numpy_or_none() is None:
                raise ValueError(
                    "engine_mode='fast' requires numpy (install .[fast])"
                )
        keys = KeySet.from_seed(f"repro-check-{self.seed}".encode())
        self.engine = SecureMemory(
            self.region_bytes, keys=keys, policy="multigranular", counter_bits=64
        )
        self.oracle = ref.RefModel(self.region_bytes)
        self.ref_geometry = ref.RefGeometry(self.region_bytes)
        self._write_versions: Dict[int, int] = {}
        self._index = 0
        #: Fast mode: deferred layout observables, one tuple per op.
        self._pending: List[tuple] = []
        #: Bitmap -> the oracle's region walk of a chunk under it (a
        #: pure function of the bitmap, walked once per bitmap).
        self._spans: Dict[int, list] = {}

    # -- replay ---------------------------------------------------------

    def replay(self, ops: Sequence[Op]) -> None:
        """Run ``ops``; raise :class:`DivergenceError` on first mismatch."""
        for op in ops:
            self._step(op)
        self._flush_window()

    def _step(self, op: Op) -> None:
        index = self._index
        self._index += 1
        if op.kind == "advance":
            # A barrier event: settle any deferred window first so a
            # divergence is reported before the epoch moves on.
            self._flush_window()
            self.engine.advance(op.cycles)
            self.oracle.advance(op.cycles)
            self.records.append({"i": index, "op": "advance", "cycles": op.cycles})
            return
        if op.kind == "write":
            payload = self._next_payload(op.addr)
            self.engine.write(op.addr, payload)
            self.oracle.write(op.addr, payload)
            engine_data = oracle_data = payload
        elif op.kind == "read":
            engine_data = self.engine.read(op.addr, CACHELINE_BYTES)
            oracle_data = self.oracle.read(op.addr)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        self._observe(index, op, engine_data, oracle_data)

    def write_run(self, ops: Sequence[Op]) -> None:
        """Write ops to ascending adjacent lines as one engine ``write``.

        The oracle applies the same lines one at a time; then every
        observable of every written line is diffed, as :meth:`replay`
        diffs it after a one-line write.
        """
        self._flush_window()
        first = self._index
        self._index += len(ops)
        payloads = [self._next_payload(op.addr) for op in ops]
        self.engine.write(ops[0].addr, b"".join(payloads))
        for op, payload in zip(ops, payloads):
            self.oracle.write(op.addr, payload)
        for index, (op, payload) in enumerate(zip(ops, payloads), first):
            self._observe(index, op, payload, payload)
        self._flush_window()

    def _next_payload(self, addr: int) -> bytes:
        version = self._write_versions.get(addr, 0)
        self._write_versions[addr] = version + 1
        return _payload(self.seed, addr, version)

    # -- per-op observation + diff --------------------------------------

    def _diff(self, index: int, kind: str, addr: int, fld: str, engine, oracle) -> None:
        if engine != oracle:
            raise DivergenceError(
                Divergence(index, kind, addr, fld, engine, oracle)
            )

    def _observe(self, index: int, op: Op, engine_data, oracle_data) -> None:
        diff = self._diff
        kind = op.kind
        addr = op.addr
        diff(index, kind, addr, "data", engine_data, oracle_data)
        diff(index, kind, addr, "cycle", self.engine.cycle, self.oracle.cycle)
        diff(index, kind, addr, "switches", self.engine.switches, self.oracle.switches)

        engine_current, engine_next = self.engine.table_bits(addr)
        current, nxt = self.oracle.bits_of(addr)
        diff(index, kind, addr, "bits.current", engine_current, current)
        diff(index, kind, addr, "bits.next", engine_next, nxt)

        granularity = self.engine.granularity_of(addr)
        diff(
            index, kind, addr, "granularity",
            granularity, self.oracle.granularity_of(addr),
        )

        level = granularity_level(granularity)
        region_base = addr - addr % granularity
        counter = self.engine.counter_value(addr, granularity)
        diff(
            index, kind, addr, "counter",
            counter, self.oracle.counter_of(region_base, level),
        )

        # Eq. 1 / Fig. 9: the oracle's literal region walk.  One walk
        # serves index, address and per-chunk count.
        spans = self._spans.get(current)
        if spans is None:
            max_g = self.engine.table.max_granularity
            spans = self._spans[current] = ref.ref_region_spans(current, max_g)
        offset = addr % CHUNK_BYTES
        ref_index = next(
            i for i, (off, g) in enumerate(spans) if off <= offset < off + g
        )
        ref_mac = (
            self.region_bytes
            + (addr // CHUNK_BYTES) * LINES_PER_CHUNK * MAC_BYTES
            + ref_index * MAC_BYTES
        )
        node, slot = self.ref_geometry.counter_slot(addr, level)
        ref_node_addr = self.ref_geometry.node_addr(level, node)

        if self.engine_mode == "fast":
            # Defer the pure layout-math diffs to the vectorized
            # window pass; everything state-dependent stays per-op.
            self._pending.append(
                (index, kind, addr, current, granularity, level,
                 ref_index, ref_mac, len(spans), node, slot, ref_node_addr)
            )
            if len(self._pending) >= WINDOW_OPS:
                self._flush_window()
        else:
            self._check_layout_scalar(
                index, kind, addr, current, granularity, level,
                ref_index, ref_mac, len(spans), node, slot, ref_node_addr,
            )

        if kind == "write":
            diff(index, kind, addr, "mac.sealed", self.engine.has_mac(ref_mac), True)

        # Every implied metadata address must land in its window.
        diff(
            index, kind, addr, "window.mac",
            self.ref_geometry.classify(ref_mac), "mac",
        )
        diff(
            index, kind, addr, "window.tree",
            self.ref_geometry.classify(ref_node_addr), "tree",
        )
        diff(
            index, kind, addr, "window.table",
            self.ref_geometry.classify(self.engine.table.entry_line_addr(addr)),
            "table",
        )

        self.records.append(
            {
                "i": index,
                "op": op.kind,
                "addr": addr,
                "granularity": granularity,
                "current": current,
                "next": nxt,
                "counter": counter,
                "mac_index": ref_index,
                "switches": self.engine.switches,
            }
        )

    # -- layout-math verification (per-op scalar / windowed fast) -------

    def _check_layout_scalar(
        self, index, kind, addr, current, granularity, level,
        ref_index, ref_mac, ref_per_chunk, node, slot, ref_node_addr,
    ) -> None:
        """Diff optimized ``core.addressing`` against the oracle walk."""
        diff = self._diff
        max_g = self.engine.table.max_granularity
        diff(
            index, kind, addr, "mac.index",
            addressing.mac_index_in_chunk(current, addr, max_g), ref_index,
        )
        diff(
            index, kind, addr, "mac.addr",
            addressing.mac_addr(self.engine.geometry, current, addr, max_g),
            ref_mac,
        )
        diff(
            index, kind, addr, "mac.per_chunk",
            addressing.macs_per_chunk(current, max_g), ref_per_chunk,
        )
        loc = addressing.locate_counter(self.engine.geometry, addr, granularity)
        diff(index, kind, addr, "counter.level", loc.level, level)
        diff(index, kind, addr, "counter.node", loc.node_index, node)
        diff(index, kind, addr, "counter.slot", loc.slot, slot)
        diff(index, kind, addr, "counter.node_addr", loc.node_addr, ref_node_addr)

    def _flush_window(self) -> None:
        """Fast mode: verify one deferred window in a vectorized pass.

        Diffs the oracle against BOTH implementations -- the scalar
        ``core.addressing`` helpers (so an injected scalar-layout bug
        is still caught under ``--engine fast``) and the independent
        numpy cumulative-sum derivation in
        :mod:`repro.engine_fast.tables`.
        """
        if not self._pending:
            return
        from repro.engine_fast import tables

        pending = self._pending
        self._pending = []
        geometry = self.engine.geometry
        max_g = self.engine.table.max_granularity
        addr_list = [p[2] for p in pending]
        bits_list = [p[3] for p in pending]
        level_list = [p[5] for p in pending]
        fast_index, fast_mac, fast_per = tables.mac_observables(
            geometry, max_g, bits_list, addr_list
        )
        fast_node, fast_slot, fast_node_addr = tables.counter_observables(
            geometry, level_list, addr_list
        )
        diff = self._diff
        for k, p in enumerate(pending):
            (index, kind, addr, current, granularity, level,
             ref_index, ref_mac, ref_per_chunk, node, slot, ref_node_addr) = p
            self._check_layout_scalar(
                index, kind, addr, current, granularity, level,
                ref_index, ref_mac, ref_per_chunk, node, slot, ref_node_addr,
            )
            diff(index, kind, addr, "mac.index[fast]", fast_index[k], ref_index)
            diff(index, kind, addr, "mac.addr[fast]", fast_mac[k], ref_mac)
            diff(
                index, kind, addr, "mac.per_chunk[fast]",
                fast_per[k], ref_per_chunk,
            )
            diff(index, kind, addr, "counter.node[fast]", fast_node[k], node)
            diff(index, kind, addr, "counter.slot[fast]", fast_slot[k], slot)
            diff(
                index, kind, addr, "counter.node_addr[fast]",
                fast_node_addr[k], ref_node_addr,
            )

    # -- state fingerprints (metamorphic relations) ---------------------

    def fingerprint(self, include_counters: bool = True) -> str:
        """Digest of the harness's functional end state.

        ``include_counters=False`` drops counter values and switch
        counts: within a permuted group the *order* decides which
        access triggers a scale-up (``shared = max + 1``), so those are
        legitimately order-dependent while everything else is not.
        """
        chunks: Dict[str, List[int]] = {}
        for chunk in range(self.region_bytes // CHUNK_BYTES):
            entry = self.engine.table.entry_by_chunk(chunk)
            if entry.current or entry.next:
                chunks[str(chunk)] = [entry.current, entry.next]
        state: Dict[str, object] = {
            "chunks": chunks,
            "data": {
                str(addr): hashlib.sha256(line).hexdigest()
                for addr, line in sorted(self.oracle.data.items())
            },
        }
        if include_counters:
            state["counters"] = {
                f"{level}:{region}": value
                for (level, region), value in sorted(self.oracle.counters.items())
                if value
            }
            state["switches"] = self.engine.switches
            state["cycle"] = self.engine.cycle
        return digest_text(canonical_json(state))

    def record_digest(self) -> str:
        """Digest of the per-op observation records (golden corpus)."""
        return digest_text(canonical_json(self.records))


def replay_spec(
    spec, ops: Optional[Sequence[Op]] = None, engine_mode: str = "scalar"
) -> DifferentialHarness:
    """Build a harness for ``spec`` and replay its (or the given) ops."""
    from repro.check.streams import generate_stream

    harness = DifferentialHarness(
        spec.region_bytes, seed=spec.seed, engine_mode=engine_mode
    )
    harness.replay(generate_stream(spec) if ops is None else ops)
    return harness

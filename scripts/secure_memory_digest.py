#!/usr/bin/env python
"""Byte-identity digest of the functional plane's state (``SecureMemory``).

Replays a seeded op mix, and a list of fixed histories, through
``SecureMemory`` and writes one canonical JSON report.  A case is one
history on a fresh engine; its entry holds one SHA-256 over the sorted
off-chip state (DRAM lines, data MACs, tree payloads, tree MACs) plus
the on-chip root, the table bitmaps, the quarantine state, the key
epochs, the event counters, the integrity log and the outcome of every
op (the error raised, or a digest of the data a read returned).

The mix has whole-chunk puts, multi-line puts (some crossing a chunk
boundary), one-line puts, reads, ``force_granularity``, clock
advances, data and MAC tampers and transient glitches, under both
policies, 6- and 64-bit counters, the ``raise`` and
``retry-then-quarantine`` failure policies and seeds 1-3.  The fixed
histories add the write-path corner cases: an overflow and a failed
switch in the middle of a call, glitches on lines a call writes, and
scale-ups that a write triggers next to lines it has already written.

The report is byte-identical across runs, processes and CPython
versions, so its sha256 is a reference: a change that must leave the
functional plane's state as it was checks it against
``tests/golden/secure_memory_state.sha256``::

    python scripts/secure_memory_digest.py --json secure_memory_state.json
    sha256sum -c tests/golden/secure_memory_state.sha256

Exit status: 0 ok, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.canonical import canonical_json
from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES
from repro.common.errors import CounterOverflowError, SecurityError
from repro.crypto.keys import KeySet
from repro.secure_memory import SecureMemory

SCHEMA = "repro-secure-memory-state/v1"
KEYS = KeySet.from_seed(b"secure-memory-digest")
REGION = 4 * CHUNK_BYTES
LINES = REGION // CACHELINE_BYTES
CHUNK_LINES = CHUNK_BYTES // CACHELINE_BYTES

# Ops, one tuple each (addresses in lines, payloads one repeated byte):
#   ("write", line, count, byte)  count lines from line (clamped to the region)
#   ("stream", chunk, byte)       the whole chunk, or its first 16 lines
#                                 when it is already coarse
#   ("read", line, count)         ("force", line, granularity)
#   ("advance", cycles)           ("tamper", line, bit)
#   ("glitch", line)              ("tamper_mac", line)
#   ("tamper_tree", line, level)  ("forge_node", line, level, byte)

#: Fixed histories: (name, policy, failure policy, counter bits, ops).
HISTORIES = [
    # Counter overflow in the middle of a coarse region, then a glitch
    # and a tamper met by the first line a later write opens.
    ("overflow-mid-region", "multigranular", "retry-then-quarantine", 6, [
        ("force", 0, 4096), ("write", 0, 64, 7), ("write", 3, 64, 9),
        ("glitch", 5), ("write", 2, 16, 1), ("tamper", 70, 0),
        ("write", 60, 16, 3),
    ]),
    # Tracker-driven promotion, a call that ends at a chunk boundary and
    # a tamper between two writes.
    ("promotion-and-boundary", "multigranular", "raise", 64, [
        ("stream", 0, 1), ("write", 500, 16, 2), ("tamper", 3, 0),
        ("write", 0, 8, 5), ("stream", 1, 4), ("write", 510, 4, 6),
    ]),
    # Reads mark partition 1 as streamed, so the write's lazy scale-up
    # there lands next to the 8 lines the call has already written.
    ("scale-up-next-to-written-lines", "multigranular", "raise", 64, [
        ("read", 8, 8), ("advance", 20_000), ("read", 600, 1),
        ("write", 0, 16, 3),
    ]),
    # The stream's scale-up puts the shared counter at the 6-bit limit:
    # the triggering line's bump overflows inside the promoted region.
    ("overflow-in-promoted-region", "multigranular", "raise", 6,
     [("write", 0, 1, 1)] * 61 + [("stream", 0, 2)]),
    # A glitch on a line the stream writes at 64 B before its scale-up.
    ("glitch-on-a-written-line", "multigranular", "raise", 64, [
        ("write", 0, 8, 1), ("glitch", 3), ("stream", 0, 2),
    ]),
    # A glitch on a written line that a later switch in the same call
    # leaves outside its span; the next read meets it.
    ("glitch-outside-the-span", "multigranular", "retry-then-quarantine", 64, [
        ("glitch", 3), ("read", 8, 8), ("advance", 20_000),
        ("read", 600, 1), ("write", 0, 16, 3), ("read", 3, 1),
    ]),
    # Line 5's counter overflows after lines 0-4 of the call.
    ("overflow-after-written-lines", "multigranular", "quarantine", 6,
     [("write", 5, 1, 1)] * 63 + [("write", 0, 16, 2), ("read", 2, 8)]),
    # A scale-down fails in its re-seal pass (forged pruned nodes) after
    # lines 120-127 of the call; line 320 of the chunk keeps its MAC.
    ("failed-scale-down", "multigranular", "raise", 64, [
        ("write", 320, 1, 5), ("write", 128, 64, 2), ("advance", 20_000),
        ("read", 600, 1), ("force", 128, 4096),
        ("forge_node", 128, 0, 0x00), ("forge_node", 128, 1, 0x11),
        ("read", 130, 1), ("advance", 20_000), ("read", 600, 1),
        ("write", 120, 16, 7), ("read", 320, 1),
    ]),
    # The stream's scale-up fails on line 511, tampered earlier: only
    # line 511 may end up quarantined.
    ("failed-scale-up", "multigranular", "retry-then-quarantine", 64, [
        ("write", 511, 1, 4), ("advance", 20_000), ("read", 600, 1),
        ("tamper", 511, 0), ("stream", 0, 5), ("read", 3, 1),
    ]),
    # Chunk 0's tracker entry expires in the middle of the write, which
    # has already written into the 4 KB region at line 0: the merge
    # demotes that region, and the write triggers its scale-down.
    ("scale-down-inside-a-call", "multigranular", "raise", 64, [
        ("force", 0, 4096), ("read", 100, 1), ("advance", 16_380),
        ("write", 0, 16, 3), ("read", 0, 16),
    ]),
    # A scale-up whose shared counter passes the 6-bit limit, triggered
    # by a write that has already rewritten lines 0-7 of the chunk: the
    # chunk is re-keyed mid-switch and must carry those lines.
    ("rekey-mid-switch-next-to-written-lines", "multigranular", "raise", 6,
     [("write", 0, 8, 1)] + [("write", 8, 1, 2)] * 63 + [
         ("read", 8, 8), ("advance", 20_000), ("read", 600, 1),
         ("write", 0, 16, 3), ("read", 0, 16),
     ]),
    # Calls crossing chunk boundaries: from a promoted chunk into a fine
    # one, and between chunks of different key epochs.
    ("calls-across-chunks", "multigranular", "raise", 6, [
        ("stream", 0, 1), ("write", 500, 24, 2), ("force", 1100, 4096),
        ("write", 1000, 120, 3),
    ] + [("write", 1030, 1, 4)] * 64 + [
        ("write", 1020, 16, 5), ("read", 1020, 8), ("read", 500, 8),
    ]),
    ("calls-across-chunks-fixed", "fixed", "retry-then-quarantine", 6,
     [("write", 500, 1, 1)] * 64 + [
         ("write", 505, 16, 2), ("glitch", 515), ("write", 510, 8, 3),
         ("read", 505, 8), ("read", 513, 8),
     ]),
]

POLICIES = ("fixed", "multigranular")
FAILURE_POLICIES = ("raise", "retry-then-quarantine")
COUNTER_BITS = (6, 64)
SEEDS = (1, 2, 3)
MIX_OPS = 48


def mix(seed: int):
    """The seeded op mix: a deterministic head, then ``MIX_OPS`` draws."""
    rng = random.Random(seed)
    ops = [
        ("stream", 0, 1),
        ("write", CHUNK_LINES - 12, 24, 2),  # across the first boundary
        ("write", 2 * CHUNK_LINES - 8, 16, 3),  # across the second
    ]

    def line():
        # Half the draws land near the start or a chunk boundary, so
        # calls revisit regions and cross chunks.
        if rng.random() < 0.5:
            return rng.choice((0, CHUNK_LINES, 2 * CHUNK_LINES)) - 16 + rng.randrange(48)
        return rng.randrange(LINES)

    kinds = (
        ["write"] * 6 + ["stream", "read", "read", "force", "advance",
                         "tamper", "glitch", "tamper_mac"]
    )
    for _ in range(MIX_OPS):
        kind = rng.choice(kinds)
        where = max(0, line())
        if kind == "write":
            ops.append(("write", where, rng.choice((1, 1, 2, 3, 8, 16, 40, 64, 130)),
                        rng.randrange(256)))
        elif kind == "stream":
            ops.append(("stream", rng.randrange(REGION // CHUNK_BYTES), rng.randrange(256)))
        elif kind == "read":
            ops.append(("read", where, rng.choice((1, 8))))
        elif kind == "force":
            ops.append(("force", where, rng.choice((64, 512, 4096, CHUNK_BYTES))))
        elif kind == "advance":
            ops.append(("advance", rng.choice((100, 20_000))))
        elif kind == "tamper":
            ops.append(("tamper", where, rng.randrange(8)))
        else:
            ops.append((kind, where))
    return ops


def apply_op(memory: SecureMemory, op) -> object:
    """Apply one op; ``None``, a read's data digest or the error raised."""
    kind, where = op[0], op[1]
    addr = where * CACHELINE_BYTES
    try:
        if kind in ("write", "stream"):
            if kind == "write":
                count = op[2]
                addr = min(where, LINES - count) * CACHELINE_BYTES
            else:
                addr = where * CHUNK_BYTES
                fine = memory.granularity_of(addr) == CACHELINE_BYTES
                count = CHUNK_LINES if fine else 16
            memory.write(addr, bytes([op[-1]]) * (count * CACHELINE_BYTES))
        elif kind == "read":
            addr = min(where, LINES - op[2]) * CACHELINE_BYTES
            data = memory.read(addr, op[2] * CACHELINE_BYTES)
            return hashlib.sha256(data).hexdigest()
        elif kind == "force":
            memory.force_granularity(addr, op[2])
        elif kind == "advance":
            memory.advance(where)
        elif kind == "tamper":
            memory.tamper_data(addr, flip_mask=1 << op[2])
        elif kind == "glitch":
            memory.tamper_data_transient(addr)
        elif kind == "tamper_mac":
            memory.tamper_mac(addr)
        elif kind == "tamper_tree":
            memory.tree.tamper_counter(addr, level=op[2])
            memory.tree.drop_trust_cache()
        elif kind == "forge_node":
            memory.tree.replay_node(addr, ([0] * 8, bytes([op[3]]) * 8), level=op[2])
        else:
            raise ValueError(f"unknown op {op!r}")
    except (SecurityError, CounterOverflowError, KeyError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]
    return None


def state_digest(memory: SecureMemory) -> str:
    """SHA-256 over the sorted off-chip state."""
    digest = hashlib.sha256()
    for addr, line in memory.dram.lines():
        digest.update(b"D%d:" % addr + line)
    macs = memory._macs
    for addr in sorted(macs):
        digest.update(b"M%d:" % addr + macs[addr])
    tree = memory.tree
    for key in sorted(tree._payloads):
        digest.update(b"P%d,%d:" % key + repr(tree._payloads[key]).encode())
    for key in sorted(tree._macs):
        digest.update(b"N%d,%d:" % key + tree._macs[key])
    return digest.hexdigest()


def run_case(name, policy, failure_policy, counter_bits, ops) -> dict:
    memory = SecureMemory(
        REGION, keys=KEYS, policy=policy,
        failure_policy=failure_policy, counter_bits=counter_bits,
    )
    outcomes = [apply_op(memory, op) for op in ops]
    return {
        "name": name,
        "policy": policy,
        "failure_policy": failure_policy,
        "counter_bits": counter_bits,
        "ops": len(ops),
        "state": state_digest(memory),
        "root": list(memory.tree._root),
        "table": [[c, e.current, e.next] for c, e in memory.table.chunks()],
        "quarantine": sorted(memory._quarantined.items()),
        "key_epochs": sorted(memory._key_epochs.items()),
        "events": memory.events.as_dict(),
        "integrity_log": [asdict(event) for event in memory.integrity_log],
        "outcomes": outcomes,
    }


def build_report() -> dict:
    cases = []
    for policy in POLICIES:
        for counter_bits in COUNTER_BITS:
            for failure_policy in FAILURE_POLICIES:
                for seed in SEEDS:
                    cases.append(run_case(
                        f"mix-{seed}", policy, failure_policy, counter_bits, mix(seed)
                    ))
    for history in HISTORIES:
        cases.append(run_case(*history))
    return {"schema": SCHEMA, "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", default="secure_memory_state.json",
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    report = build_report()
    with open(args.json, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(report) + "\n")
    print(f"{len(report['cases'])} cases -> {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

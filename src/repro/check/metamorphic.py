"""Metamorphic relations the engine must satisfy for *any* stream.

Differential replay checks "engine == oracle"; the relations here
check the engine against *itself* under transformations that provably
cannot change functional state:

* **permutation** -- reordering accesses within a permutation group
  (distinct, previously untouched lines of one chunk, no clock advance
  inside the group) must leave data contents and both granularity
  bitmaps unchanged.  Counter values and switch counts are excluded:
  inside a group the order decides *which* access triggers a scale-up
  (``shared = max + 1`` is taken once, by whichever access applies the
  lazy switch), so they are legitimately order-dependent.
* **split/resume** -- replaying ``ops[:k]`` then ``ops[k:]`` on one
  harness must be byte-identical (full fingerprint *and* per-op
  observation records) to replaying ``ops`` in one pass: the harness
  keeps no hidden per-call state.
* **read idempotence** -- reading the same line repeatedly returns the
  same plaintext and never changes stored data.
* **coalesced writes** -- each maximal run of consecutive write ops to
  ascending adjacent lines goes to the engine as one multi-line
  ``write`` call while the oracle applies its lines one at a time:
  after each call every observable of every written line must agree
  with the oracle and every line must read back, and the end state
  must be the one a replay of one line per call leaves.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.check.differential import DifferentialHarness, DivergenceError
from repro.check.streams import Op, StreamSpec, generate_stream, touched_addrs
from repro.common.constants import CACHELINE_BYTES
from repro.common.errors import SecurityError


class MetamorphicError(AssertionError):
    """A metamorphic relation failed to hold."""


def _permute_groups(ops: Sequence[Op], seed: int) -> List[Op]:
    """Shuffle ops within each permutation group, keep everything else."""
    rng = random.Random(seed)
    out: List[Op] = []
    index = 0
    ops = list(ops)
    while index < len(ops):
        group = ops[index].group
        if group < 0:
            out.append(ops[index])
            index += 1
            continue
        end = index
        while end < len(ops) and ops[end].group == group:
            end += 1
        block = ops[index:end]
        rng.shuffle(block)
        out.extend(block)
        index = end
    return out


def check_permutation(spec: StreamSpec, variants: int = 2) -> Dict[str, object]:
    """Same-group permutations must not change functional state."""
    ops = generate_stream(spec)
    baseline = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    baseline.replay(ops)
    want = baseline.fingerprint(include_counters=False)
    for variant in range(variants):
        permuted = _permute_groups(ops, seed=spec.seed * 1000 + variant)
        harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
        harness.replay(permuted)
        got = harness.fingerprint(include_counters=False)
        if got != want:
            raise MetamorphicError(
                f"permutation variant {variant} of stream {spec.name!r} changed "
                f"functional state: {got[:16]} != {want[:16]}"
            )
    return {"relation": "permutation", "stream": spec.name, "variants": variants}


def check_split_resume(
    spec: StreamSpec, fractions: Tuple[float, ...] = (0.25, 0.5, 0.75)
) -> Dict[str, object]:
    """Splitting a replay at any point and resuming must be invisible."""
    ops = generate_stream(spec)
    one_pass = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    one_pass.replay(ops)
    want_state = one_pass.fingerprint(include_counters=True)
    want_records = one_pass.record_digest()
    for fraction in fractions:
        split = max(1, min(len(ops) - 1, int(len(ops) * fraction)))
        resumed = DifferentialHarness(spec.region_bytes, seed=spec.seed)
        resumed.replay(ops[:split])
        resumed.replay(ops[split:])
        if resumed.fingerprint(include_counters=True) != want_state:
            raise MetamorphicError(
                f"split at {split}/{len(ops)} changed the end state of "
                f"stream {spec.name!r}"
            )
        if resumed.record_digest() != want_records:
            raise MetamorphicError(
                f"split at {split}/{len(ops)} changed the observation records "
                f"of stream {spec.name!r}"
            )
    return {
        "relation": "split-resume",
        "stream": spec.name,
        "splits": len(fractions),
    }


def check_read_idempotence(spec: StreamSpec, samples: int = 16) -> Dict[str, object]:
    """Repeated reads of one line return identical plaintext."""
    ops = generate_stream(spec)
    harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    harness.replay(ops)
    rng = random.Random(spec.seed ^ 0x1DE0)
    addrs = touched_addrs(ops)
    rng.shuffle(addrs)
    for addr in addrs[:samples]:
        data_before = dict(harness.oracle.data)
        first = harness.engine.read(addr, 64)
        harness.oracle.read(addr)
        second = harness.engine.read(addr, 64)
        harness.oracle.read(addr)
        if first != second:
            raise MetamorphicError(
                f"re-reading 0x{addr:x} in stream {spec.name!r} returned "
                "different plaintext"
            )
        if harness.oracle.data != data_before:
            raise MetamorphicError(
                f"reading 0x{addr:x} in stream {spec.name!r} mutated stored data"
            )
    return {
        "relation": "read-idempotence",
        "stream": spec.name,
        "samples": min(samples, len(addrs)),
    }


def _write_calls(ops: Sequence[Op]) -> List[List[Op]]:
    """Split ``ops`` into calls: each maximal run of consecutive writes
    to ascending adjacent lines is one call, every other op its own."""
    calls: List[List[Op]] = []
    for op in ops:
        last = calls[-1][-1] if calls else None
        if (
            op.kind == "write"
            and last is not None
            and last.kind == "write"
            and op.addr == last.addr + CACHELINE_BYTES
        ):
            calls[-1].append(op)
        else:
            calls.append([op])
    return calls


def check_coalesced_writes(spec: StreamSpec) -> Dict[str, object]:
    """Coalescing adjacent writes into one ``write`` call is invisible.

    Every multi-line call is followed by a read of each of its lines on
    both replays, so the read-backs are part of the compared history.
    """
    coalesced = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    one_line = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    merged = 0
    for call in _write_calls(generate_stream(spec)):
        read_back = [Op("read", op.addr) for op in call] if len(call) > 1 else []
        try:
            if read_back:
                coalesced.write_run(call)
                merged += 1
            else:
                coalesced.replay(call)
            coalesced.replay(read_back)
        except (DivergenceError, SecurityError) as exc:
            raise MetamorphicError(
                f"coalesced writes of stream {spec.name!r}, call of "
                f"{len(call)} line(s) at 0x{call[0].addr:x}: {exc}"
            ) from exc
        one_line.replay(call + read_back)
    if coalesced.fingerprint() != one_line.fingerprint():
        raise MetamorphicError(
            f"coalesced writes changed the end state of stream {spec.name!r}"
        )
    return {"relation": "coalesced-writes", "stream": spec.name, "calls": merged}

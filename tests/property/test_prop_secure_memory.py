"""Stateful property tests: SecureMemory matches a reference model.

A plain dict is the reference; random interleavings of aligned writes,
reads and granularity-affecting streams must always agree with it, and
any single off-chip mutation must be detected by the next covering
read.  A multi-line write must also leave exactly the state that
writing its lines one call at a time leaves, and after a quarantine a
fresh write of every healable line must succeed.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES
from repro.common.errors import CounterOverflowError, QuarantineError, SecurityError
from repro.crypto.keys import KeySet
from repro.secure_memory import SecureMemory

KEYS = KeySet.from_seed(b"stateful")
REGION = 256 * 1024  # 8 chunks: big enough for promotion, fast enough

line_indices = st.integers(min_value=0, max_value=REGION // 64 - 1)
payload_bytes = st.integers(min_value=0, max_value=255)

write_ops = st.tuples(st.just("write"), line_indices, payload_bytes)
read_ops = st.tuples(st.just("read"), line_indices, st.just(0))
stream_ops = st.tuples(
    st.just("stream"),
    st.integers(min_value=0, max_value=REGION // CHUNK_BYTES - 1),
    payload_bytes,
)
operations = st.lists(
    st.one_of(write_ops, read_ops, stream_ops), min_size=1, max_size=25
)


def apply_ops(memory, reference, ops):
    for op, where, value in ops:
        if op == "write":
            addr = where * CACHELINE_BYTES
            data = bytes([value]) * CACHELINE_BYTES
            memory.write(addr, data)
            reference[where] = data
        elif op == "read":
            addr = where * CACHELINE_BYTES
            expected = reference.get(where, bytes(CACHELINE_BYTES))
            assert memory.read(addr, CACHELINE_BYTES) == expected
        else:  # stream a whole chunk (drives promotion)
            base = where * CHUNK_BYTES
            data = bytes([value]) * CHUNK_BYTES
            memory.write(base, data)
            for line in range(CHUNK_BYTES // CACHELINE_BYTES):
                reference[base // 64 + line] = data[:CACHELINE_BYTES]


class TestAgainstReferenceModel:
    @settings(max_examples=12, deadline=None)
    @given(operations)
    def test_multigranular_matches_reference(self, ops):
        memory = SecureMemory(REGION, keys=KEYS, policy="multigranular")
        reference = {}
        apply_ops(memory, reference, ops)
        for line, expected in reference.items():
            assert memory.read(line * 64, 64) == expected

    @settings(max_examples=12, deadline=None)
    @given(operations)
    def test_fixed_matches_reference(self, ops):
        memory = SecureMemory(REGION, keys=KEYS, policy="fixed")
        reference = {}
        apply_ops(memory, reference, ops)
        for line, expected in reference.items():
            assert memory.read(line * 64, 64) == expected


class TestTamperAlwaysDetected:
    @settings(max_examples=12, deadline=None)
    @given(operations, st.integers(min_value=0, max_value=7))
    def test_data_tamper_after_any_history(self, ops, byte_offset):
        memory = SecureMemory(REGION, keys=KEYS, policy="multigranular")
        reference = {}
        apply_ops(memory, reference, ops)
        written = [line for line in reference if any(reference[line])]
        if not written:
            return
        victim = written[0]
        memory.tamper_data(victim * 64, flip_mask=1 << byte_offset)
        with pytest.raises(SecurityError):
            memory.read(victim * 64, 64)

    @settings(max_examples=12, deadline=None)
    @given(operations)
    def test_mac_tamper_after_any_history(self, ops):
        memory = SecureMemory(REGION, keys=KEYS, policy="multigranular")
        reference = {}
        apply_ops(memory, reference, ops)
        written = [line for line in reference if any(reference[line])]
        if not written:
            return
        victim = written[-1]
        memory.tamper_mac(victim * 64)
        with pytest.raises(SecurityError):
            memory.read(victim * 64, 64)


# -- one k-line write == k one-line writes -----------------------------------

SPLIT_REGION = 4 * CHUNK_BYTES
SPLIT_LINES = SPLIT_REGION // CACHELINE_BYTES
# Half the draws land in the first 8 KB, so histories revisit regions.
split_lines = st.one_of(
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=SPLIT_LINES - 1),
)
split_writes = st.tuples(
    st.just("write"), split_lines,
    st.sampled_from([1, 2, 3, 8, 16, 64]), payload_bytes,
)
split_history = st.lists(
    st.one_of(
        split_writes,
        split_writes,
        split_writes,
        st.tuples(
            st.just("stream"),
            st.integers(min_value=0, max_value=SPLIT_REGION // CHUNK_BYTES - 1),
            payload_bytes,
        ),
        st.tuples(
            st.just("force"), split_lines,
            st.sampled_from([64, 512, 4096, 4096, CHUNK_BYTES]),
        ),
        st.tuples(st.just("read"), split_lines, st.sampled_from([1, 8])),
        st.tuples(st.just("advance"), st.sampled_from([100, 20_000])),
        st.tuples(st.just("tamper"), split_lines, st.integers(0, 7)),
        st.tuples(st.just("glitch"), split_lines),
        st.tuples(st.just("tamper_mac"), split_lines),
        st.tuples(st.just("tamper_tree"), split_lines, st.integers(0, 2)),
    ),
    min_size=4,
    max_size=16,
)


def engine_state(memory):
    """Every piece of on- and off-chip state a write can change."""
    tree = memory.tree
    return {
        "dram": dict(memory.dram.lines()),
        "data_macs": dict(memory._macs),
        "tree_payloads": dict(tree._payloads),
        "tree_macs": dict(tree._macs),
        "tree_root": list(tree._root),
        "tree_trusted": dict(tree._trusted),
        "table": [(c, e.current, e.next) for c, e in memory.table.chunks()],
        "events": memory.events.as_dict(),
        "integrity_log": list(memory.integrity_log),
        "quarantine": dict(memory._quarantined),
        "key_epochs": dict(memory._key_epochs),
    }


def outcome(action):
    """``None``, or the (type, message) of the error ``action`` raised."""
    try:
        action()
    except (SecurityError, CounterOverflowError, KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def split_write(memory, addr, data):
    for off in range(0, len(data), CACHELINE_BYTES):
        memory.write(addr + off, data[off : off + CACHELINE_BYTES])


def apply_step(memory, op, write):
    """Apply one history step, writing through ``write``; its outcome."""
    kind, where = op[0], op[1]
    addr = where * CACHELINE_BYTES
    if kind in ("write", "stream"):
        if kind == "write":
            count = op[2]
            addr = min(where, SPLIT_LINES - count) * CACHELINE_BYTES
        else:
            addr = where * CHUNK_BYTES
            # 512 one-line rewrites of a promoted chunk take seconds;
            # a stream into a coarse chunk writes its first lines only.
            fine = memory.granularity_of(addr) == CACHELINE_BYTES
            count = CHUNK_BYTES // CACHELINE_BYTES if fine else 16
        data = bytes([op[-1]]) * (count * CACHELINE_BYTES)
        return outcome(lambda: write(memory, addr, data))
    if kind == "read":
        addr = min(where, SPLIT_LINES - op[2]) * CACHELINE_BYTES
        return outcome(lambda: memory.read(addr, op[2] * CACHELINE_BYTES))
    if kind == "force":
        return outcome(lambda: memory.force_granularity(addr, op[2]))
    if kind == "tamper_mac":
        return outcome(lambda: memory.tamper_mac(addr))
    if kind == "advance":
        memory.advance(where)
    elif kind == "tamper":
        memory.tamper_data(addr, flip_mask=1 << op[2])
    elif kind == "glitch":
        memory.tamper_data_transient(addr)
    else:
        memory.tree.tamper_counter(addr, level=op[2])
        memory.tree.drop_trust_cache()
    return None


class TestSplitWriteEquivalence:
    """Sealing once per ``write`` call is invisible: a k-line write leaves
    exactly the state of k one-line writes, whatever came before."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["fixed", "multigranular"]),
        st.sampled_from(["raise", "quarantine", "retry-then-quarantine"]),
        st.sampled_from([6, 64]),
        split_history,
    )
    # Counter overflow in the middle of a run, then a glitch and a
    # tamper caught by the first line a later write opens.
    @example(
        "multigranular", "retry-then-quarantine", 6,
        [
            ("force", 0, 4096), ("write", 0, 64, 7), ("write", 3, 64, 9),
            ("glitch", 5), ("write", 2, 16, 1), ("tamper", 70, 0),
            ("write", 60, 16, 3),
        ],
    )
    # Tracker-driven promotion, a run that ends at a chunk boundary, and
    # a tamper between two writes under the raise policy.
    @example(
        "multigranular", "raise", 64,
        [
            ("stream", 0, 1), ("write", 500, 16, 2), ("tamper", 3, 0),
            ("write", 0, 8, 5), ("stream", 1, 4), ("write", 510, 4, 6),
        ],
    )
    # Reads mark partition 1 as streamed; the write's lazy switch there
    # revives tree nodes its first 8 lines changed but have not sealed.
    @example(
        "multigranular", "raise", 64,
        [
            ("read", 8, 8), ("advance", 20_000), ("read", 600, 1),
            ("write", 0, 16, 3),
        ],
    )
    # The stream's scale-up lands the shared counter on the 6-bit limit,
    # so the triggering line's bump overflows inside the run the switch
    # handed over: the overflow handler must seal it as the switch would.
    @example(
        "multigranular", "raise", 6,
        [("write", 0, 1, 1)] * 61 + [("stream", 0, 2)],
    )
    # A glitch staged on a line the stream then seals at 64B: the scale-up
    # reads the line back, so it must meet the glitch, as it does when
    # every line is its own call.
    @example(
        "multigranular", "raise", 64,
        [("write", 0, 8, 1), ("glitch", 3), ("stream", 0, 2)],
    )
    def test_one_write_matches_line_by_line_writes(
        self, policy, failure_policy, counter_bits, history
    ):
        whole, split = (
            SecureMemory(
                SPLIT_REGION, keys=KEYS, policy=policy,
                failure_policy=failure_policy, counter_bits=counter_bits,
            )
            for _ in range(2)
        )
        for op in history:
            assert apply_step(whole, op, SecureMemory.write) == apply_step(
                split, op, split_write
            ), op
            assert engine_state(whole) == engine_state(split), op


# -- after a quarantine, a fresh write heals every healable line -------------


class TestHealLiveness:
    """A quarantine revives each line's counter at the region's shared
    value, which may sit at the counter limit; a fresh write of every
    healable line must still succeed and read back.  The equivalence
    property above cannot see a heal that never succeeds: a one-call and
    a line-by-line write fail alike."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=8),
        st.sampled_from([512, 4096, CHUNK_BYTES, "stream"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=CHUNK_BYTES // CACHELINE_BYTES - 1),
        st.sampled_from([1, 3, 8]),
    )
    # Stream a chunk, write 60 more lines (shared counter 63, the 6-bit
    # limit), tamper line 0, heal three lines per write.
    @example(6, "stream", 0, 0, 3)
    def test_every_healable_line_heals(
        self, counter_bits, promotion, headroom, victim, lines_per_write
    ):
        memory = SecureMemory(
            SPLIT_REGION, keys=KEYS, failure_policy="quarantine",
            counter_bits=counter_bits,
        )
        if promotion == "stream":
            memory.write(0, bytes([1]) * CHUNK_BYTES)
        else:
            memory.force_granularity(0, promotion)
        size = memory.granularity_of(0)
        target = (1 << counter_bits) - 1 - headroom
        # Each line of one write bumps the shared counter once.
        while memory.counter_value(0) < target:
            bumps = min(size // CACHELINE_BYTES, target - memory.counter_value(0))
            memory.write(0, bytes([2]) * (bumps * CACHELINE_BYTES))
        victim_addr = victim * CACHELINE_BYTES % size
        memory.tamper_data(victim_addr)
        with pytest.raises(QuarantineError):
            memory.read(victim_addr, CACHELINE_BYTES)
        assert memory.quarantined_lines() == list(range(0, size, CACHELINE_BYTES))

        data = bytes(range(256)) * (size // 256)
        step = lines_per_write * CACHELINE_BYTES
        for addr in range(0, size, step):
            memory.write(addr, data[addr : addr + step])
        assert memory.quarantined_lines() == []
        memory.tree.drop_trust_cache()
        assert memory.read(0, size) == data

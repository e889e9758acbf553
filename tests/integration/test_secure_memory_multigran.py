"""Multi-granular functional behaviour: promotion, demotion, merged MACs."""

from collections import Counter

import pytest

from repro.common.constants import CHUNK_BYTES, GRANULARITIES
from repro.common.errors import IntegrityError, QuarantineError, SecurityError
from repro.crypto.keys import KeySet
from repro.secure_memory import SecureMemory

REGION = 1 << 20
CHUNK_DATA = bytes(range(256)) * (CHUNK_BYTES // 256)


@pytest.fixture()
def memory(keys):
    return SecureMemory(REGION, keys=keys, policy="multigranular")


def stream_chunk(memory, base=0, data=CHUNK_DATA):
    memory.write(base, data)


def count_calls(monkeypatch, names, kernels=None):
    """Count calls of module globals, through the names a profiler wraps.

    ``names`` maps a module attribute name to its owning module; the
    returned counter fills as the wrapped functions are called.
    ``kernels`` maps a batched kernel's attribute name to its owning
    module and the per-line function it stands for: a kernel call that
    returns n lines counts as n calls of that function.
    """
    counts = Counter()

    def wrap(owner, name, counted, per_line):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[counted] += len(result) if per_line else 1
            return result

        monkeypatch.setattr(owner, name, wrapper)

    for name, owner in names.items():
        wrap(owner, name, name, per_line=False)
    for name, (owner, counted) in (kernels or {}).items():
        wrap(owner, name, counted, per_line=True)
    return counts


def crypto_kernels():
    """The engine's batched pad and line-MAC kernels, for ``count_calls``."""
    from repro.secure_memory import engine

    return {
        "encrypt_lines": (engine, "generate_otp"),
        "line_macs": (engine, "compute_mac"),
    }


def nothing_deferred(memory):
    """No tree node waits for its seal or its freshness climb and the
    write buffer holds no region."""
    return (
        not memory._buffer
        and not memory.tree._unsealed
        and not memory.tree._counts
    )


class TestPromotion:
    def test_full_stream_promotes_to_chunk_granularity(self, memory):
        stream_chunk(memory)
        assert memory.granularity_of(0) == GRANULARITIES[3]

    def test_promoted_data_survives(self, memory):
        stream_chunk(memory)
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_promotion_is_per_chunk(self, memory):
        stream_chunk(memory, base=0)
        assert memory.granularity_of(CHUNK_BYTES) == GRANULARITIES[0]

    def test_partition_stream_promotes_to_512(self, memory):
        base = 2 * CHUNK_BYTES
        # Stream one 512B partition repeatedly within the window.
        for _ in range(3):
            memory.write(base, b"p" * 512)
        memory.advance(20_000)  # expire the tracker entry
        memory.write(base + CHUNK_BYTES, b"x" * 64)  # unrelated access
        memory.write(base, b"q" * 512)
        assert memory.granularity_of(base) in (
            GRANULARITIES[1],
            GRANULARITIES[2],
        )
        assert memory.read(base, 512) == b"q" * 512

    def test_rewrite_of_promoted_chunk_still_roundtrips(self, memory):
        stream_chunk(memory)
        stream_chunk(memory, data=bytes(reversed(CHUNK_DATA)))
        assert memory.read(0, CHUNK_BYTES) == bytes(reversed(CHUNK_DATA))

    def test_partial_write_into_promoted_chunk(self, memory):
        stream_chunk(memory)
        memory.write(64, b"!" * 64)
        expected = CHUNK_DATA[:64] + b"!" * 64 + CHUNK_DATA[128:]
        assert memory.read(0, CHUNK_BYTES) == expected


class TestMergedMacSecurity:
    def test_tamper_any_line_of_promoted_chunk_detected(self, memory):
        stream_chunk(memory)
        assert memory.granularity_of(0) == GRANULARITIES[3]
        memory.tamper_data(64 * 300)
        with pytest.raises(SecurityError):
            memory.read(0, 64)  # any read verifies the merged MAC

    def test_tamper_merged_mac_detected(self, memory):
        stream_chunk(memory)
        memory.tamper_mac(0)
        with pytest.raises(SecurityError):
            memory.read(0, 64)

    def test_replay_of_promoted_region_line_detected(self, memory):
        stream_chunk(memory)
        old_line = memory.dram.snapshot_line(0)
        stream_chunk(memory, data=bytes(reversed(CHUNK_DATA)))
        memory.dram.replay_line(0, old_line)
        with pytest.raises(SecurityError):
            memory.read(0, 64)

    def test_shared_counter_used_by_whole_region(self, memory):
        stream_chunk(memory)
        level = GRANULARITIES.index(memory.granularity_of(0))
        shared = memory.tree.read_counter(0, level=level)
        assert shared > 0


class TestReadPath:
    """A read verifies each covering region once and decrypts only what
    it returns.  Calls are counted through the module names a profiler
    wraps: the engine's MAC imports and the OTP module's pad function,
    plus one per line of the engine's batched pad and MAC kernels.
    """

    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro.crypto import otp
        from repro.secure_memory import engine

        return count_calls(
            monkeypatch,
            {"compute_mac": engine, "nested_mac": engine, "generate_otp": otp},
            crypto_kernels(),
        )

    def test_64b_read_of_promoted_region_verifies_all_decrypts_one(
        self, memory, calls
    ):
        stream_chunk(memory)
        assert memory.granularity_of(0) == CHUNK_BYTES
        calls.clear()
        assert memory.read(64 * 17, 64) == CHUNK_DATA[64 * 17 : 64 * 18]
        assert calls == {"compute_mac": 512, "nested_mac": 1, "generate_otp": 1}

    def test_whole_chunk_read_verifies_the_region_once(self, memory, calls):
        stream_chunk(memory)
        calls.clear()
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA
        assert calls == {
            "compute_mac": 512, "nested_mac": 1, "generate_otp": 512,
        }

    @pytest.mark.parametrize("granularity, window", [(4096, 64), (CHUNK_BYTES, 8)])
    def test_failed_region_read_probes_within_a_line_budget(
        self, memory, calls, granularity, window
    ):
        memory.force_granularity(0, granularity)
        for _ in range(2):  # the shared counter passes every window
            memory.write(0, CHUNK_DATA[:granularity])
        assert memory.counter_value(0) > 64
        memory.tamper_data(64 * 5)
        calls.clear()
        with pytest.raises(IntegrityError):
            memory.read(0, 64)
        # One verify, then the replay probe: at most 4096 line MACs,
        # so 64 older counters for a 4 KB region and 8 for 32 KB.
        lines = granularity // 64
        assert calls["compute_mac"] == lines * (1 + window)
        assert calls["nested_mac"] == 1 + window

    def test_tamper_between_two_reads_caught_by_the_second(self, memory):
        stream_chunk(memory)
        assert memory.read(0, 64) == CHUNK_DATA[:64]
        memory.tamper_data(64 * 200)
        with pytest.raises(IntegrityError):
            memory.read(0, 64)

    @pytest.mark.parametrize("policy", ["raise", "quarantine"])
    def test_multi_line_read_catches_a_tamper_past_its_first_line(
        self, keys, policy
    ):
        memory = SecureMemory(REGION, keys=keys, failure_policy=policy)
        stream_chunk(memory)
        memory.tamper_data(64 * 300)
        if policy == "raise":
            with pytest.raises(IntegrityError):
                memory.read(0, 1024)
            return
        with pytest.raises(QuarantineError):
            memory.read(0, 1024)
        assert memory.is_quarantined(0) and memory.is_quarantined(64 * 300)


class TestWritePath:
    """A write seals each changed tree node once and each region it
    buffers once per flush, and nothing deferred outlives the call.
    Calls are counted as in TestReadPath, plus the tree's node-MAC
    import.
    """

    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro.crypto import otp
        from repro.secure_memory import engine
        from repro.tree import integrity_tree

        return count_calls(
            monkeypatch,
            {
                "compute_mac": engine,
                "nested_mac": engine,
                "generate_otp": otp,
                "node_mac": integrity_tree,
            },
            crypto_kernels(),
        )

    def test_fresh_chunk_write_seals_each_changed_node_once(self, keys, calls):
        memory = SecureMemory(2 << 20, keys=keys, policy="fixed")
        memory.write(0, CHUNK_DATA)
        # 74 changed nodes (64 + 8 + 1 + 1 below the root): one verify
        # of each pristine node and one seal each, not 4 seals per line.
        assert calls["node_mac"] == 148
        assert memory.tree.verifications == memory.tree.node_fetches == 74
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_fresh_chunk_put_seals_the_promoted_region_once(self, memory, calls):
        memory.write(0, CHUNK_DATA)
        assert memory.granularity_of(0) == CHUNK_BYTES
        # 511 fine lines wait in the write buffer; the scale-up at the
        # 512th takes their plaintexts from it, and the promoted region
        # is sealed once, when the call flushes the buffer: each line
        # gets one pad and one MAC, as under the fixed policy.
        assert calls["generate_otp"] == calls["compute_mac"] == 512
        assert calls["nested_mac"] == 1
        assert memory.counter_value(0) == 3
        assert nothing_deferred(memory)
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_fixed_chunk_put_seals_each_line_once(self, keys, calls):
        memory = SecureMemory(REGION, keys=keys, policy="fixed")
        memory.write(0, CHUNK_DATA)
        assert calls["generate_otp"] == calls["compute_mac"] == 512
        assert calls["nested_mac"] == 0
        assert nothing_deferred(memory)
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_fixed_chunk_put_climbs_once_per_leaf_node(self, keys, monkeypatch):
        from repro.tree.integrity_tree import CounterTree

        memory = SecureMemory(REGION, keys=keys, policy="fixed")
        calls = count_calls(
            monkeypatch, {"increment_counter": CounterTree, "_commit": CounterTree}
        )
        memory.write(0, CHUNK_DATA)
        # One update per line, but one climb per leaf node: the other
        # 7 updates of each leaf write back and climb once, at seal.
        assert calls == {"increment_counter": 512, "_commit": 64}
        assert nothing_deferred(memory)
        memory.tree.drop_trust_cache()
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_overflow_in_the_handed_off_region_seals_it_first(self, keys):
        memory = SecureMemory(REGION, keys=keys, counter_bits=6)
        for _ in range(61):
            memory.write(0, b"\x01" * 64)
        # The stream takes line 0 to 62, so the scale-up's shared counter
        # is 63, the limit: the 512th line's bump overflows before it
        # joins the region the switch left in the buffer, and the
        # overflow handler must seal that region as the switch used to.
        stream_chunk(memory)
        assert memory.events.get("counter_overflows") == 1
        assert (memory.key_epoch(0), memory.counter_value(0)) == (1, 2)
        assert nothing_deferred(memory)
        memory.tree.drop_trust_cache()
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    @pytest.mark.parametrize("size", [4096, CHUNK_BYTES])
    def test_promoted_rewrite_opens_and_seals_the_region_once(
        self, memory, calls, size
    ):
        stream_chunk(memory)
        assert memory.granularity_of(0) == CHUNK_BYTES
        before = memory.counter_value(0)
        calls.clear()
        memory.write(0, b"r" * size)
        assert (calls["compute_mac"], calls["nested_mac"]) == (1024, 2)
        assert calls["generate_otp"] == 1024
        # The shared counter still advances once per line.
        assert memory.counter_value(0) == before + size // 64
        assert memory.read(0, CHUNK_BYTES) == b"r" * size + CHUNK_DATA[size:]

    def test_scale_up_takes_a_buffered_coarse_region(self, memory, calls):
        memory.force_granularity(64 * 448, 4096)  # last 4 KB group only
        calls.clear()
        # Lines 448-510 join the 4 KB region the write buffered at line
        # 448 (opened once: 64 MACs, 1 fold, 64 pads); line 511 fills
        # the tracker entry and scales the chunk up to 32 KB, which
        # takes that region and lines 0-447 from the buffer instead of
        # sealing and re-opening them.  The promoted region is sealed
        # once: 512 pads, 512 MACs, 1 fold.
        stream_chunk(memory)
        assert memory.granularity_of(0) == CHUNK_BYTES
        assert calls["generate_otp"] == calls["compute_mac"] == 576
        assert calls["nested_mac"] == 2
        assert nothing_deferred(memory)
        assert memory.read(0, CHUNK_BYTES) == CHUNK_DATA

    def test_nothing_deferred_after_a_write_returns(self, memory):
        stream_chunk(memory)
        memory.write(64 * 500, b"s" * 64 * 24)  # promoted region, then fine
        assert nothing_deferred(memory)
        memory.tree.drop_trust_cache()  # every seal verifies off-chip
        assert memory.read(64 * 500, 64 * 24) == b"s" * 64 * 24

    def test_nothing_deferred_after_an_overflow_mid_run(self, keys):
        memory = SecureMemory(REGION, keys=keys, counter_bits=6)
        stream_chunk(memory)
        # 512 bumps of a 6-bit counter: the tree raises overflow inside
        # the buffered region, which is sealed before the chunk is
        # re-encrypted.
        memory.write(0, b"o" * CHUNK_BYTES)
        assert memory.events.get("counter_overflows") >= 1
        assert memory.key_epoch(0) >= 1
        assert nothing_deferred(memory)
        memory.tree.drop_trust_cache()
        assert memory.read(0, CHUNK_BYTES) == b"o" * CHUNK_BYTES

    def test_nothing_deferred_after_a_tamper_raises(self, memory):
        stream_chunk(memory)
        stream_chunk(memory, base=CHUNK_BYTES)
        memory.tamper_data(CHUNK_BYTES + 64 * 7)
        with pytest.raises(IntegrityError):
            memory.write(CHUNK_BYTES - 64 * 4, b"t" * 64 * 8)
        assert nothing_deferred(memory)
        memory.tree.drop_trust_cache()
        assert memory.read(CHUNK_BYTES - 64 * 4, 64 * 4) == b"t" * 64 * 4

    def test_tamper_between_two_writes_caught_by_the_second(self, memory):
        stream_chunk(memory)
        memory.write(0, b"1" * 64 * 8)
        memory.tamper_data(64 * 200)
        with pytest.raises(IntegrityError):
            memory.write(64 * 8, b"2" * 64 * 8)
        assert nothing_deferred(memory)


class TestSwitchAccounting:
    def test_switch_events_recorded(self, memory):
        stream_chunk(memory)
        assert memory.switches >= 1
        assert memory.switching.total_switches == memory.switches

    def test_correct_prediction_dominates(self, memory):
        stream_chunk(memory)
        stream_chunk(memory)
        ratios = memory.switching.ratios()
        assert ratios["correct_prediction"] > 0.9

    def test_fixed_policy_never_switches(self, keys):
        memory = SecureMemory(REGION, keys=keys, policy="fixed")
        memory.write(0, CHUNK_DATA)
        assert memory.switches == 0
        assert memory.granularity_of(0) == GRANULARITIES[0]


class TestPolicyValidation:
    def test_unknown_policy_rejected(self, keys):
        with pytest.raises(ValueError):
            SecureMemory(REGION, keys=keys, policy="magic")

"""Property-based tests: crypto primitives and the functional tree."""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.common.errors import ReproError, SecurityError
from repro.crypto.keys import KeySet, keyed_blake2b
from repro.crypto.mac import compute_mac, nested_mac, pack_counters
from repro.crypto.otp import decrypt_line, encrypt_line, xor_bytes
from repro.tree.geometry import TreeGeometry
from repro.tree.integrity_tree import CounterTree
from tests.unit.test_errors_overflow import pin_root_counter

KEYS = KeySet.from_seed(b"property-tests")

lines = st.binary(min_size=64, max_size=64)
addrs = st.integers(min_value=0, max_value=(1 << 20) - 64).map(
    lambda a: a - a % 64
)
counters = st.integers(min_value=0, max_value=2**32)


class TestOtpProperties:
    @given(lines, addrs, counters)
    def test_roundtrip(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        assert (
            decrypt_line(KEYS.encryption_key, addr, counter, ciphertext)
            == plaintext
        )

    @given(lines, addrs, counters)
    def test_encryption_is_not_identity(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        assert ciphertext != plaintext or plaintext == b""  # pad is nonzero

    @given(lines, addrs, counters)
    def test_counter_change_breaks_decryption(self, plaintext, addr, counter):
        ciphertext = encrypt_line(KEYS.encryption_key, addr, counter, plaintext)
        garbled = decrypt_line(
            KEYS.encryption_key, addr, counter + 1, ciphertext
        )
        assert garbled != plaintext


class TestMacProperties:
    @given(lines, addrs, counters)
    def test_mac_is_deterministic(self, data, addr, counter):
        assert compute_mac(KEYS.mac_key, addr, counter, data) == compute_mac(
            KEYS.mac_key, addr, counter, data
        )

    @given(st.lists(lines, min_size=1, max_size=8))
    def test_nested_mac_depends_on_every_element(self, blobs):
        macs = [
            compute_mac(KEYS.mac_key, i * 64, 0, blob)
            for i, blob in enumerate(blobs)
        ]
        merged = nested_mac(KEYS.mac_key, macs)
        for i in range(len(macs)):
            mutated = list(macs)
            mutated[i] = bytes(8)
            if mutated[i] != macs[i]:
                assert nested_mac(KEYS.mac_key, mutated) != merged


class TestFastPathsMatchReferences:
    """The optimized primitives equal their straightforward definitions."""

    @given(
        st.binary(max_size=300).flatmap(
            lambda a: st.tuples(
                st.just(a), st.binary(min_size=len(a), max_size=len(a))
            )
        )
    )
    def test_xor_bytes_matches_per_byte_xor(self, pair):
        data, pad = pair
        assert xor_bytes(data, pad) == bytes(a ^ b for a, b in zip(data, pad))

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=16))
    def test_pack_counters_matches_per_counter_bytes(self, values):
        assert pack_counters(values) == b"".join(
            v.to_bytes(8, "little") for v in values
        )

    @given(
        st.binary(min_size=1, max_size=64),
        st.sampled_from([b"repro-otp-pad00", b"repro-mac-fold0", b""]),
        st.sampled_from([8, 64]),
        st.binary(max_size=200),
    )
    def test_keyed_blake2b_matches_a_freshly_keyed_hash(
        self, key, person, size, message
    ):
        fresh = hashlib.blake2b(message, key=key, digest_size=size, person=person)
        for _ in range(2):  # a caller's updates never leak into the cache
            h = keyed_blake2b(key, person, size)
            h.update(message)
            assert h.digest() == fresh.digest()


class TestTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(addrs, min_size=1, max_size=20),
    )
    def test_increment_sequences_are_consistent(self, level, addresses):
        """Random increments at one level always read back exactly.

        The level is fixed per sequence: promoted counters *reuse*
        freshness-counter slots (Fig. 10), so counters at different
        levels of overlapping paths are intentionally not independent.
        """
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        expected = {}
        for addr in addresses:
            key = tree.geometry.counter_slot(addr, level)
            value = tree.increment_counter(addr, level=level)
            expected[key] = expected.get(key, 0) + 1
            assert value == expected[key]
        for (node, slot), count in expected.items():
            addr = (node * 8 + slot) * (64 * 8**level)
            assert tree.read_counter(addr, level=level) == count

    @settings(max_examples=15, deadline=None)
    @given(addrs, st.integers(min_value=0, max_value=2))
    def test_any_tamper_is_detected(self, addr, level):
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        tree.increment_counter(addr)
        tree.drop_trust_cache()
        tree.tamper_counter(addr, level=level)
        with pytest.raises(SecurityError):
            tree.read_counter(addr)

    @settings(max_examples=15, deadline=None)
    @given(addrs, st.integers(min_value=1, max_value=5))
    def test_any_replay_depth_is_detected(self, addr, writes_after):
        tree = CounterTree(TreeGeometry.build(1 << 20), KEYS)
        tree.increment_counter(addr)
        snapshot = tree.snapshot_node(addr)
        for _ in range(writes_after):
            tree.increment_counter(addr)
        tree.replay_node(addr, snapshot)
        tree.drop_trust_cache()
        with pytest.raises(SecurityError):
            tree.read_counter(addr)


# Line ranges of a 256 KB tree (root at level 3).  A level-l counter is
# also the freshness counter of a level l-1 child, and the engine never
# bumps one while an update of that child waits for its seal (see
# ``CounterTree._bump``).  So increments at level l, and sets at level l
# or above, go to region l, whose nodes below level 3 no other level's
# updates touch.  Most lines fall in the first few nodes of a region, so
# nodes repeat within a scope.
TREE_REGION = 256 * 1024
REGIONS = {0: (0, 2048), 1: (2048, 3072), 2: (3072, 4096)}
LIMIT = 2**64 - 1


def region_addrs(level):
    low, high = REGIONS[level]
    hot = min(32 * 8**level, high - low)
    return st.one_of(
        st.integers(low, low + hot - 1), st.integers(low, high - 1)
    ).map(lambda line: line * 64)


tree_addrs = st.one_of(
    st.integers(0, 31), st.integers(0, TREE_REGION // 64 - 1)
).map(lambda line: line * 64)
increments = st.integers(0, 2).flatmap(
    lambda level: st.tuples(st.just("inc"), region_addrs(level), st.just(level))
)
# A run of increments of consecutive counters, as one write makes.
runs = st.integers(0, 2).flatmap(
    lambda level: st.tuples(
        st.just("run"), region_addrs(level), st.just(level), st.integers(2, 24)
    )
)
sets = st.integers(0, 2).flatmap(
    lambda region: st.tuples(
        st.just("set"), region_addrs(region), st.integers(region, 3),
        st.sampled_from([0, 1, 2, 5, LIMIT - 2, LIMIT]), st.booleans(),
    )
)
tree_history = st.lists(
    st.one_of(
        increments,
        increments,
        runs,
        runs,
        st.tuples(st.just("read"), tree_addrs, st.integers(0, 3)),
        sets,
        st.tuples(st.just("prune"), tree_addrs, st.integers(1, 2)),
        st.tuples(st.just("tamper"), tree_addrs, st.integers(0, 2), st.integers(1, 3)),
        st.tuples(st.just("snapshot"), tree_addrs, st.integers(0, 2)),
        st.tuples(st.just("replay"), tree_addrs, st.integers(0, 2), st.integers(0, 7)),
        st.tuples(st.just("drop"), st.just(0)),
        st.tuples(st.just("pin"), tree_addrs, st.integers(0, 4)),
    ),
    min_size=1,
    max_size=40,
)


def tree_step(tree, op, snapshots):
    """Apply one op; its result, or the (type, message) it raised."""
    kind, addr = op[0], op[1]
    try:
        if kind == "inc":
            return tree.increment_counter(addr, level=op[2])
        if kind == "run":
            level = op[2]
            step = 64 * 8**level
            end = min(addr + op[3] * step, REGIONS[level][1] * 64)
            return [tree_step(tree, ("inc", a, level), snapshots)
                    for a in range(addr, end, step)]
        if kind == "read":
            return tree.read_counter(addr, level=op[2])
        if kind == "set":
            return tree.set_counter(addr, op[2], op[3], revive=op[4])
        if kind == "prune":
            return tree.prune_subtree(addr, op[2])
        if kind == "tamper":
            return tree.tamper_counter(addr, level=op[2], delta=op[3])
        if kind == "snapshot":
            snapshots.append(tree.snapshot_node(addr, level=op[2]))
            return snapshots[-1]
        if kind == "replay":
            if snapshots:
                snap = snapshots[op[3] % len(snapshots)]
                tree.replay_node(addr, snap, level=op[2])
            return None
        if kind == "drop":
            return tree.drop_trust_cache()
        # The recipe reseals the root's child: verify it into the tree.
        tree.read_counter(addr, tree.geometry.root_level - 1)
        return pin_root_counter(tree, addr, LIMIT - op[2])
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def tree_state(tree):
    return (
        dict(tree._payloads),
        list(tree._macs.items()),  # key order included
        list(tree._root),
        dict(tree._trusted),
        tree.verifications,
        tree.node_fetches,
    )


def run_tree(limit, ops, scopes, sealed):
    """Outcomes of ``ops`` and the state after each scope.

    ``sealed`` runs every op outside a write scope, so each public call
    seals before it returns; otherwise each scope's ops run with
    ``defer_seals`` set, as one ``SecureMemory.write`` call runs them.
    """
    tree = CounterTree(TreeGeometry.build(TREE_REGION), KEYS, counter_limit=limit)
    outcomes, states, snapshots = [], [], []
    start = 0
    for length in scopes + [len(ops)]:
        scope = ops[start : start + length]
        start += length
        if not scope:
            continue
        tree.defer_seals = not sealed
        for op in scope:
            outcomes.append(tree_step(tree, op, snapshots))
            if sealed:
                tree.seal()
        tree.defer_seals = False
        tree.seal()
        states.append(tree_state(tree))
    return outcomes, states


class TestWriteBackScopes:
    """The counter tree's write-back scope is invisible: running ops
    inside ``defer_seals`` scopes returns and raises what sealing after
    every op does, and leaves the same on- and off-chip tree state."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, LIMIT]),
        tree_history,
        st.lists(st.integers(1, 12), max_size=8),
    )
    # The root's freshness slot pinned at the limit inside a scope: the
    # next update climbing through it raises, as it does unscoped.
    @example(
        LIMIT,
        [("inc", 0, 0), ("inc", 64, 0), ("pin", 0, 0), ("inc", 0, 0),
         ("inc", 0, 0), ("drop", 0), ("inc", 64, 0), ("read", 0, 0)],
        [8],
    )
    # Pinned three below the limit: the repeated leaf's later updates
    # must stop writing back before their counts would reach it.
    @example(
        LIMIT,
        [("inc", 0, 0), ("pin", 0, 3)] + [("inc", 0, 0), ("inc", 64, 0)] * 3
        + [("read", 0, 1), ("read", 0, 3)],
        [10],
    )
    # Bumps past a narrow limit on a leaf that already climbed.
    @example(3, [("inc", 0, 0)] * 5 + [("read", 0, 0)], [6])
    def test_scoped_ops_match_sealing_after_every_op(self, limit, ops, scopes):
        scoped = run_tree(limit, ops, scopes, sealed=False)
        sealed = run_tree(limit, ops, scopes, sealed=True)
        assert scoped[0] == sealed[0]
        assert scoped[1] == sealed[1]

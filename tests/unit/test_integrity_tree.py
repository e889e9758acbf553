"""Functional counter tree: increments, verification, attack detection."""

import pytest

from repro.common.errors import IntegrityError, ReplayError, SecurityError
from repro.crypto.keys import KeySet
from repro.tree.geometry import TreeGeometry
from repro.tree.integrity_tree import CounterTree


@pytest.fixture()
def tree(keys):
    return CounterTree(TreeGeometry.build(1 << 20), keys)


class TestCounterLifecycle:
    def test_fresh_counters_are_zero(self, tree):
        assert tree.read_counter(0) == 0
        assert tree.read_counter(512 * 100) == 0

    def test_increment_returns_new_value(self, tree):
        assert tree.increment_counter(0) == 1
        assert tree.increment_counter(0) == 2
        assert tree.read_counter(0) == 2

    def test_counters_are_independent(self, tree):
        tree.increment_counter(0)
        assert tree.read_counter(64) == 0
        assert tree.read_counter(0) == 1

    def test_promoted_counter_levels_are_independent(self, tree):
        tree.increment_counter(0, level=0)
        # The level-1 slot of the same address is a different counter
        # (it is the freshness counter of the leaf node, which the
        # increment bumped exactly once).
        tree.increment_counter(4096, level=1)
        assert tree.read_counter(4096, level=1) == 1

    def test_set_counter(self, tree):
        tree.set_counter(0, 1, 42)
        assert tree.read_counter(0, level=1) == 42

    def test_set_counter_scale_down_pattern(self, tree):
        # Fig. 13 (b): children inherit the parent's value.  The
        # children were pruned while promoted, so they are *revived*
        # (their freshness counters advanced past any old seal).
        tree.set_counter(0, 1, 7)
        for off in range(0, 512, 64):
            tree.set_counter(off, 0, 7, revive=True)
            assert tree.read_counter(off, level=0) == 7

    def test_scale_down_without_revive_rejects_pruned_child(self, tree):
        tree.set_counter(0, 1, 7)
        with pytest.raises(SecurityError):
            tree.set_counter(0, 0, 7)

    def test_revive_preserves_currently_sealed_nodes(self, tree):
        tree.increment_counter(64)  # seals leaf node 0 under fresh chain
        tree.set_counter(0, 0, 5, revive=True)
        assert tree.read_counter(64) == 1  # sibling slot survived


class TestFreshnessChain:
    def test_increment_bumps_ancestors(self, tree):
        tree.increment_counter(0)
        # The leaf node changed, so its freshness counter (slot 0 of
        # its parent) must have advanced.
        parent_counter = tree.read_counter(0, level=1)
        assert parent_counter >= 1

    def test_trust_cache_can_be_dropped(self, tree):
        tree.increment_counter(0)
        tree.drop_trust_cache()
        assert tree.read_counter(0) == 1  # re-verified from off-chip state

    def test_verification_counts_grow(self, tree):
        before = tree.verifications
        tree.drop_trust_cache()
        tree.read_counter(0)
        assert tree.verifications > before


class TestWriteBackScope:
    """Inside a write scope a node climbs once; later updates of it move
    its trusted copy and a pending count, added up the chain at seal."""

    def test_repeated_updates_climb_once(self, tree, monkeypatch):
        climbs = []
        commit = CounterTree._commit

        def counted_commit(self, *args, **kwargs):
            climbs.append(args)
            return commit(self, *args, **kwargs)

        monkeypatch.setattr(CounterTree, "_commit", counted_commit)
        tree.defer_seals = True
        values = [tree.increment_counter(off) for off in range(0, 512, 64)]
        assert values == [1] * 8
        assert len(climbs) == 1 and tree._counts == {(0, 0): 7}
        tree.defer_seals = False
        tree.seal()
        assert not tree._counts
        # The leaf changed 8 times, so its freshness counter moved 8.
        assert tree.read_counter(0, level=1) == 8
        tree.drop_trust_cache()
        assert [tree.read_counter(off) for off in range(0, 512, 64)] == [1] * 8

    def test_reads_above_level_0_see_pending_counts(self, tree):
        tree.defer_seals = True
        for _ in range(3):
            tree.increment_counter(0)
        assert tree.read_counter(0) == 3  # the trusted leaf, no climb
        assert tree._counts
        assert tree.read_counter(0, level=1) == 3
        assert not tree._counts
        tree.defer_seals = False
        tree.seal()


class TestTamperDetection:
    def test_tampered_counter_detected(self, tree):
        tree.increment_counter(0)
        tree.tamper_counter(0)
        with pytest.raises(SecurityError):
            tree.read_counter(0)

    def test_tampered_counter_on_untouched_node_detected(self, tree):
        tree.increment_counter(0)
        tree.tamper_counter(64 * 3)  # same leaf node, other slot
        with pytest.raises(SecurityError):
            tree.read_counter(64 * 3)

    def test_tampered_mac_detected(self, tree):
        tree.increment_counter(0)
        tree.drop_trust_cache()
        tree.tamper_node_mac(0)
        with pytest.raises(IntegrityError):
            tree.read_counter(0)

    def test_tampered_intermediate_level_detected(self, tree):
        tree.increment_counter(0)
        tree.drop_trust_cache()
        tree.tamper_counter(0, level=2)
        with pytest.raises(SecurityError):
            tree.read_counter(0)

    def test_pristine_node_with_fabricated_payload_detected(self, tree):
        tree.tamper_counter(0, delta=5)
        with pytest.raises(ReplayError):
            tree.read_counter(0)


class TestReplayDetection:
    def test_replayed_node_detected_as_replay(self, tree):
        tree.increment_counter(0)
        snapshot = tree.snapshot_node(0)
        tree.increment_counter(0)
        tree.replay_node(0, snapshot)
        tree.drop_trust_cache()
        with pytest.raises(ReplayError):
            tree.read_counter(0)

    def test_replay_to_pristine_state_detected(self, tree):
        snapshot = tree.snapshot_node(0)  # all-zero, no MAC
        tree.increment_counter(0)
        tree.replay_node(0, snapshot)
        tree.drop_trust_cache()
        with pytest.raises(SecurityError):
            tree.read_counter(0)

    def test_replay_without_intervening_write_is_harmless(self, tree):
        tree.increment_counter(0)
        snapshot = tree.snapshot_node(0)
        tree.replay_node(0, snapshot)
        tree.drop_trust_cache()
        assert tree.read_counter(0) == 1  # same state, still valid


class TestCrossKeyIsolation:
    def test_trees_with_different_keys_reject_each_other(self, keys):
        geometry = TreeGeometry.build(1 << 20)
        tree_a = CounterTree(geometry, keys)
        tree_b = CounterTree(geometry, KeySet.from_seed(b"other"))
        tree_a.increment_counter(0)
        # Graft A's off-chip state onto B (attacker swaps DIMM contents).
        tree_b._payloads = tree_a._payloads
        tree_b._macs = tree_a._macs
        tree_b._root = list(tree_a._root)
        with pytest.raises(SecurityError):
            tree_b.read_counter(0)


class TestRender:
    def test_render_shows_all_levels(self, tree):
        out = tree.render()
        for level in range(tree.geometry.num_levels):
            assert f"L{level}:" in out
        assert "R" in out

    def test_render_marks_stored_and_pruned_nodes(self, tree):
        tree.increment_counter(0)
        assert "#" in tree.render()
        tree.prune_subtree(0, level=3)
        top = tree.render().splitlines()
        l0_row = next(line for line in top if line.startswith("L0:"))
        assert "#" not in l0_row

"""Functional 8-ary counter integrity tree with real verification.

This is the replay-protection substrate of the paper's baseline
(Sec. 2.2): a tree of 64B nodes, each holding 8 counters.  Counter
``j`` of a level-0 node is the version counter of data line ``8n+j``;
counter ``j`` of a level-``l>0`` node is the *freshness counter* of its
``j``-th child node.  Every node carries a MAC bound to its own
freshness counter in the parent, so rolling any node (or any data
counter) back to an old value is detected.  The root node's counters
live on-chip and are trusted.

The same object also serves the multi-granular tree of Sec. 4.3: a
*promoted* counter of granularity ``64B * 8**l`` is simply the counter
at ``(level=l, slot)`` -- the slot that would otherwise hold a child's
freshness counter now versions a whole data region, and the subtree
below it is never touched (pruned).  ``increment_counter`` /
``read_counter`` take the level as a parameter, so the baseline is the
``level=0`` special case.

Attacker primitives (`tamper_*`, `snapshot_node`, `replay_node`) mutate
the off-chip state directly, mirroring the paper's physical attacker.

Node seals are deferred, and inside a write scope so are freshness
climbs.  An update bumps the counters at once but only records which
nodes changed; :meth:`CounterTree.seal` then computes each recorded
node's MAC once, from its final payload and final freshness counter.
Outside a write scope every public call seals before it returns, so the
state after each call is exactly what resealing on every update leaves.

Inside a scope (:attr:`CounterTree.defer_seals`, set for the length of
one ``SecureMemory.write`` call) the tree is a write-back cache, as the
paper's on-chip metadata cache is.  A node's first update in the scope
climbs to the root, checked, bumping every freshness counter on the
way, and leaves the node and its ancestors in the trusted on-chip
cache.  Each later update of that node bumps only its trusted copy and
adds one to the node's pending count.  So the trusted copies move
first; the pending counts, the off-chip payload stores and the node
MACs land at the seal, where each node's summed count climbs the
freshness chain once, just before the MACs are computed.  Every reader
of off-chip tree state triggers that seal first: the attacker
primitives, ``set_counter``, ``prune_subtree`` and
``drop_trust_cache``.  A read or update at a level above a pending
count, whose slot may be that count's target, adds the counts first,
and an update of a slot that is the freshness counter of a child
updated in the scope seals first, so the child keeps the seal its last
update gave it.
Nothing is ever checked against a stale seal, and the state after the
scope is the one climbing on every update leaves.

A freshness counter at its 64-bit limit stops the update that would
wrap it.  So an update skips its climb only while every freshness
counter above the pending nodes has room for all pending counts
(``_room``); otherwise the counts are added first and the update
climbs, and raises exactly where climbing on every update raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.constants import CACHELINE_BYTES, COUNTERS_PER_LINE
from repro.common.errors import (
    ConfigError,
    CounterOverflowError,
    IntegrityError,
    ReplayError,
)
from repro.crypto.keys import KeySet
from repro.crypto.mac import macs_equal, node_mac, pack_counters
from repro.tree.geometry import TreeGeometry

#: Functional counters are 64-bit; overflow would repeat an OTP.
_COUNTER_LIMIT = 2**64 - 1

NodeId = Tuple[int, int]


class CounterTree:
    """Counter tree over one protected region (functional layer)."""

    def __init__(
        self,
        geometry: TreeGeometry,
        keys: KeySet,
        counter_limit: int = _COUNTER_LIMIT,
    ) -> None:
        if not 1 < counter_limit <= _COUNTER_LIMIT:
            raise ValueError(
                f"counter_limit {counter_limit} must be in (1, 2**64 - 1]"
            )
        self.geometry = geometry
        self.keys = keys
        #: Largest legal *data/promoted* counter value.  Narrow limits
        #: make the overflow path testable; the freshness counters of
        #: the node-seal chain always use the full 64-bit width.
        self.counter_limit = counter_limit
        #: While True, updates leave their seals to :meth:`seal`; see
        #: the module docstring.
        self.defer_seals = False
        # Off-chip, attacker-controlled state:
        self._payloads: Dict[NodeId, List[int]] = {}
        self._macs: Dict[NodeId, bytes] = {}
        # On-chip state:
        self._root: List[int] = [0] * COUNTERS_PER_LINE
        self._trusted: Dict[NodeId, List[int]] = {}
        # Nodes changed since their MAC was last computed, in the order
        # a reseal on every update would have sealed them (an ordered
        # set, so ``_macs`` gains new keys in that same order).  A node
        # in it has climbed, with its whole path, since the last seal.
        self._unsealed: Dict[NodeId, None] = {}
        # Write-back state of a scope (module docstring): node -> updates
        # not yet added up its freshness chain, their total, how many
        # more every freshness counter above those nodes can take below
        # the limit, and the lowest level holding a count (the root
        # level when none does).
        self._counts: Dict[NodeId, int] = {}
        self._pending_bumps = 0
        self._room = _COUNTER_LIMIT
        self._low = geometry.root_level
        # The climb indexes the geometry's level tables directly;
        # nodes derived from a checked node are in range.
        self._root_level = geometry.root_level
        self._arity = geometry.arity
        self._node_bases = geometry.level_tables()[2]
        # Statistics (functional-layer only; timing stats live elsewhere).
        self.verifications = 0
        self.node_fetches = 0

    # ------------------------------------------------------------------
    # Public counter interface
    # ------------------------------------------------------------------

    def read_counter(self, addr: int, level: int = 0) -> int:
        """Verified read of the counter of ``addr`` at ``level``.

        ``level=0`` reads the fine 64B counter; ``level=l`` reads the
        promoted counter of the ``64B * 8**l`` region (paper Eq. 2-3).
        """
        node, slot = self._counter_slot(addr, level)
        if level > self._low:
            self._apply_counts()
        trusted = self._trusted.get((level, node))
        if trusted is not None:
            return trusted[slot]
        return self._verified_payload(level, node)[slot]

    def increment_counter(self, addr: int, level: int = 0) -> int:
        """Increment the counter of ``addr`` at ``level``; returns it.

        Bumps the target counter and the freshness counter of every
        node on the path to the root; the changed nodes are resealed
        bottom-up before the call returns, or when the write scope
        ends (:attr:`defer_seals`).  In a scope, an update of a node
        that has already climbed bumps its trusted copy only (module
        docstring).
        """
        node, slot = self._counter_slot(addr, level)
        try:
            if self._unsealed:
                return self._bump_in_scope(level, node, slot)
            return self._bump(level, node, slot)
        finally:
            if not self.defer_seals:
                self.seal()

    def set_counter(
        self, addr: int, level: int, value: int, revive: bool = False
    ) -> None:
        """Set a counter to an explicit value (granularity switching).

        Scale-up stores ``max(child counters) + 1`` into the parent and
        scale-down copies the parent value into children (paper
        Fig. 13); both need raw assignment rather than increment.

        ``revive=True`` is for scale-down: a *pruned* child node has no
        valid seal (its freshness counter in the parent advanced while
        it was promoted away), so it is re-initialized from zeros
        instead of verified.  A node that still carries a MAC must
        verify -- reviving silently over a tampered seal would let an
        attacker roll counters back.
        """
        node, slot = self._counter_slot(addr, level)
        # Revival reads the stored seals, and a promoted counter is its
        # child's freshness counter: nothing may be pending here.
        self.seal()
        if level == self._root_level:
            # Promoted counters can land in the root itself when the
            # region is small; the root lives on-chip and needs no seal.
            self._root[slot] = value
            return
        if revive:
            payload = self._revivable_payload(level, node)
        else:
            payload = self._verified_payload(level, node)
        fresh = list(payload)
        fresh[slot] = value
        try:
            self._commit(level, node, fresh, revive=revive)
        finally:
            if not self.defer_seals:
                self.seal()

    def seal(self) -> None:
        """Compute the MAC of every node changed since the last seal.

        Each node is sealed from its current payload under its current
        freshness counter in the parent -- the MAC the last of its
        updates would have written.  Pending counts are added first.
        """
        if self._counts:
            self._apply_counts()
        unsealed = self._unsealed
        if not unsealed:
            return
        payloads = self._payloads
        macs = self._macs
        root = self._root
        root_level = self._root_level
        arity = self._arity
        bases = self._node_bases
        mac_key = self.keys.mac_key
        for level, node in unsealed:
            if level + 1 == root_level:
                parent = root
            else:
                parent = payloads[(level + 1, node // arity)]
            macs[(level, node)] = node_mac(
                mac_key,
                bases[level] + node * CACHELINE_BYTES,
                parent[node % arity],
                pack_counters(payloads[(level, node)]),
            )
        unsealed.clear()

    def _revivable_payload(self, level: int, node: int) -> List[int]:
        """Payload for a scale-down target: verified, or zeros if pruned.

        A pruned node either has no seal at all or a *stale but
        authentic* one (sealed before promotion, under an old freshness
        counter) -- both revive from zeros, since the caller overwrites
        the contents anyway.  A seal that is neither current nor stale-
        authentic is corruption and still raises.
        """
        if level == self._root_level:
            return self._root
        if (level, node) not in self._macs:
            return [0] * COUNTERS_PER_LINE
        try:
            return self._verified_payload(level, node)
        except ReplayError:
            return [0] * COUNTERS_PER_LINE

    def prune_subtree(self, addr: int, level: int) -> int:
        """Drop the pruned descendants of a promoted region (Fig. 10).

        Promotion delegates a region's versioning to the level-``level``
        counter; every node below it that covered the region becomes
        dead storage.  Returns the number of nodes reclaimed.
        """
        self.seal()
        region = CACHELINE_BYTES * (self.geometry.arity ** level)
        base = addr - addr % region
        pruned = 0
        for child_level in range(level):
            span = self.geometry.span_of_level(child_level)
            first = base // span
            last = (base + region - 1) // span
            for node in range(first, last + 1):
                existed = self._payloads.pop((child_level, node), None)
                self._macs.pop((child_level, node), None)
                self._trusted.pop((child_level, node), None)
                pruned += existed is not None
        return pruned

    @property
    def stored_nodes(self) -> int:
        """Off-chip tree nodes currently holding state."""
        return len(self._payloads)

    def metrics_into(self, registry, prefix: str = "tree") -> None:
        """Bind the tree's counters under ``prefix.*`` in a registry."""
        registry.bind(f"{prefix}.verifications", lambda: self.verifications)
        registry.bind(f"{prefix}.node_fetches", lambda: self.node_fetches)
        registry.bind(f"{prefix}.stored_nodes", lambda: self.stored_nodes)

    def render(self, max_span: int = 8) -> str:
        """ASCII sketch of the tree's stored nodes (Fig. 1/10 style).

        One row per level (root at the top); ``#`` marks a stored node,
        ``.`` an absent one (pristine or pruned).  Only the first
        ``max_span`` nodes of each level are drawn -- enough to *see*
        promotion pruning a subtree in examples and docs.
        """
        lines = []
        for level in reversed(range(self.geometry.num_levels)):
            count = self.geometry.level_counts[level]
            shown = min(count, max_span)
            if level == self.geometry.root_level:
                cells = "R" * shown
            else:
                cells = "".join(
                    "#" if (level, node) in self._payloads else "."
                    for node in range(shown)
                )
            suffix = f" (+{count - shown} more)" if count > shown else ""
            lines.append(f"L{level}: {cells}{suffix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Attacker primitives (off-chip mutation)
    # ------------------------------------------------------------------

    def tamper_counter(self, addr: int, level: int = 0, delta: int = 1) -> None:
        """Silently modify a stored counter without resealing MACs."""
        node, slot = self._counter_slot(addr, level)
        self.seal()
        payload = self._payloads.setdefault(
            (level, node), [0] * COUNTERS_PER_LINE
        )
        payload[slot] = (payload[slot] + delta) % (2**64)
        self._trusted.pop((level, node), None)

    def tamper_node_mac(self, addr: int, level: int = 0) -> None:
        """Flip a bit of a stored node MAC."""
        node, _ = self._counter_slot(addr, level)
        self.seal()
        mac = self._macs.get((level, node))
        if mac is None:
            raise KeyError(f"node ({level}, {node}) has no stored MAC yet")
        flipped = bytes([mac[0] ^ 0x01]) + mac[1:]
        self._macs[(level, node)] = flipped
        self._trusted.pop((level, node), None)

    def snapshot_node(self, addr: int, level: int = 0) -> Tuple[List[int], Optional[bytes]]:
        """Capture a node's off-chip state for a later replay."""
        node, _ = self._counter_slot(addr, level)
        self.seal()
        payload = self._payloads.get((level, node))
        return (
            list(payload) if payload is not None else [0] * COUNTERS_PER_LINE,
            self._macs.get((level, node)),
        )

    def replay_node(
        self, addr: int, snapshot: Tuple[List[int], Optional[bytes]], level: int = 0
    ) -> None:
        """Restore a previously captured node (a replay attack)."""
        node, _ = self._counter_slot(addr, level)
        self.seal()
        payload, mac = snapshot
        self._payloads[(level, node)] = list(payload)
        if mac is None:
            self._macs.pop((level, node), None)
        else:
            self._macs[(level, node)] = mac
        self._trusted.pop((level, node), None)

    def drop_trust_cache(self) -> None:
        """Invalidate the on-chip trusted-node cache (e.g. power event)."""
        self.seal()
        self._trusted.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _counter_slot(self, addr: int, level: int) -> Tuple[int, int]:
        """(node, slot) of a counter, with its level and node checked.

        Every public entry point goes through here, so the climbs
        below, which index the level tables unchecked, never reach an
        out-of-range node.
        """
        node, slot = self.geometry.counter_slot(addr, level)
        if not 0 <= node < self.geometry.level_counts[level]:
            raise ConfigError(
                f"address {addr:#x} outside the tree at level {level}"
            )
        return node, slot

    def _verified_payload(self, level: int, node: int) -> List[int]:
        """Return the counters of a node after verifying its path to root."""
        if level == self._root_level:
            return self._root
        key = (level, node)
        cached = self._trusted.get(key)
        if cached is not None:
            return cached

        arity = self._arity
        parent_payload = self._verified_payload(level + 1, node // arity)
        freshness = parent_payload[node % arity]

        payload = self._payloads.setdefault(key, [0] * COUNTERS_PER_LINE)
        self.node_fetches += 1
        stored_mac = self._macs.get(key)
        addr = self._node_bases[level] + node * CACHELINE_BYTES
        expected = node_mac(
            self.keys.mac_key, addr, freshness, pack_counters(payload)
        )
        self.verifications += 1
        if stored_mac is None:
            # A never-sealed node is only acceptable in its pristine
            # all-zero state under a zero freshness counter.
            if freshness != 0 or any(payload):
                raise ReplayError(
                    f"node (level {level}, index {node}) has no MAC but a "
                    f"non-pristine state"
                )
        elif not macs_equal(stored_mac, expected):
            if self._seals_older_state(addr, freshness, payload, stored_mac):
                raise ReplayError(
                    f"stale tree node detected (level {level}, index {node})"
                )
            raise IntegrityError(
                f"MAC mismatch on tree node (level {level}, index {node})"
            )
        trusted = list(payload)
        self._trusted[key] = trusted
        return trusted

    def _seals_older_state(
        self, addr: int, freshness: int, payload: List[int], stored_mac: bytes
    ) -> bool:
        """Best-effort replay classification.

        A replayed node carries a MAC that is a *valid seal of its
        payload under an older freshness counter*.  We probe a small
        window of older values purely to pick the exception subclass;
        acceptance is never affected -- the access fails either way.
        """
        probe_window = 64
        packed = pack_counters(payload)
        for old in range(max(0, freshness - probe_window), freshness):
            candidate = node_mac(self.keys.mac_key, addr, old, packed)
            if macs_equal(candidate, stored_mac):
                return True
        return False

    def _commit(
        self, level: int, node: int, payload: List[int], revive: bool = False
    ) -> None:
        """Store a node payload and bump the freshness chain to the root.

        ``payload`` is a fresh list the tree keeps.  Changing a node's
        contents bumps its freshness counter in the parent, which
        changes the parent, and so on up to the (on-chip) root.  The
        whole climb is read and checked first and stored only once it
        is known to succeed, so a freshness overflow (or an ancestor
        that fails verification) leaves every node as it was.  Each
        node below the root is then recorded in ``_unsealed`` after its
        parent's bump, the order a reseal on every update would seal in.

        ``revive=True`` tolerates pruned/stale *ancestors* on the climb
        (scale-down re-seals a whole chain whose intermediate nodes
        were pruned by an earlier promotion).
        """
        root_level = self._root_level
        arity = self._arity
        trusted = self._trusted
        climb = []
        key = (level, node)
        while level < root_level:
            slot = node % arity
            level += 1
            node //= arity
            parent = (level, node)
            if level == root_level:
                parent_payload = self._root
            elif revive:
                parent_payload = self._revivable_payload(level, node)
            else:
                # ``_verified_payload``'s cache hit, without the call.
                parent_payload = trusted.get(parent) or self._verified_payload(
                    level, node
                )
            if parent_payload[slot] >= _COUNTER_LIMIT:
                raise CounterOverflowError(
                    f"freshness counter overflow at level {level}"
                )
            climb.append((parent, parent_payload, slot))

        payloads = self._payloads
        unsealed = self._unsealed
        payloads[key] = payload
        trusted[key] = list(payload)
        for parent, parent_payload, slot in climb:
            if parent[0] == root_level:
                parent_payload[slot] += 1
            else:
                bumped = list(parent_payload)
                bumped[slot] += 1
                payloads[parent] = bumped
                trusted[parent] = list(bumped)
            unsealed[key] = None
            key = parent

    def _bump_in_scope(self, level: int, node: int, slot: int) -> int:
        """:meth:`_bump` once something has climbed since the last seal."""
        if level > self._low:
            self._apply_counts()
        if level and (level - 1, node * self._arity + slot) in self._unsealed:
            # The slot is the freshness counter of a child updated in
            # the scope: seal the child under its value first, as
            # sealing after every update does.
            self.seal()
            return self._bump(level, node, slot)
        if (level, node) in self._unsealed:
            value = self._write_back(level, node, slot)
            if value is not None:
                return value
        value = self._bump(level, node, slot)
        if self._pending_bumps:
            # The climb raised each freshness counter above the pending
            # nodes by one at most.
            self._room -= 1
            if self._pending_bumps > self._room:
                self._apply_counts()
        return value

    def _write_back(self, level: int, node: int, slot: int) -> Optional[int]:
        """Bump a counter of a node that has climbed since the last seal.

        Only the node's trusted copy moves; its pending count records
        the climb owed.  Returns the new value, or ``None`` when the
        update must climb: the counter is at its limit (:meth:`_bump`
        raises), or the pending counts would leave no room below the
        freshness limit (they are added first).
        """
        key = (level, node)
        payload = self._trusted[key]
        if payload[slot] >= self.counter_limit:
            return None
        counts = self._counts
        count = counts.get(key)
        if count is None:
            room = self._chain_room(level, node)
            if room < self._room:
                self._room = room
        if self._pending_bumps >= self._room:
            self._apply_counts()
            return None
        if count is None:
            count = 0
            if level < self._low:
                self._low = level
        counts[key] = count + 1
        self._pending_bumps += 1
        payload[slot] += 1
        return payload[slot]

    def _chain_room(self, level: int, node: int) -> int:
        """Updates every freshness counter above a node can take below
        the limit, from the trusted copies on its path."""
        arity = self._arity
        root_level = self._root_level
        trusted = self._trusted
        top = 0
        while level + 1 < root_level:
            parent = node // arity
            value = trusted[(level + 1, parent)][node % arity]
            if value > top:
                top = value
            level += 1
            node = parent
        return _COUNTER_LIMIT - 1 - max(top, self._root[node % arity])

    def _apply_counts(self) -> None:
        """Add the pending counts up their freshness chains.

        Bottom-up, one level at a time, so a node climbs once with the
        sum of its own count and its descendants'.  Every node whose
        counters moved has its trusted copy stored off-chip; the seals
        stay recorded in ``_unsealed`` as the nodes' climbs left them.
        """
        counts = self._counts
        if counts:
            arity = self._arity
            root_level = self._root_level
            trusted = self._trusted
            payloads = self._payloads
            levels: List[Dict[int, int]] = [{} for _ in range(root_level)]
            for (level, node), count in counts.items():
                levels[level][node] = count
            for level in range(self._low, root_level):
                nodes = levels[level]
                if level + 1 == root_level:
                    root = self._root
                    for node, count in nodes.items():
                        root[node % arity] += count
                else:
                    above = levels[level + 1]
                    for node, count in nodes.items():
                        parent = node // arity
                        trusted[(level + 1, parent)][node % arity] += count
                        above[parent] = above.get(parent, 0) + count
                for node in nodes:
                    payloads[(level, node)] = list(trusted[(level, node)])
            counts.clear()
        self._pending_bumps = 0
        self._room = _COUNTER_LIMIT
        self._low = self._root_level

    def _bump(self, level: int, node: int, slot: int) -> int:
        payload = list(self._verified_payload(level, node))
        if payload[slot] >= self.counter_limit:
            raise CounterOverflowError(
                f"counter overflow at level {level}, node {node}, slot {slot} "
                f"(limit {self.counter_limit})"
            )
        payload[slot] += 1
        if level == self._root_level:
            self._root[slot] = payload[slot]
        else:
            self._commit(level, node, payload)
        return payload[slot]

"""Campaign runner, failure policies and graceful degradation.

Covers the acceptance criteria of the robustness work: the seeded
campaign reports zero silent-corruption cells, quarantine demonstrably
keeps untouched chunks readable after a tamper, mid-switch tamper is
detected, and the partial-switch MAC relocation (compaction indices
shifting for regions *outside* a switched span) is regression-tested.
"""

import pytest

from repro.cli import main
from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES, GRANULARITIES
from repro.common.errors import (
    IntegrityError,
    QuarantineError,
    ReplayError,
    SecurityError,
)
from repro.crypto.keys import KeySet
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import ATTACKS
from repro.secure_memory import SecureMemory

KEYS = KeySet.from_seed(b"campaign-test")
REGION = 256 * 1024


def small_config(**overrides):
    base = dict(
        seed=7,
        trials=1,
        attacks=("data_bitflip", "data_rollback", "mid_switch_tamper"),
        failure_modes=("raise", "quarantine"),
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestCampaign:
    def test_smoke_campaign_is_clean(self):
        result = run_campaign(small_config())
        assert result.clean
        totals = result.totals()
        assert totals["silent_corruption"] == 0
        assert totals["containment_failures"] == 0
        assert totals["detected"] == totals["trials"]

    def test_full_catalog_covers_mid_switch(self):
        config = CampaignConfig(trials=1, failure_modes=("quarantine",))
        names = {a.name for a in config.selected_attacks()}
        assert "mid_switch_tamper" in names
        result = run_campaign(config)
        assert result.clean
        cells = [c for c in result.cells if c.attack == "mid_switch_tamper"]
        # Mid-switch tamper runs at every granularity (promotion from
        # the three finer ones, demotion from 32KB), multigranular only.
        assert {c.granularity for c in cells} == set(GRANULARITIES)
        assert all(c.policy == "multigranular" for c in cells)
        assert all(c.detected == c.trials for c in cells)

    def test_campaign_is_deterministic(self):
        a = run_campaign(small_config())
        b = run_campaign(small_config())
        assert a.to_json() == b.to_json()
        c = run_campaign(small_config(seed=8))
        assert c.to_json() != a.to_json()

    def test_table_and_json_render(self):
        result = run_campaign(small_config())
        table = result.format_table()
        assert "data_rollback" in table
        assert "CLEAN" in table
        assert '"silent_corruption": 0' in result.to_json()

    def test_cli_smoke_exits_zero(self, capsys):
        assert main(["faults", "--smoke", "--attacks", "data_bitflip,mac_delete"]) == 0
        out = capsys.readouterr().out
        assert "campaign CLEAN" in out

    def test_catalog_expectations_are_security_errors(self):
        for attack in ATTACKS:
            for exc in attack.expected:
                assert issubclass(exc, SecurityError)


class TestQuarantineContainment:
    def test_quarantine_keeps_bystanders_serving(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(0, b"\x11" * CHUNK_BYTES)          # chunk 0, promoted
        mem.write(CHUNK_BYTES, b"\x22" * 512)        # chunk 1, fine
        assert mem.granularity_of(0) == CHUNK_BYTES
        mem.tamper_data(1024)
        with pytest.raises(QuarantineError):
            mem.read(1024, CACHELINE_BYTES)
        # The whole poisoned region fails closed...
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        assert mem.is_quarantined(1024)
        # ...but the untouched chunk still serves.
        assert mem.read(CHUNK_BYTES, 512) == b"\x22" * 512

    def test_quarantined_region_demotes_and_heals(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(0, b"\x33" * 4096)
        assert mem.force_granularity(0, 4096) == 4096
        mem.tamper_data(128)
        with pytest.raises(QuarantineError):
            mem.read(128, CACHELINE_BYTES)
        # Demoted back to fine so healing is line-granular.
        assert mem.granularity_of(0) == GRANULARITIES[0]
        assert len(mem.quarantined_lines()) == 4096 // CACHELINE_BYTES
        # Fresh writes heal line by line.
        mem.write(128, b"\x44" * CACHELINE_BYTES)
        assert mem.read(128, CACHELINE_BYTES) == b"\x44" * CACHELINE_BYTES
        assert not mem.is_quarantined(128)
        # Unhealed lines stay closed.
        with pytest.raises(QuarantineError):
            mem.read(192, CACHELINE_BYTES)
        assert mem.events.get("healed_lines") == 1

    def test_quarantined_partitions_resist_repromotion(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(0, b"\x55" * 512)
        assert mem.force_granularity(0, 512) == 512
        mem.tamper_data(0)
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        # Staging a promotion over the poisoned partition must be
        # clamped by the resolver, not re-seal unverifiable data.
        mem.table.entry(0).next = 0xFF
        mem.write(4096, b"\x66" * CACHELINE_BYTES)
        assert mem.granularity_of(0) == GRANULARITIES[0]
        with pytest.raises(QuarantineError):
            mem.read(64, CACHELINE_BYTES)

    def test_raise_policy_keeps_paper_semantics(self):
        mem = SecureMemory(REGION, keys=KEYS)  # default: raise
        mem.write(0, b"\x77" * CACHELINE_BYTES)
        mem.tamper_data(0)
        with pytest.raises(IntegrityError):
            mem.read(0, CACHELINE_BYTES)
        assert not mem.is_quarantined(0)
        # Detection is repeatable, not absorbed.
        with pytest.raises(IntegrityError):
            mem.read(0, CACHELINE_BYTES)

    def test_retry_policy_absorbs_transient_glitch(self):
        mem = SecureMemory(
            REGION, keys=KEYS, failure_policy="retry-then-quarantine"
        )
        mem.write(0, b"\x88" * CACHELINE_BYTES)
        mem.tamper_data_transient(0)
        assert mem.read(0, CACHELINE_BYTES) == b"\x88" * CACHELINE_BYTES
        assert not mem.is_quarantined(0)
        assert mem.events.get("retry_recoveries") == 1
        assert len(mem.integrity_log) == 1
        event = mem.integrity_log.events[0]
        assert event.recovered and event.kind == "read-failure"

    def test_retry_policy_still_quarantines_persistent_tamper(self):
        mem = SecureMemory(
            REGION, keys=KEYS, failure_policy="retry-then-quarantine"
        )
        mem.write(0, b"\x99" * CACHELINE_BYTES)
        mem.tamper_data(0)
        with pytest.raises(QuarantineError) as exc_info:
            mem.read(0, CACHELINE_BYTES)
        assert isinstance(exc_info.value.__cause__, IntegrityError)
        assert mem.is_quarantined(0)

    def test_replay_detection_survives_quarantine_wrapping(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(0, b"\xaa" * CACHELINE_BYTES)
        stale = mem.snapshot(0)
        mem.write(0, b"\xbb" * CACHELINE_BYTES)
        mem.replay(0, stale)
        with pytest.raises(QuarantineError) as exc_info:
            mem.read(0, CACHELINE_BYTES)
        assert isinstance(exc_info.value.__cause__, ReplayError)

    def test_hard_quarantine_when_tree_unrecoverable(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(0, b"\xcc" * 512)
        assert mem.force_granularity(0, 512) == 512
        # Corrupt the promoted counter itself: the demotion cannot read
        # a trustworthy shared value, so the region fails closed hard.
        mem.tree.tamper_counter(0, level=1, delta=3)
        mem.tree.drop_trust_cache()
        with pytest.raises(QuarantineError):
            mem.read(0, CACHELINE_BYTES)
        assert mem.events.get("hard_quarantines") == 1
        with pytest.raises(QuarantineError):
            mem.write(0, b"\xdd" * CACHELINE_BYTES)  # no heal for hard


class TestSwitchIntegrity:
    def test_outside_span_macs_relocate_on_partial_switch(self):
        """Regression: promoting one 4KB group must not orphan the
        compacted MACs of other sealed regions in the same chunk."""
        mem = SecureMemory(REGION, keys=KEYS)
        mem.write(4096, b"\xaa" * CACHELINE_BYTES)   # group 1, fine
        mem.table.entry(0).next = 0xFF               # stream group 0
        mem.write(0, b"\xbb" * 4096)                 # triggers the switch
        assert mem.granularity_of(0) == 4096
        # The group-1 line's MAC moved with the chunk bitmap; its data
        # must still verify.
        assert mem.read(4096, CACHELINE_BYTES) == b"\xaa" * CACHELINE_BYTES
        assert mem.read(0, CACHELINE_BYTES) == b"\xbb" * CACHELINE_BYTES

    def test_demotion_relocates_outside_macs_too(self):
        mem = SecureMemory(REGION, keys=KEYS)
        mem.write(4096, b"\xcc" * CACHELINE_BYTES)
        mem.write(0, b"\xdd" * 512)
        assert mem.force_granularity(0, 512) == 512
        assert mem.force_granularity(0, 64) == 64
        assert mem.read(4096, CACHELINE_BYTES) == b"\xcc" * CACHELINE_BYTES
        assert mem.read(0, 512) == b"\xdd" * 512

    @pytest.mark.parametrize(
        "policy", ["raise", "quarantine", "retry-then-quarantine"]
    )
    def test_failed_reseal_keeps_the_chunks_other_macs(self, policy):
        """Regression: a switch whose re-seal pass fails must put back
        the MACs it moved aside for the chunk's other regions."""
        mem = SecureMemory(REGION, keys=KEYS, failure_policy=policy)
        mem.write(0x5000, b"\x5a" * CACHELINE_BYTES)  # same-chunk bystander
        mem.write(0x2000, b"\x2a" * 4096)
        assert mem.force_granularity(0x2000, 4096) == 4096
        # Forged seals on nodes the promotion pruned: the scale-down
        # meets them only when its second pass revives them.
        mem.tree.replay_node(0x2000, ([0] * 8, b"\0" * 8), level=0)
        mem.tree.replay_node(0x2000, ([0] * 8, b"\x11" * 8), level=1)
        stored = len(mem.mac_addresses())
        with pytest.raises(SecurityError):
            mem.force_granularity(0x2000, 64)
        assert len(mem.mac_addresses()) == stored
        assert mem.read(0x5000, CACHELINE_BYTES) == b"\x5a" * CACHELINE_BYTES

    def test_mid_switch_tamper_contained(self):
        mem = SecureMemory(REGION, keys=KEYS, failure_policy="quarantine")
        mem.write(CHUNK_BYTES, b"\xee" * CACHELINE_BYTES)  # bystander
        mem.write(0, b"\xff" * 512)
        assert mem.force_granularity(0, 512) == 512
        # Stage a promotion, then corrupt inside the lazy window.
        mem.table.entry(0).next |= 0xFF
        mem.tamper_data(64)
        with pytest.raises(QuarantineError):
            mem.read(0, 512)
        assert mem.events.get("switch_failures") == 1
        # Bystander chunk unaffected; poisoned span failed closed.
        assert mem.read(CHUNK_BYTES, CACHELINE_BYTES) == b"\xee" * CACHELINE_BYTES
        assert mem.is_quarantined(64)

    def test_mid_switch_tamper_raises_under_paper_semantics(self):
        mem = SecureMemory(REGION, keys=KEYS)
        mem.write(0, b"\x12" * 512)
        assert mem.force_granularity(0, 512) == 512
        mem.table.entry(0).next |= 0xFF
        mem.tamper_data(64)
        with pytest.raises((IntegrityError, ReplayError)):
            mem.read(0, 512)

"""Differential harness end-to-end: clean replays, seeded bugs, goldens.

These tests prove the ``repro check`` safety net actually works: a
clean engine replays divergence-free, while deliberately broken layout
or detection code is caught and reported with the first mismatching
request named.
"""

import os

import pytest

from repro.check import golden, metamorphic
from repro.check.differential import DifferentialHarness, Divergence, DivergenceError
from repro.check.runner import inject_layout_bug, quick_specs
from repro.check.streams import StreamSpec, generate_stream
from repro.common.constants import GRANULARITIES
from repro.core import addressing

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def _spec(profile, seed, ops, chunks=8):
    return StreamSpec(f"t-{profile}", profile, seed, ops, region_chunks=chunks)


def test_mixed_stream_replays_divergence_free():
    spec = _spec("mixed", seed=5, ops=250)
    harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    harness.replay(generate_stream(spec))
    assert len(harness.records) == 250
    # The stream must actually exercise the multi-granular machinery.
    assert any(r["granularity"] > 64 for r in harness.records if "granularity" in r)


def test_injected_mac_layout_bug_is_caught_and_named():
    spec = _spec("mixed", seed=5, ops=250)
    ops = generate_stream(spec)
    with inject_layout_bug():
        harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
        with pytest.raises(DivergenceError) as excinfo:
            harness.replay(ops)
    message = str(excinfo.value)
    assert "first divergence at request #" in message
    assert "mac" in message


def test_broken_merge_detection_is_caught():
    import repro.secure_memory.engine as engine_mod

    spec = _spec("mixed", seed=5, ops=300)
    ops = generate_stream(spec)
    original = engine_mod.merge_detection

    def broken(previous_bits, access_bits, censored=False):
        # Drop all detection evidence: promotions silently never happen.
        return 0

    engine_mod.merge_detection = broken
    try:
        harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
        with pytest.raises(DivergenceError) as excinfo:
            harness.replay(ops)
    finally:
        engine_mod.merge_detection = original
    assert "first divergence at request #" in str(excinfo.value)


def test_divergence_report_format():
    report = Divergence(42, "write", 0x1A40, "mac.index", 3, 2).describe()
    assert "request #42" in report
    assert "write" in report
    assert "0x1a40" in report
    assert "mac.index" in report


def test_permutation_metamorphic_relation_holds():
    metamorphic.check_permutation(_spec("permute", seed=29, ops=260, chunks=4))


def test_read_idempotence_holds():
    metamorphic.check_read_idempotence(_spec("sparse", seed=11, ops=150), samples=8)


def test_coalesced_writes_relation_holds():
    result = metamorphic.check_coalesced_writes(_spec("boundary", seed=19, ops=200))
    assert result["calls"] >= 10


def test_coalesced_writes_catch_a_batched_mac_lookup_bug(monkeypatch):
    # Only the batched Eq. 1 lookup is off by one, so only the MACs that
    # multi-line and region seals store move.
    original = addressing.mac_indices_in_chunk

    def buggy(bits, addrs, max_granularity=GRANULARITIES[3]):
        return [index + 1 for index in original(bits, addrs, max_granularity)]

    monkeypatch.setattr(addressing, "mac_indices_in_chunk", buggy)
    with pytest.raises(metamorphic.MetamorphicError, match="coalesced writes"):
        metamorphic.check_coalesced_writes(_spec("boundary", seed=19, ops=200))


def test_committed_quick_golden_matches_fresh_replay():
    corpus = golden.load_corpus(golden.corpus_path(GOLDEN_DIR, "quick"))
    assert corpus["schema"] == golden.CORPUS_SCHEMA
    entry = corpus["streams"][0]
    spec = StreamSpec(**entry["spec"])
    harness = DifferentialHarness(spec.region_bytes, seed=spec.seed)
    harness.replay(generate_stream(spec))
    digest = golden.corpus_digest(harness)
    assert digest["records"] == entry["records"]
    assert digest["state"] == entry["state"]


def test_quick_specs_cover_every_profile():
    profiles = {spec.profile for spec in quick_specs()}
    assert profiles == {"stream", "sparse", "mixed", "boundary", "phase", "permute"}

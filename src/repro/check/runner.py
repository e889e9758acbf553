"""The ``python -m repro check`` tiers: quick (CI) and deep (nightly).

Sections, in order:

1. **functions**   -- randomized cross-check of every pure layout
   function (optimized vs naive oracle): granularity resolution,
   bitmap quantization, Alg. 1 detection + merge, Eq. 2/3 promotion
   arithmetic, Eq. 1 MAC compaction, tree geometry across several
   region sizes.
2. **differential** -- lock-step engine-vs-oracle replay of the tier's
   seeded streams (:mod:`repro.check.differential`).
3. **metamorphic** -- permutation / split-resume / read-idempotence
   relations (:mod:`repro.check.metamorphic`).
4. **golden**      -- replay digests must match the committed corpus
   under ``tests/golden/`` (:mod:`repro.check.golden`).
5. **timing**      -- scheme-level metadata-address invariants
   (:mod:`repro.check.timing`); deep tier only, plus a small slice in
   quick.
6. **determinism** -- deep tier only: one scenario simulated twice
   must produce byte-identical payloads.

``inject_layout_bug()`` deliberately breaks the compacted-MAC offset
(off by one) so CI can prove the harness actually detects layout bugs
and names the first mismatching request.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.check import golden as golden_mod
from repro.check import metamorphic
from repro.check import oracle as ref
from repro.check import timing
from repro.check.differential import DifferentialHarness, DivergenceError
from repro.check.streams import StreamSpec, generate_stream
from repro.common.constants import (
    CHUNK_BYTES,
    GRANULARITIES,
    LINES_PER_CHUNK,
    LINES_PER_PARTITION,
    PARTITIONS_PER_CHUNK,
)
from repro.core import addressing, detector, stream_part
from repro.tree.geometry import TreeGeometry


class CheckFailure(AssertionError):
    """A check section failed outside the differential diff itself."""


# ---------------------------------------------------------------------------
# Tiered stream corpora (shared with scripts/refresh_goldens.py)
# ---------------------------------------------------------------------------


def quick_specs() -> List[StreamSpec]:
    return [
        StreamSpec("q-stream", "stream", seed=11, ops=700),
        StreamSpec("q-sparse", "sparse", seed=13, ops=600),
        StreamSpec("q-mixed", "mixed", seed=17, ops=700),
        StreamSpec("q-boundary", "boundary", seed=19, ops=600),
        StreamSpec("q-phase", "phase", seed=23, ops=700),
        StreamSpec("q-permute", "permute", seed=29, ops=500),
    ]


def deep_specs() -> List[StreamSpec]:
    specs = quick_specs()
    specs += [
        StreamSpec("d-stream", "stream", seed=101, ops=2500),
        StreamSpec("d-sparse", "sparse", seed=103, ops=2500),
        StreamSpec("d-mixed", "mixed", seed=107, ops=2500),
        StreamSpec("d-boundary", "boundary", seed=109, ops=2000),
        StreamSpec("d-phase", "phase", seed=113, ops=2500),
        StreamSpec("d-permute", "permute", seed=127, ops=1500),
        # Geometry variety: smaller and larger protected regions.
        StreamSpec("d-small-region", "mixed", seed=131, ops=1200, region_chunks=8),
        StreamSpec("d-large-region", "sparse", seed=137, ops=1200, region_chunks=64),
    ]
    return specs


def specs_for_tier(tier: str) -> List[StreamSpec]:
    if tier == "quick":
        return quick_specs()
    if tier == "deep":
        return deep_specs()
    raise ValueError(f"unknown tier {tier!r}")


# ---------------------------------------------------------------------------
# Seeded layout bug (CI proves the harness can catch one)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def inject_layout_bug():
    """Off-by-one the compacted-MAC offset (Eq. 1) for the duration."""
    original = addressing.mac_index_in_chunk

    def buggy(bits: int, addr: int, max_granularity: int = GRANULARITIES[3]) -> int:
        return original(bits, addr, max_granularity) + 1

    addressing.mac_index_in_chunk = buggy
    try:
        yield
    finally:
        addressing.mac_index_in_chunk = original


# ---------------------------------------------------------------------------
# Section 1: pure-function sweeps
# ---------------------------------------------------------------------------


def _interesting_bitmaps(rng: random.Random, count: int) -> List[int]:
    bitmaps = [0, stream_part.FULL_MASK]
    # Whole 4KB groups, single partitions, and near-full patterns.
    for group in range(PARTITIONS_PER_CHUNK // ref.PARTS_PER_GROUP):
        mask = 0
        first = group * ref.PARTS_PER_GROUP
        for part in range(first, first + ref.PARTS_PER_GROUP):
            mask |= 1 << part
        bitmaps.append(mask)
    bitmaps.append(stream_part.FULL_MASK & ~1)
    bitmaps.append(stream_part.FULL_MASK & ~(1 << (PARTITIONS_PER_CHUNK - 1)))
    while len(bitmaps) < count:
        bitmaps.append(rng.getrandbits(PARTITIONS_PER_CHUNK))
    return bitmaps


_WINDOW_KINDS = ("empty", "full", "partial")


def structured_vectors(rng: random.Random, count: int) -> List[int]:
    """512-bit access vectors built window by window: empty, full or partial.

    A uniform ``getrandbits(512)`` vector leaves an 8-line window empty,
    or full, with probability 1/256 each, so it barely reaches Alg. 1's
    keep and promote branches.  Here each vector draws its own mix of
    the three window kinds, from all-empty to all-full.
    """
    full = (1 << LINES_PER_PARTITION) - 1
    vectors = [0, (1 << LINES_PER_CHUNK) - 1]
    while len(vectors) < count:
        weights = [rng.random() for _ in _WINDOW_KINDS]
        kinds = rng.choices(_WINDOW_KINDS, weights, k=PARTITIONS_PER_CHUNK)
        vector = 0
        for part, kind in enumerate(kinds):
            if kind == "full":
                window = full
            elif kind == "partial":
                window = rng.randrange(1, full)
            else:
                continue
            vector |= window << (part * LINES_PER_PARTITION)
        vectors.append(vector)
    return vectors


def _check_functions(samples: int, seed: int) -> dict:
    rng = random.Random(seed)
    checked = 0

    def expect(label: str, got, want) -> None:
        nonlocal checked
        checked += 1
        if got != want:
            raise CheckFailure(f"functions: {label}: optimized={got!r} naive={want!r}")

    for granularity in GRANULARITIES:
        expect(
            f"num_parents({granularity})",
            addressing.num_parents(granularity),
            ref.ref_num_parents(granularity),
        )
        for _ in range(8):
            leaf = rng.randrange(1 << 20)
            parents = ref.ref_num_parents(granularity)
            expect(
                f"ancestor_index({leaf}, {parents})",
                addressing.ancestor_index(leaf, parents),
                ref.ref_ancestor_index(leaf, parents),
            )

    for bits in _interesting_bitmaps(rng, samples):
        addr = rng.randrange(LINES_PER_CHUNK) * 64 + rng.randrange(8) * CHUNK_BYTES
        for max_g in GRANULARITIES[1:]:
            expect(
                f"resolve_granularity(0x{bits:x}, 0x{addr:x}, {max_g})",
                stream_part.resolve_granularity(bits, addr, max_g),
                ref.ref_resolve_granularity(bits, addr, max_g),
            )
        for min_coarse in GRANULARITIES[1:]:
            expect(
                f"quantize_bits(0x{bits:x}, {min_coarse})",
                stream_part.quantize_bits(bits, min_coarse),
                ref.ref_quantize_bits(bits, min_coarse),
            )
        expect(
            f"mac_index_in_chunk(0x{bits:x}, 0x{addr:x})",
            addressing.mac_index_in_chunk(bits, addr),
            ref.ref_mac_index(bits, addr),
        )
        expect(
            f"macs_per_chunk(0x{bits:x})",
            addressing.macs_per_chunk(bits),
            ref.ref_macs_per_chunk(bits),
        )

    def check_detection(vector: int) -> None:
        expect(
            f"detect_stream_partitions(0x{vector:x})",
            detector.detect_stream_partitions(vector),
            ref.ref_detect_stream_partitions(vector),
        )
        previous = rng.getrandbits(PARTITIONS_PER_CHUNK)
        for censored in (False, True):
            expect(
                f"merge_detection(0x{previous:x}, 0x{vector:x}, {censored})",
                detector.merge_detection(previous, vector, censored),
                ref.ref_merge_detection(previous, vector, censored),
            )

    for _ in range(samples):
        check_detection(rng.getrandbits(LINES_PER_CHUNK))
    for vector in structured_vectors(rng, samples):
        check_detection(vector)

    for chunks in (1, 8, 32, 64):
        region = chunks * CHUNK_BYTES
        opt = TreeGeometry.build(region)
        naive = ref.RefGeometry(region)
        expect(
            f"geometry[{chunks}].level_counts",
            tuple(opt.level_counts),
            naive.level_counts,
        )
        expect(f"geometry[{chunks}].mac_base", opt.mac_base, naive.mac_base)
        expect(f"geometry[{chunks}].tree_base", opt.tree_base, naive.tree_base)
        expect(f"geometry[{chunks}].table_base", opt.table_base, naive.table_base)
        for _ in range(16):
            addr = rng.randrange(region)
            level = rng.randrange(naive.num_levels)
            expect(
                f"geometry[{chunks}].counter_slot(0x{addr:x}, {level})",
                opt.counter_slot(addr, level),
                naive.counter_slot(addr, level),
            )
            node, _ = naive.counter_slot(addr, level)
            expect(
                f"geometry[{chunks}].node_addr({level}, {node})",
                opt.node_addr(level, node),
                naive.node_addr(level, node),
            )
            expect(
                f"geometry[{chunks}].path_to_root(0x{addr:x})",
                list(opt.path_to_root(addr)),
                naive.path_to_root(addr),
            )
            line = addr // 64
            expect(
                f"geometry[{chunks}].fine_mac_addr({line})",
                opt.fine_mac_addr(line),
                naive.mac_base + line * 8,
            )
    return {"checked": checked}


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass
class SectionResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    seconds: float


@dataclass
class CheckReport:
    tier: str
    sections: List[SectionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.status != "fail" for s in self.sections)

    def format(self) -> str:
        lines = [f"repro check --{self.tier}"]
        for s in self.sections:
            mark = {"pass": "ok", "fail": "FAIL", "skip": "skip"}[s.status]
            lines.append(f"  [{mark:>4}] {s.name:<12} {s.seconds:6.2f}s  {s.detail}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _run_section(
    report: CheckReport,
    name: str,
    fn: Callable[[], str],
    echo: Optional[Callable[[str], None]],
) -> bool:
    start = time.perf_counter()
    try:
        detail = fn()
        status = "pass"
    except (DivergenceError, metamorphic.MetamorphicError, CheckFailure,
            timing.TimingInvariantError, ValueError, OSError) as exc:
        detail = str(exc)
        status = "fail"
    seconds = time.perf_counter() - start
    result = SectionResult(name, status, detail, seconds)
    report.sections.append(result)
    if echo is not None:
        mark = "ok" if status == "pass" else "FAIL"
        echo(f"[{mark:>4}] {name:<12} {seconds:6.2f}s  {detail}")
    return status == "pass"


# ---------------------------------------------------------------------------
# run_check
# ---------------------------------------------------------------------------


def run_check(
    tier: str = "quick",
    seed: int = 0,
    golden_dir: Optional[str] = golden_mod.DEFAULT_GOLDEN_DIR,
    echo: Optional[Callable[[str], None]] = None,
    engine: str = "scalar",
) -> CheckReport:
    """Run one check tier; never raises, inspect ``report.passed``.

    ``engine="fast"`` runs the differential section with windowed numpy
    verification of the layout observables (byte-identical digests --
    records always store oracle values); when numpy is missing it
    degrades to scalar with a notice.
    """
    if engine not in ("scalar", "fast"):
        raise ValueError(f"unknown check engine {engine!r}")
    if engine == "fast":
        from repro.engine_fast import numpy_or_none, warn_scalar_fallback

        if numpy_or_none() is None:
            warn_scalar_fallback("numpy not importable")
            if echo is not None:
                echo("note: numpy unavailable; check runs on the scalar engine")
            engine = "scalar"
    specs = specs_for_tier(tier)
    report = CheckReport(tier=tier)
    harnesses: dict = {}

    samples = 64 if tier == "quick" else 256
    _run_section(
        report,
        "functions",
        lambda: f"{_check_functions(samples, seed + 1)['checked']} cross-checks",
        echo,
    )

    def differential() -> str:
        total = 0
        for spec in specs:
            harness = DifferentialHarness(
                spec.region_bytes, seed=spec.seed + seed, engine_mode=engine
            )
            harness.replay(generate_stream(spec))
            harnesses[spec.name] = harness
            total += len(harness.records)
        return (
            f"{len(specs)} streams, {total} requests, all observables "
            f"equal (engine={engine})"
        )

    if not _run_section(report, "differential", differential, echo):
        return report

    def run_metamorphic() -> str:
        permute = [s for s in specs if s.profile == "permute"]
        for spec in permute:
            metamorphic.check_permutation(spec, variants=2 if tier == "quick" else 4)
        split_specs = [s for s in specs if s.profile in ("mixed", "sparse")][:2]
        for spec in split_specs:
            metamorphic.check_split_resume(spec)
        metamorphic.check_read_idempotence(specs[0])
        return (
            f"permutation x{len(permute)}, split-resume x{len(split_specs)}, "
            "read-idempotence x1"
        )

    _run_section(report, "metamorphic", run_metamorphic, echo)

    def golden() -> str:
        if golden_dir is None:
            return "skipped (no golden dir)"
        path = golden_mod.corpus_path(golden_dir, tier)
        committed = golden_mod.load_corpus(path)
        digests = [golden_mod.corpus_digest(harnesses[s.name]) for s in specs]
        actual = golden_mod.make_corpus(tier, specs, digests)
        problems = golden_mod.diff_corpus(committed, actual)
        if problems:
            raise CheckFailure(
                "golden corpus drift (rerun scripts/refresh_goldens.py if "
                "intended): " + "; ".join(problems)
            )
        return f"{len(specs)} stream digests match {path}"

    if seed == 0:
        _run_section(report, "golden", golden, echo)
    else:
        report.sections.append(
            SectionResult("golden", "skip", "skipped (non-default seed)", 0.0)
        )

    def run_timing() -> str:
        timing_specs = specs[:2] if tier == "quick" else specs[:6]
        total = timing.TimingCheckResult(0, 0, 0, 0)
        for spec in timing_specs:
            ops = generate_stream(spec)
            if tier == "quick":
                ops = ops[:300]
            result = timing.check_timing_invariants(
                ops, spec.region_bytes, label=spec.name
            )
            total = timing.TimingCheckResult(
                total.requests + result.requests,
                total.counter_fills + result.counter_fills,
                total.mac_fills + result.mac_fills,
                total.table_fills + result.table_fills,
            )
        return (
            f"{total.requests} requests: {total.counter_fills} counter / "
            f"{total.mac_fills} mac / {total.table_fills} table fills on-layout"
        )

    _run_section(report, "timing", run_timing, echo)

    if tier == "deep":

        def determinism() -> str:
            import json

            from repro.sim.runner import clear_static_best_cache, run_scenario
            from repro.sim.scenario import selected_scenario

            scenario = selected_scenario("cc1")
            payloads = []
            for _ in range(2):
                clear_static_best_cache()
                runs = run_scenario(scenario, ("ours",), None, 1500.0, seed=7)
                payloads.append(
                    json.dumps(
                        {k: r.to_dict() for k, r in runs.items()}, sort_keys=True
                    )
                )
            if payloads[0] != payloads[1]:
                raise CheckFailure("identical simulation produced different payloads")
            return "re-simulation byte-identical"

        _run_section(report, "determinism", determinism, echo)

    return report

"""Metric names, units and the statistics every phase reports with.

The end-to-end table is what ``--trace 0`` prints and the per-layer
table what ``--trace 1`` prints; ``BENCHMARK.json`` lists the same
names.  Names and units follow the ``BENCHMARK.json`` rules: a name is 1-64
letters, digits, ``_``, ``.`` or ``-`` starting with a letter or digit,
and a unit is 1-16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("sim_rps.unsecure", "req/s", "higher"),
    ("sim_rps.conventional", "req/s", "higher"),
    ("sim_rps.ours", "req/s", "higher"),
    ("sim_rps.bmf_unused_ours", "req/s", "higher"),
    ("sim_rps.fast.conventional", "req/s", "higher"),
    ("sim_rps.fast.ours", "req/s", "higher"),
    ("get_lps.fixed", "lines/s", "higher"),
    ("get_lps.multigranular", "lines/s", "higher"),
    ("put_lps.fixed", "lines/s", "higher"),
    ("put_lps.multigranular", "lines/s", "higher"),
    ("step_best_p50_ms", "ms", "lower"),
    ("step_best_tail_ms", "ms", "lower"),
    ("get_best_p50_ms", "ms", "lower"),
    ("put_best_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) of every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.step.calls", "count"),
    ("sim.step.self_s", "s"),
    ("sim.unattributed_s", "s"),
    ("schemes.process.calls", "count"),
    ("schemes.process.self_s", "s"),
    ("mem.cache.access.calls", "count"),
    ("mem.cache.access.self_s", "s"),
    ("mem.cache.metadata.hit_ratio", "ratio"),
    ("mem.cache.mac.hit_ratio", "ratio"),
    ("mem.cache.table.hit_ratio", "ratio"),
    ("mem.channel.submit.calls", "count"),
    ("mem.channel.submit.self_s", "s"),
    ("mem.channel.queue_cycles", "cycles"),
    ("core.tracker.observe.calls", "count"),
    ("core.tracker.observe.self_s", "s"),
    ("core.gran_table.resolve.calls", "count"),
    ("core.gran_table.resolve.self_s", "s"),
    ("core.switches", "count"),
    ("core.coarse_share", "ratio"),
    ("core.addressing.mac_line_addr.calls", "count"),
    ("core.addressing.mac_line_addr.self_s", "s"),
    ("core.addressing.layout_cache.hit_ratio", "ratio"),
    ("subtree.trusted.calls", "count"),
    ("subtree.trusted.self_s", "s"),
    ("engine_fast.prepare_s", "s"),
    ("engine_fast.loop_s", "s"),
    ("engine_fast.fallback_share", "ratio"),
    ("workloads.build_traces_s", "s"),
    ("tree.walk.serialized_fetches", "count"),
    ("tree.read_counter.calls", "count"),
    ("tree.read_counter.self_s", "s"),
    ("tree.increment_counter.calls", "count"),
    ("tree.increment_counter.self_s", "s"),
    ("crypto.generate_otp.calls", "count"),
    ("crypto.generate_otp.self_s", "s"),
    ("crypto.xor_bytes.calls", "count"),
    ("crypto.xor_bytes.self_s", "s"),
    ("crypto.compute_mac.calls", "count"),
    ("crypto.compute_mac.self_s", "s"),
    ("crypto.nested_mac.calls", "count"),
    ("crypto.nested_mac.self_s", "s"),
    ("crypto.macs_per_line_read", "ratio"),
    ("secure_memory.read.self_s", "s"),
    ("secure_memory.write.self_s", "s"),
    ("secure_memory.switches", "count"),
    ("secure_memory.session.step.self_s", "s"),
    ("service.start_s", "s"),
    ("service.handle_ms.step", "ms"),
    ("service.handle_ms.get", "ms"),
    ("service.handle_ms.put", "ms"),
    ("service.wire_ms", "ms"),
    ("service.store.append.calls", "count"),
    ("service.store.append.self_s", "s"),
    ("service.wait_ms", "ms"),
    ("service.bulk_step_ms", "ms"),
    ("service.failed_share", "ratio"),
    ("trace.overhead.sim", "ratio"),
    ("trace.overhead.functional", "ratio"),
    ("trace.overhead.daemon", "ratio"),
)

#: Tail percentiles tried from the top; the first one with at least
#: ``MIN_BEYOND`` samples above it is the reported tail.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or workload name."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid unit string."""
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    """1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, sample_count)``.  Raises when even
    the median has fewer than ``MIN_BEYOND`` samples above it, so a
    run too short to support a tail fails loudly instead of reporting
    its maximum.
    """
    n = len(samples)
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(samples, p), n
    raise ValueError(
        f"{n} samples cannot support a tail with {MIN_BEYOND} beyond it"
    )


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


class SetupLog:
    """Host seconds of each set-up call, grouped by kind.

    ``setup_s`` is one pass's set-up: the median time of each kind
    times how often one pass of the measured phases consumes it.  A
    run builds every kind several times, so the median ignores a
    single slow build, and the figure does not grow when a faster
    program fits more repetitions into the same seconds.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.per_pass: Dict[str, int] = {}

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def need(self, kind: str, count: int) -> None:
        """Declare that one pass consumes ``count`` set-ups of ``kind``."""
        self.per_pass[kind] = count

    def seconds(self) -> float:
        missing = [k for k in self.per_pass if not self.samples.get(k)]
        if missing:
            raise ValueError(f"no set-up samples for {missing}")
        return sum(
            median(self.samples[kind]) * count
            for kind, count in self.per_pass.items()
        )


class Tally:
    """Attempted and failed operations, plus the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def result_line(
    tally: Tally,
    values: Dict[str, float],
    table: Sequence[Tuple[str, ...]],
) -> Dict[str, object]:
    """The final JSON object: every metric of ``table``, by name and unit."""
    metrics: Dict[str, Dict[str, object]] = {}
    for row in table:
        name, unit = check_name(row[0]), check_unit(row[1])
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": float(values[name]), "unit": unit}
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }

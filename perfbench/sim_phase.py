"""Simulator plane: host throughput of ``simulate()`` per scheme and engine.

Each round builds one Table-4 scenario's traces and runs every
configuration of :data:`SIM_CONFIGS` over them with ``warmup=True``
(the warm-up pass fills the modelled caches before statistics start).
``simulate()`` is called directly, never through ``run_many``, so no
worker pool runs beside the measurement.

A configuration's throughput is requests replayed (warm-up pass
included) over host seconds, where each trace set counts with the
fastest of its calls in the run (min-of-N).  Calls on one trace set do
identical work, and on a shared machine other tenants slow whole
seconds of a run by up to half: the fastest call moves by a few percent
between runs where the median moves by ten.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, Tuple

from repro.common.config import SoCConfig
from repro.schemes.registry import build_scheme
from repro.sim import soc
from repro.sim.scenario import selected_scenario

#: (metric, scheme, engine) of every simulated configuration.
SIM_CONFIGS: Tuple[Tuple[str, str, str], ...] = (
    ("sim_rps.unsecure", "unsecure", "scalar"),
    ("sim_rps.conventional", "conventional", "scalar"),
    ("sim_rps.ours", "ours", "scalar"),
    ("sim_rps.bmf_unused_ours", "bmf_unused_ours", "scalar"),
    ("sim_rps.fast.conventional", "conventional", "fast"),
    ("sim_rps.fast.ours", "ours", "fast"),
)

#: Trace sets per run: round ``i`` replays set ``i % TRACE_SETS``, so a
#: run's medians do not hang on one draw of the trace generator.
TRACE_SETS = 3


def digest(result) -> str:
    """SHA-256 of a run's canonical ``to_dict()`` payload."""
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def sized_duration(scenario, seed: int, requests: int, probe: float = 4000.0) -> float:
    """Shortest trace duration (cycles) that yields ``requests`` requests.

    Request counts per cycle differ between seeds by up to a third;
    sizing each trace set to a request count keeps one call's work
    about the same whichever seed the run was given.  The count grows
    in steps with the duration, so this bisects to the first step at or
    above ``requests``.
    """

    def produced(duration: float) -> int:
        traces, _ = scenario.build_traces(duration, seed)
        return sum(len(t.entries) for t in traces)

    low, high = 0.0, probe
    while produced(high) < requests:
        low, high = high, high * 2
    for _ in range(12):
        middle = (low + high) / 2
        if produced(middle) >= requests:
            high = middle
        else:
            low = middle
    return high


class SimPhase:
    """Rounds of every simulated configuration over shared traces."""

    def __init__(self, scenario: str, seed: int, requests: int, setup, tally,
                 fast_available: bool) -> None:
        self.scenario = selected_scenario(scenario)
        self.seeds = [seed * 16 + k for k in range(TRACE_SETS)]
        self.durations = [
            sized_duration(self.scenario, s, requests) for s in self.seeds
        ]
        self.setup = setup
        self.tally = tally
        self.fast_available = fast_available
        self.configs = {e: SoCConfig(sim_engine=e) for e in ("scalar", "fast")}
        #: (metric, trace set) -> fastest call's host seconds.
        self.best: Dict[Tuple[str, int], float] = {}
        self.replayed = [0] * TRACE_SETS
        #: Host seconds of the measured calls (the plane's end-to-end time).
        self.seconds = 0.0
        self.digests: Dict[Tuple[int, str], str] = {}
        #: Simulated statistics of ``ours``, summed over the trace sets
        #: (each once: repetitions are identical), so they depend on the
        #: seed alone, not on how many rounds ran.
        self.stats: Dict[str, float] = {}
        self.stats_sets: set = set()
        setup.need("build_traces", 1)
        setup.need("build_scheme", len(SIM_CONFIGS))

    def round(self, index: int, measure: bool, rec=None) -> None:
        which = index % TRACE_SETS
        seed = self.seeds[which]
        t = time.perf_counter()
        traces, footprint = self.scenario.build_traces(self.durations[which], seed)
        self.setup.add("build_traces", time.perf_counter() - t)
        self.replayed[which] = 2 * sum(len(trace.entries) for trace in traces)
        for metric, scheme_name, engine in SIM_CONFIGS:
            config = self.configs[engine]
            t = time.perf_counter()
            scheme = build_scheme(scheme_name, config, footprint_bytes=footprint)
            self.setup.add("build_scheme", time.perf_counter() - t)
            root = rec.begin("sim", metric, "sim.simulate") if rec else None
            t = time.perf_counter()
            result = soc.simulate(traces, scheme, config, warmup=True)
            elapsed = time.perf_counter() - t
            if rec:
                rec.end_op(root)
            self._check(result, seed, scheme_name, engine)
            if measure:
                key = (metric, which)
                self.best[key] = min(elapsed, self.best.get(key, elapsed))
                self.seconds += elapsed
                if metric == "sim_rps.ours" and which not in self.stats_sets:
                    self.stats_sets.add(which)
                    self._add_stats(result)

    def _check(self, result, seed: int, scheme_name: str, engine: str) -> None:
        """Same payload across engines and repetitions; fast tier really ran."""
        key = (seed, scheme_name)
        value = digest(result)
        first = self.digests.setdefault(key, value)
        self.tally.check(
            value == first,
            f"simulate {scheme_name}/{engine} seed {seed}: to_dict() digest "
            f"{value[:12]} differs from the first run's {first[:12]}",
        )
        if engine == "fast" and self.fast_available:
            self.tally.check(
                result.engine == "fast",
                f"simulate {scheme_name}/fast seed {seed} ran {result.engine}",
            )

    def _add_stats(self, result) -> None:
        scheme = result.scheme
        stats = self.stats
        for name, cache in (
            ("metadata", scheme.metadata_cache),
            ("mac", scheme.mac_cache),
            ("table", scheme.table_cache),
        ):
            stats[f"{name}.hits"] = stats.get(f"{name}.hits", 0) + cache.hits
            stats[f"{name}.accesses"] = (
                stats.get(f"{name}.accesses", 0) + cache.hits + cache.misses
            )
        buckets = scheme.stats.granularity_hist.buckets
        coarse = sum(v for g, v in buckets.items() if int(g) >= 4096)
        for name, value in (
            ("queue_cycles", result.channel.queue_cycles),
            ("serialized_fetches", scheme.stats.serialized_level_fetches),
            ("switches", scheme.stats.switching.total_switches),
            ("coarse", coarse),
            ("requests", sum(buckets.values())),
        ):
            stats[name] = stats.get(name, 0) + value

    def scheme_digests(self) -> Dict[str, str]:
        """One digest per scheme over the run's trace sets (seed order)."""
        out: Dict[str, str] = {}
        for scheme_name in sorted({s for _, s, _ in SIM_CONFIGS}):
            parts = [
                self.digests[(seed, scheme_name)]
                for seed in self.seeds
                if (seed, scheme_name) in self.digests
            ]
            out[scheme_name] = hashlib.sha256("".join(parts).encode()).hexdigest()
        return out

    def metrics(self) -> Dict[str, float]:
        out = {}
        for metric, _, _ in SIM_CONFIGS:
            sets = [w for w in range(TRACE_SETS) if (metric, w) in self.best]
            out[metric] = sum(self.replayed[w] for w in sets) / sum(
                self.best[(metric, w)] for w in sets
            )
        return out

    def layer_stats(self) -> Dict[str, float]:
        """Simulated statistics of ``ours`` over the measured trace sets."""
        s = self.stats

        def ratio(hits: str, total: str) -> float:
            return s[hits] / s[total] if s.get(total) else 0.0

        return {
            "mem.cache.metadata.hit_ratio": ratio("metadata.hits", "metadata.accesses"),
            "mem.cache.mac.hit_ratio": ratio("mac.hits", "mac.accesses"),
            "mem.cache.table.hit_ratio": ratio("table.hits", "table.accesses"),
            "mem.channel.queue_cycles": s.get("queue_cycles", 0.0),
            "tree.walk.serialized_fetches": s.get("serialized_fetches", 0),
            "core.switches": s.get("switches", 0),
            "core.coarse_share": ratio("coarse", "requests"),
        }

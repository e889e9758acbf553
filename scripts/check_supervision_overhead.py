#!/usr/bin/env python
"""CI gate: the supervised executor must cost < 3% over a bare pool map.

Every fan-out runs through :class:`repro.sim.resilient.Supervisor`; a
bare ``ProcessPoolExecutor.map`` survives only here, as the reference.
The workload is a Figs. 15-18 sweep slice -- 6 sampled scenarios under
``unsecure,conventional,static_device,ours`` at 800 cycles per device,
fanned out at ``jobs=4``.  Traces are built once, in the parent, as
:func:`repro.sim.parallel.run_scenarios` builds them, and the sweep is
split into one task per (scenario, scheme) cell: with only 6 whole-
scenario tasks the busy CPUs hide a per-task executor cost (a 20 ms
sleep per dispatch measured +3.9%), while 24 cell tasks expose it
(+29%).  Each round times only the fan-out of the same task list two
ways, back to back:

* ``Supervisor().map`` -- the executor every sweep and campaign uses;
* ``ProcessPoolExecutor.map`` -- the bare pool map, the reference.

One pair cannot resolve 3%: on a 2-vCPU container the ratio of two
neighbouring runs spreads with a standard deviation of ~8-10%.  The
gate runs ``ROUNDS`` pairs in alternating order (drift and first-run
effects hit both sides) and takes the mean of the middle half of the
per-pair ratios, which outliers cannot move; over 200 rounds its
standard error there is ~0.7%.  Both executors must return equal
results in every round.

Usage: PYTHONPATH=src python scripts/check_supervision_overhead.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.common.config import SoCConfig
from repro.sim.parallel import _run_chunk
from repro.sim.resilient import Supervisor
from repro.sim.runner import clear_static_best_cache, sweep_scenarios
from repro.sim.scenario import all_scenarios

SAMPLE = 6
SCHEMES = ("unsecure", "conventional", "static_device", "ours")
DURATION = 800.0
JOBS = 4
ROUNDS = 200
MAX_OVERHEAD = 0.03


def _build_tasks():
    """One task per (scenario, scheme) cell, over shared traces."""
    config = SoCConfig()
    tasks, keys = [], []
    for index, scenario in enumerate(sweep_scenarios(all_scenarios(), SAMPLE)):
        traces, footprint = scenario.build_traces(DURATION, 0)
        for scheme in SCHEMES:
            tasks.append((tuple(traces), footprint, (scheme,), config, True))
            keys.append(f"{index:03d}:{scenario.name}:{scheme}")
    return tasks, keys


def _supervised(tasks, keys):
    return Supervisor().map(_run_chunk, tasks, keys=keys, jobs=JOBS)


def _bare(tasks, _keys):
    # The supervisor's pool uses the same default start method, so the
    # two sides differ only in how tasks are dispatched and collected.
    chunksize = max(1, len(tasks) // (JOBS * 4))
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(_run_chunk, tasks, chunksize=chunksize))


def _payload(chunk_results) -> str:
    return json.dumps(
        [[(name, run.to_dict()) for name, run in chunk] for chunk in chunk_results],
        sort_keys=True,
    )


def _timed(fn, tasks, keys):
    clear_static_best_cache()
    start = time.perf_counter()
    results = fn(tasks, keys)
    return time.perf_counter() - start, _payload(results)


def _interquartile_mean(values) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def _describe(label: str, walls) -> str:
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return (
        f"{label}: min {min(walls):.3f}s median {statistics.median(walls):.3f}s "
        f"IQR {q3 - q1:.3f}s"
    )


def main() -> int:
    tasks, keys = _build_tasks()
    walls = {"supervised": [], "bare": []}
    sides = (("supervised", _supervised), ("bare", _bare))
    for round_index in range(ROUNDS):
        payloads = {}
        order = sides if round_index % 2 == 0 else sides[::-1]
        for label, fn in order:
            wall, payloads[label] = _timed(fn, tasks, keys)
            walls[label].append(wall)
        if payloads["supervised"] != payloads["bare"]:
            print(
                f"FAIL: round {round_index}: the supervised and bare maps "
                "returned different results",
                file=sys.stderr,
            )
            return 1

    ratios = [s / b for s, b in zip(walls["supervised"], walls["bare"])]
    overhead = _interquartile_mean(ratios) - 1.0
    print(
        f"{ROUNDS} interleaved rounds of {len(tasks)} cell tasks at jobs={JOBS} "
        f"({SAMPLE} scenarios x {len(SCHEMES)} schemes, {DURATION:.0f} cycles)"
    )
    print(_describe("supervised", walls["supervised"]))
    print(_describe("bare      ", walls["bare"]))
    print(
        "supervision overhead (mean of the middle half of per-round ratios): "
        f"{overhead:+.2%} (limit +{MAX_OVERHEAD:.0%})"
    )
    if overhead > MAX_OVERHEAD:
        print(
            f"FAIL: the supervised executor costs {overhead:.2%} over a bare "
            f"pool map (limit {MAX_OVERHEAD:.0%})",
            file=sys.stderr,
        )
        return 1
    print("supervision overhead gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

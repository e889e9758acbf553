"""Parallel fan-out of independent (scenario, scheme) simulations.

Every cell of a sweep -- one scenario replayed under one protection
scheme -- is completely independent of every other cell, so sweeps,
figure drivers and fault campaigns parallelize embarrassingly across
processes.  This module is the one place that knows how:

* **SlimRunResult** -- the picklable payload that crosses the worker
  pipe.  Live :class:`~repro.sim.soc.RunResult` objects carry the
  scheme itself (whose metrics registry binds closures and is therefore
  unpicklable); the slim twin captures the derived scalars instead and
  shares the whole read API through :class:`~repro.sim.soc.ResultView`,
  so serial and parallel callers render byte-identical output.
* **Shared-trace chunking** -- traces are built once per scenario in
  the parent and shipped to workers, never regenerated per scheme; a
  scenario's scheme list is split into contiguous chunks only when
  there are fewer scenarios than workers.
* **Ordered reduce** -- worker outputs are reassembled in submission
  order (scenario order, then scheme order), so results are
  byte-identical to a serial run regardless of completion order.
* **One executor** -- every fan-out runs through the ambient
  :class:`~repro.sim.resilient.Supervisor`; ``jobs<=1`` or a single
  task runs in-process, with identical results.

``jobs`` semantics everywhere in the library: ``None`` means "consult
``REPRO_JOBS``, else stay serial" (back-compatible); the CLI layer
defaults to :func:`default_jobs` (``REPRO_JOBS`` else CPU count).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.common.config import SoCConfig
from repro.mem.channel import ChannelStats
from repro.sim.resilient import current_supervisor
from repro.sim.runner import _run_schemes_over_traces, sim_duration
from repro.sim.scenario import Scenario
from repro.sim.soc import DeviceResult, ResultView, RunResult
from repro.workloads.generator import Trace

T = TypeVar("T")
R = TypeVar("R")

#: Anything a caller may treat as "the result of one (scenario, scheme)
#: run": live when produced in-process, slim when it crossed a pipe.
AnyRunResult = Union[RunResult, "SlimRunResult"]


# ----------------------------------------------------------------------
# Job-count resolution
# ----------------------------------------------------------------------

def _env_jobs() -> Optional[int]:
    raw = os.environ.get("REPRO_JOBS")
    if raw is None or not raw.strip():
        return None
    return max(1, int(raw))


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count for a library call.

    ``None`` (the default everywhere) resolves to ``REPRO_JOBS`` when
    set and to ``1`` otherwise, so existing callers keep their serial
    behaviour unless the environment opts in.
    """
    if jobs is not None:
        return max(1, int(jobs))
    return _env_jobs() or 1


def default_jobs() -> int:
    """CLI default: ``REPRO_JOBS`` if set, else the machine's CPU count."""
    env = _env_jobs()
    if env is not None:
        return env
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# The picklable result payload
# ----------------------------------------------------------------------

@dataclass
class SlimRunResult(ResultView):
    """Picklable twin of :class:`~repro.sim.soc.RunResult`.

    Carries per-device results, channel statistics, the metrics
    snapshot and the two scheme-derived scalars -- everything the
    figures, tables and ``--json`` payloads consume -- but *not* the
    live scheme/observability objects, which cannot cross a process
    boundary.  Callers that need ``result.scheme`` (switch accounting,
    granularity histograms) must run serially.
    """

    scheme_name: str
    devices: List[DeviceResult]
    channel: ChannelStats
    total_traffic_bytes: int
    security_cache_misses: int
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Execution tier that produced the run ("scalar" or "fast").
    engine: str = "scalar"


def slim_result(result: AnyRunResult) -> "SlimRunResult":
    """Capture a picklable snapshot of a run result (idempotent)."""
    if isinstance(result, SlimRunResult):
        return result
    return SlimRunResult(
        scheme_name=result.scheme_name,
        devices=list(result.devices),
        channel=result.channel,
        total_traffic_bytes=result.total_traffic_bytes,
        security_cache_misses=result.security_cache_misses,
        metrics=dict(result.metrics),
        engine=getattr(result, "engine", "scalar"),
    )


# ----------------------------------------------------------------------
# Scenario/scheme fan-out
# ----------------------------------------------------------------------

#: One unit of worker work: schemes ``names`` replayed over the
#: already-built ``traces`` of one scenario.
_ChunkTask = Tuple[Tuple[Trace, ...], int, Tuple[str, ...], SoCConfig, bool]


def _run_chunk(task: _ChunkTask) -> List[Tuple[str, SlimRunResult]]:
    """Worker body: run one scheme chunk over shared traces."""
    traces, footprint, names, config, warmup = task
    results = _run_schemes_over_traces(
        list(traces), footprint, names, config, warmup
    )
    return [(name, slim_result(results[name])) for name in names]


def _scheme_chunks(
    names: Sequence[str], parts: int
) -> List[Tuple[str, ...]]:
    """Split a scheme list into ``parts`` contiguous near-equal chunks."""
    parts = max(1, min(parts, len(names)))
    size, extra = divmod(len(names), parts)
    chunks: List[Tuple[str, ...]] = []
    start = 0
    for i in range(parts):
        width = size + (1 if i < extra else 0)
        chunks.append(tuple(names[start:start + width]))
        start += width
    return chunks


def _chunks_per_scenario(n_scenarios: int, workers: int) -> int:
    if n_scenarios and workers > n_scenarios:
        return -(-workers // n_scenarios)  # ceil
    return 1


def _task_key(index: int, scenario_name: str, chunk: Sequence[str]) -> str:
    """Stable checkpoint/event key of one (scenario, scheme-chunk) task."""
    return f"{index:03d}:{scenario_name}:{'+'.join(chunk)}"


def sweep_task_keys(
    scenarios: Sequence[Scenario],
    scheme_names: Sequence[str],
    jobs: Optional[int] = None,
) -> List[str]:
    """The task keys :func:`run_scenarios` will checkpoint for this sweep.

    Exposed so the chaos harness can target specific tasks (e.g. hang
    exactly one) and tests can count committed results without
    rerunning the key derivation by hand.  Keys depend on the chunking
    and hence on ``jobs``: a sweep checkpointed at one worker count
    re-executes at another, because its task digests differ.
    """
    workers = resolve_jobs(jobs)
    per_scenario = _chunks_per_scenario(len(scenarios), workers)
    keys: List[str] = []
    for index, scenario in enumerate(scenarios):
        for chunk in _scheme_chunks(list(scheme_names), per_scenario):
            keys.append(_task_key(index, scenario.name, chunk))
    return keys


def _traces_digest(trace_sets: Sequence[Sequence[Trace]]) -> str:
    """SHA-256 over the pickled trace sets of a simulation fan-out.

    Its tasks are functions of these traces, so a checkpoint context
    that pins them shares results only between runs that simulate the
    same requests, whatever scenario, seed or duration built them.
    """
    hasher = hashlib.sha256()
    for traces in trace_sets:
        hasher.update(pickle.dumps(tuple(traces), protocol=4))
    return hasher.hexdigest()


def _execute_tasks(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    keys: Sequence[str],
    kind: str,
    context: Callable[[], str],
    jobs: Optional[int],
) -> List[R]:
    """Route a fan-out through the ambient supervisor.

    ``context`` is only built for a checkpointing supervisor, the one
    consumer of task digests.
    """
    supervisor = current_supervisor()
    return supervisor.map(
        fn, tasks, keys=keys, kind=kind,
        context=context() if supervisor.checkpointing else "", jobs=jobs,
    )


def run_scenarios(
    scenarios: Sequence[Scenario],
    scheme_names: Sequence[str],
    config: Optional[SoCConfig] = None,
    duration_cycles: Optional[float] = None,
    seed: int = 0,
    warmup: bool = True,
    jobs: Optional[int] = None,
) -> List[Tuple[Scenario, Dict[str, AnyRunResult]]]:
    """Fan a scenario x scheme cross-product out over worker processes.

    Traces are built once per scenario *in the parent* (sharing them
    across that scenario's schemes, exactly like the serial runner) and
    shipped to workers.  When there are at least as many scenarios as
    workers each task is one whole scenario; otherwise each scenario's
    scheme list is split into contiguous chunks so all workers stay
    busy even for a single-scenario call.

    The reduce is ordered: the returned list follows ``scenarios`` and
    each result dict follows ``scheme_names``, so output is
    byte-identical to :func:`repro.sim.runner.run_many` -- the parity
    suite in ``tests/integration/test_parallel_parity.py`` asserts this.
    A one-scenario call is how ``run_scenario`` fans out its schemes.
    """
    config = config or SoCConfig()
    duration = duration_cycles if duration_cycles is not None else sim_duration()
    workers = resolve_jobs(jobs)
    scheme_names = list(scheme_names)

    built = [scenario.build_traces(duration, seed) for scenario in scenarios]
    chunks_per_scenario = _chunks_per_scenario(len(scenarios), workers)
    tasks: List[_ChunkTask] = []
    keys: List[str] = []
    shape: List[int] = []  # chunks per scenario, for the reduce
    for index, ((traces, footprint), scenario) in enumerate(
        zip(built, scenarios)
    ):
        chunks = _scheme_chunks(scheme_names, chunks_per_scenario)
        shape.append(len(chunks))
        for chunk in chunks:
            tasks.append((tuple(traces), footprint, chunk, config, warmup))
            keys.append(_task_key(index, scenario.name, chunk))

    def context() -> str:
        return "|".join(
            [
                "sweep",
                ",".join(scheme_names),
                f"traces={_traces_digest([traces for traces, _ in built])}",
                f"warmup={warmup}",
                f"config={config!r}",
            ]
        )

    chunk_results = _execute_tasks(
        _run_chunk, tasks, keys, "sweep", context, workers
    )

    out: List[Tuple[Scenario, Dict[str, AnyRunResult]]] = []
    cursor = 0
    for scenario, count in zip(scenarios, shape):
        merged: Dict[str, AnyRunResult] = {}
        for chunk_result in chunk_results[cursor:cursor + count]:
            merged.update(chunk_result)
        cursor += count
        # Reassemble in scheme_names order regardless of chunking.
        out.append((scenario, {name: merged[name] for name in scheme_names}))
    return out

"""Supervised resilient execution: timeouts, retries, checkpoint/resume.

A bare ``pool.map`` treats worker processes as infallible: it has no
per-task timeout, cannot tell a dead worker from a buggy task, and
throws away every finished cell when the parent dies at cell 200/216
of a campaign.  Every fan-out (:mod:`repro.sim.parallel`, the fault
campaign) therefore runs through this module, the one executor, which
supplies the supervision discipline of real fleets:

* **Future-based dispatch with hang detection** -- every task is
  submitted individually, two per worker in flight, and watched
  against a wall-clock deadline; a hung worker is killed (the whole
  pool is recycled, the victim's innocent neighbours are requeued
  uncharged) instead of stalling the run forever.
* **Bounded retries with jittered exponential backoff** -- transient
  failures (``BrokenProcessPool``, timeouts, exceptions whose class
  sets ``transient = True``) are retried up to
  :attr:`ResiliencePolicy.max_retries` times; *deterministic* task
  errors are retried once and then re-raised -- never silently
  replayed serially, which would re-execute side effects and mask
  real bugs as slow passes.
* **Graceful degradation** -- repeated pool breakage shrinks the
  worker count stepwise down to :attr:`ResiliencePolicy.min_workers`;
  a task that exhausts its transient retries falls back to running
  serially *in the parent*, for that task only.
* **Content-addressed checkpoint** -- with a run id every finished
  task is committed once, atomically, into the result store under
  ``<runs-dir>/store/``, keyed by a digest of what the task runs on
  what; any later run of the same cells (``--resume``, or a fresh
  run id) reuses the valid blobs and re-executes only the rest, so
  its output is byte-identical to an uninterrupted run.

Every supervision event (retry, timeout, degrade, reuse) is
emitted through :mod:`repro.obs` as a trace event and counted in the
``resilience`` metrics group.  ``docs/resilience.md`` documents the
model, the store layout and the CLI flags.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
import time
import uuid
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.common.canonical import digest_text
from repro.obs import EventType

logger = logging.getLogger("repro.resilient")

T = TypeVar("T")
R = TypeVar("R")

#: Committed-result schema; bump on any incompatible envelope change.
RESULT_SCHEMA = "repro-result/v1"
#: Folded into every task digest (the content address of one task).
TASK_SCHEMA = "repro-task/v1"

#: Upper bound on one supervision-loop wait, so deadlines and backoff
#: expiries are re-checked promptly even when nothing completes.
_TICK_SECONDS = 0.25

#: Supervision counters pre-declared at zero so a clean run's summary
#: *shows* ``retries=0`` instead of omitting the group entirely.
RESILIENCE_COUNTERS = (
    "exec_retry",
    "exec_timeout",
    "exec_degrade",
    "exec_resume_skip",
    "result_dropped",
)


class ExecutionAborted(RuntimeError):
    """The supervised run was interrupted before finishing all tasks."""


class LostResultError(RuntimeError):
    """A worker computed a result that never reached the parent.

    Marked ``transient``: the supervisor retries it like a worker
    death rather than raising it as a task bug.
    """

    transient = True


# ----------------------------------------------------------------------
# Policy and accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the supervised executor (all per-task unless noted)."""

    #: Wall-clock seconds one task may run before its pool is killed
    #: and the task retried as a transient failure.  ``None`` disables
    #: hang detection.
    timeout_seconds: Optional[float] = None
    #: Max retries of *transient* failures (worker death, timeout,
    #: lost result) before the task falls back to serial in the parent.
    max_retries: int = 3
    #: Retries granted to a *deterministic* task exception before it is
    #: re-raised to the caller.
    task_error_retries: int = 1
    #: First backoff delay; doubles per attempt up to the cap.
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    #: Pool breakages tolerated before the worker count is halved.
    degrade_after_breaks: int = 2
    min_workers: int = 1
    #: Folded into the deterministic backoff jitter.
    seed: int = 0

    def backoff(self, key: str, attempt: int) -> float:
        """Jittered exponential backoff for retry ``attempt`` (1-based).

        The jitter is derived from ``(seed, key, attempt)`` so reruns
        of the same supervision story sleep the same amounts --
        supervision must never introduce nondeterminism of its own.
        """
        base = min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2 ** max(0, attempt - 1)),
        )
        digest = hashlib.blake2b(
            f"{self.seed}:{key}:{attempt}".encode(), digest_size=8
        ).digest()
        jitter = int.from_bytes(digest, "little") / 2**64  # [0, 1)
        return base * (0.5 + jitter)


@dataclass
class SupervisionReport:
    """Counters of everything the supervisor did across one run."""

    attempts: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    degrades: int = 0
    serial_fallbacks: int = 0
    #: Tasks served from the checkpoint store instead of executed.
    resume_skips: int = 0
    #: Present but invalid store blobs (torn, corrupt, another schema
    #: or task) whose tasks re-executed.
    dropped_results: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "attempts": self.attempts,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_breaks": self.pool_breaks,
            "degrades": self.degrades,
            "serial_fallbacks": self.serial_fallbacks,
            "resume_skips": self.resume_skips,
            "dropped_results": self.dropped_results,
        }

    def summary(self) -> str:
        return (
            f"supervision: {self.completed} completed "
            f"({self.resume_skips} resumed), {self.attempts} attempts, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.pool_breaks} pool breaks, {self.degrades} degrades, "
            f"{self.serial_fallbacks} serial fallbacks"
        )


# ----------------------------------------------------------------------
# Content-addressed result store (the checkpoint)
# ----------------------------------------------------------------------

#: Root of the ``repro`` package whose sources :func:`code_fingerprint`
#: hashes.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@lru_cache(maxsize=None)
def code_fingerprint(package: Path = PACKAGE_ROOT) -> str:
    """SHA-256 over every ``.py`` source under ``package``.

    Computed once per process.  Folded into every task digest, so a
    blob written by another code tree has another address: after any
    source change its tasks re-execute instead of replaying results
    of the old code.
    """
    hasher = hashlib.sha256()
    for source in sorted(package.rglob("*.py")):
        hasher.update(source.relative_to(package).as_posix().encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(source.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def task_digest(kind: str, context: str, key: str, fn: Callable) -> str:
    """Content address of one task: what it runs, on what, under what.

    Pins the code tree (:func:`code_fingerprint`) as well.  Independent
    of the run id and, for kinds whose keys are (campaign cells), of
    the worker count, so a warm store serves any later run of the same
    cells by the same code.
    """
    return digest_text(
        "|".join(
            [
                TASK_SCHEMA,
                code_fingerprint(),
                kind,
                digest_text(context),
                key,
                f"{fn.__module__}:{fn.__qualname__}",
            ]
        )
    )


#: What :meth:`ResultStore.load` returns for an absent or invalid blob.
MISSING = object()


class ResultStore:
    """Immutable result blobs keyed by task digest, committed at most once.

    A blob is one JSON envelope at ``<root>/<digest[:2]>/<digest>.json``::

        {"schema": "repro-result/v1", "task": <digest>, "key": ...,
         "payload": <b64 pickle>, "digest": <sha256 of payload>}

    Commit writes a private temp file, fsyncs it, then ``os.link``\\ s
    it to the final path -- an atomic create-if-absent, so exactly one
    committer's bytes land no matter how many raced.  One heal rule
    covers every kind of damage: a blob that is torn, has flipped
    bytes, carries another schema or another task's digest, or no
    longer unpickles reads as *absent*; its task re-executes, and the
    commit unlinks the invalid occupant and retries the link once.

    Payloads are pickles of this tree's classes: a store is valid only
    for the code that wrote it (task digests pin the code tree, so
    another tree's blobs are never looked up), and must never be read
    from untrusted sources.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def commit(self, digest: str, key: str, value: object) -> bool:
        """Durably publish one result; ``True`` iff this call won.

        Losing the race (a valid blob already exists) leaves the
        earlier bytes in place and discards ours unread.
        """
        payload = base64.b64encode(pickle.dumps(value, protocol=4)).decode(
            "ascii"
        )
        envelope = json.dumps(
            {
                "schema": RESULT_SCHEMA,
                "task": digest,
                "key": key,
                "payload": payload,
                "digest": digest_text(payload),
            },
            sort_keys=True,
        )
        final = self.path(digest)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(f".{digest}.{uuid.uuid4().hex[:8]}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(envelope)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            for _attempt in (0, 1):
                try:
                    os.link(tmp, final)
                    return True
                except FileExistsError:
                    if self.load(digest) is not MISSING:
                        return False  # a valid result beat us; defer to it
                    final.unlink(missing_ok=True)  # heal, then relink once
            return self.load(digest) is not MISSING
        finally:
            tmp.unlink(missing_ok=True)

    def payload(self, digest: str) -> Optional[str]:
        """The payload text of a well-formed blob of ``digest``, else None.

        Checks the envelope only -- schema, task digest and payload
        digest -- and never unpickles.
        """
        try:
            env = json.loads(self.path(digest).read_text(encoding="utf-8"))
            payload = env["payload"]
            valid = (
                env["schema"] == RESULT_SCHEMA
                and env["task"] == digest
                and digest_text(payload) == env["digest"]
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None  # absent, torn or malformed
        return payload if valid else None

    def load(self, digest: str) -> object:
        """The committed value of ``digest``, or :data:`MISSING`.

        An invalid blob is never returned: it reads as absent.
        """
        payload = self.payload(digest)
        if payload is None:
            return MISSING
        try:
            return pickle.loads(base64.b64decode(payload))
        except Exception:  # pickled against classes that have changed
            return MISSING

    def blobs(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return iter(sorted(self.root.glob("*/*.json")))


def default_store_dir(runs_dir: os.PathLike) -> Path:
    """The store shared by every run under one runs directory."""
    return Path(runs_dir) / "store"


# ----------------------------------------------------------------------
# The supervised map
# ----------------------------------------------------------------------

def _emit(obs, etype: EventType, count: int = 1, **payload: object) -> None:
    """Trace + count one supervision event through an ObsContext."""
    if obs is None:
        return
    tracer = getattr(obs, "tracer", None)
    if tracer:
        tracer.emit(etype, cycle=time.monotonic(), **payload)
    registry = getattr(obs, "registry", None)
    if registry is not None:
        registry.group("resilience").bump(etype.value, count)


def _infrastructure_failure(exc: BaseException) -> bool:
    """Pool/pickling plumbing failures, as opposed to task logic errors.

    ``BrokenExecutor`` covers dead workers and fork refusal; pickling
    failures surface as :class:`pickle.PicklingError` or -- depending
    on what exactly refused to serialize, e.g. a function defined
    inside another -- as a ``TypeError`` or ``AttributeError`` whose
    message names pickling (a heuristic, but the cost of a miss is only
    a serial rerun of a pure function).
    """
    if isinstance(exc, (BrokenExecutor, OSError, pickle.PicklingError)):
        return True
    return (
        isinstance(exc, (TypeError, AttributeError))
        and "pickle" in str(exc).lower()
    )


def _chaos_invoke(fn, item, chaos, key: str, attempt: int):
    """Worker body under chaos: consult the spec, then run the task.

    Top-level (picklable) on purpose; ``chaos`` is any picklable object
    with a ``decide(key, attempt) -> Optional[str]`` method (see
    :class:`repro.faults.exec_chaos.ChaosSpec`).
    """
    action = chaos.decide(key, attempt)
    if action == "crash":
        os._exit(17)  # simulate a hard worker death (OOM-kill, segfault)
    if action == "hang":
        # Sleep long enough for the timeout to fire, but bounded so a
        # chaos run without hang detection still terminates.
        time.sleep(chaos.hang_seconds)
    elif action == "lose":
        raise LostResultError(f"chaos dropped the result of {key!r}")
    return fn(item)


def _submit(pool, fn, item, chaos, key: str, attempt: int) -> Future:
    if chaos is not None and hasattr(chaos, "decide"):
        return pool.submit(_chaos_invoke, fn, item, chaos, key, attempt)
    return pool.submit(fn, item)


def _terminate_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down hard, killing hung or runaway workers."""
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.join(timeout=5.0)


def _start_clocks(
    inflight: Dict[Future, int], clocks: Dict[Future, float], workers: int
) -> None:
    """Start the clock of each of the ``workers`` oldest tasks running."""
    now = time.monotonic()
    for future in islice(inflight, workers):
        if future not in clocks and future.running():
            clocks[future] = now


def _break_suspects(inflight: Dict[Future, int], workers: int) -> set:
    """The ``workers`` oldest tasks unfinished when the pool broke."""
    unfinished = (
        future
        for future in inflight
        if not future.done() or isinstance(future.exception(), BrokenProcessPool)
    )
    return set(islice(unfinished, workers))


def _wait_timeout(
    policy: ResiliencePolicy, clocks: Dict[Future, float]
) -> float:
    if policy.timeout_seconds is None or not clocks:
        return _TICK_SECONDS
    nearest = min(clocks.values()) + policy.timeout_seconds - time.monotonic()
    return max(0.01, min(_TICK_SECONDS, nearest))


def _task_keys(keys: Optional[Sequence[str]], count: int) -> List[str]:
    """Validated task keys: stable, unique, one per item."""
    if keys is None:
        return [f"task-{i:04d}" for i in range(count)]
    keys = [str(key) for key in keys]
    if len(keys) != count:
        raise ValueError("keys must match items one-to-one")
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique")
    return keys


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    *,
    keys: Optional[Sequence[str]] = None,
    policy: Optional[ResiliencePolicy] = None,
    commit: Optional[Callable[[int, R], object]] = None,
    obs=None,
    chaos=None,
    report: Optional[SupervisionReport] = None,
) -> List[R]:
    """``[fn(x) for x in items]`` under full supervision.

    Results come back in input order.  ``fn`` must be a module-level
    pure function over picklable arguments.  ``jobs <= 1`` or a single
    item runs in-process; a task that cannot reach a worker (pickling
    failure) or exhausts its transient retries runs serially in the
    parent, with a warning.  A deterministic task error is retried once
    and then **raised** -- it is never replayed serially, which would
    re-execute side effects and disguise a bug as a slow pass.

    ``keys`` (stable, unique, one per item) name tasks in supervision
    events; ``commit(index, value)`` runs for every finished task
    before the map moves on (the checkpoint hook :class:`Supervisor`
    uses); ``chaos`` injects seeded failures (tests/CI); ``obs``
    receives trace events and ``resilience`` counters; ``report``
    accumulates counters across calls.
    """
    from repro.sim.parallel import resolve_jobs  # lazy: parallel imports us

    items = list(items)
    policy = policy or ResiliencePolicy()
    report = report if report is not None else SupervisionReport()
    keys = _task_keys(keys, len(items))

    results: Dict[int, R] = {}
    abort_after = getattr(chaos, "abort_after", None)

    def finish(index: int, value: R) -> None:
        results[index] = value
        report.completed += 1
        if commit is not None:
            commit(index, value)
        if abort_after is not None and len(results) >= abort_after:
            raise ExecutionAborted(
                f"aborted after {len(results)} completed tasks (chaos)"
            )

    workers = min(resolve_jobs(jobs), max(1, len(items)))
    if workers > 1:
        _supervise(
            fn, items, keys, workers, policy, obs, chaos, report, finish,
        )
    else:
        for index in range(len(items)):
            report.attempts += 1
            finish(index, fn(items[index]))
    return [results[index] for index in range(len(items))]


def _supervise(
    fn,
    items: Sequence,
    keys: Sequence[str],
    workers: int,
    policy: ResiliencePolicy,
    obs,
    chaos,
    report: SupervisionReport,
    finish: Callable[[int, object], None],
) -> None:
    """The parallel supervision loop (see module docstring).

    Up to ``2 * workers`` tasks are in flight, so a finishing worker
    finds its next task queued, also while the parent commits a result.
    ``inflight`` keeps submission order, the order in which the pool
    hands calls to workers, so every executing task is among the
    ``workers`` oldest unfinished ones; ``running()`` alone cannot tell,
    as CPython reports it for the up to ``workers + 1`` calls waiting in
    its call queue.  So a task's timeout clock starts the first time it
    reports ``running()`` among the ``workers`` oldest (tasks queued
    behind a hang are never charged), and a broken pool charges only
    those oldest unfinished tasks.  A clock starts early only by the
    time a free worker takes to pick the call up (at pool start, its
    spawn time), and late by at most one loop pass: at least every
    ``_TICK_SECONDS`` (0.25 s), plus what that pass runs in the parent
    (commits, a serial fallback).
    """
    queue = deque(range(len(items)))
    ready_at: Dict[int, float] = {}
    transient: Dict[int, int] = {}
    errors: Dict[int, int] = {}
    inflight: Dict[Future, int] = {}  # -> task index, in submission order
    clocks: Dict[Future, float] = {}  # -> when its timeout clock started
    pool: Optional[ProcessPoolExecutor] = None
    breaks_since_degrade = 0

    def serial_fallback(index: int, why: str) -> None:
        report.serial_fallbacks += 1
        _emit(obs, EventType.EXEC_DEGRADE, scope="task", key=keys[index],
              why=why)
        logger.warning(
            "task %s: %s; running it serially in the parent", keys[index], why
        )
        report.attempts += 1
        finish(index, fn(items[index]))

    def transient_failure(index: int, why: str) -> None:
        transient[index] = transient.get(index, 0) + 1
        if transient[index] > policy.max_retries:
            serial_fallback(
                index, f"exhausted {policy.max_retries} transient retries"
            )
            return
        report.retries += 1
        delay = policy.backoff(keys[index], transient[index])
        ready_at[index] = time.monotonic() + delay
        _emit(obs, EventType.EXEC_RETRY, key=keys[index],
              attempt=transient[index], delay_seconds=round(delay, 4),
              why=why)
        queue.append(index)

    def task_failure(index: int, exc: BaseException) -> None:
        errors[index] = errors.get(index, 0) + 1
        if errors[index] > policy.task_error_retries:
            logger.error(
                "task %s failed deterministically (%s: %s); raising",
                keys[index], type(exc).__name__, exc,
            )
            raise exc
        report.retries += 1
        delay = policy.backoff(keys[index], errors[index])
        ready_at[index] = time.monotonic() + delay
        _emit(obs, EventType.EXEC_RETRY, key=keys[index],
              attempt=errors[index], delay_seconds=round(delay, 4),
              why=f"task error {type(exc).__name__}")
        queue.append(index)

    def recycle_pool() -> None:
        nonlocal pool, breaks_since_degrade, workers
        _terminate_pool(pool)
        pool = None
        report.pool_breaks += 1
        breaks_since_degrade += 1
        if (
            breaks_since_degrade >= policy.degrade_after_breaks
            and workers > policy.min_workers
        ):
            workers = max(policy.min_workers, workers // 2)
            breaks_since_degrade = 0
            report.degrades += 1
            _emit(obs, EventType.EXEC_DEGRADE, scope="pool", workers=workers)
            logger.warning(
                "repeated worker loss: degrading the pool to %d workers",
                workers,
            )

    def drain_inflight_uncharged() -> None:
        # A broken/killed pool poisons every in-flight future; the
        # innocents go back to the queue without a retry charge.
        queue.extend(inflight.values())
        inflight.clear()
        clocks.clear()

    try:
        while queue or inflight:
            now = time.monotonic()
            for _ in range(len(queue)):
                if len(inflight) >= 2 * workers:
                    break
                index = queue.popleft()
                if ready_at.get(index, 0.0) > now:
                    queue.append(index)  # still backing off
                    continue
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                attempt = transient.get(index, 0) + errors.get(index, 0)
                report.attempts += 1
                try:
                    future = _submit(
                        pool, fn, items[index], chaos, keys[index], attempt
                    )
                except BrokenProcessPool:
                    queue.append(index)
                    drain_inflight_uncharged()
                    recycle_pool()
                    break
                inflight[future] = index

            if not inflight:
                # Everything queued is backing off; sleep until the
                # soonest task becomes ready again.
                wake = min(
                    (ready_at.get(index, now) for index in queue),
                    default=now,
                )
                time.sleep(max(0.005, min(wake - now, _TICK_SECONDS)))
                continue

            if policy.timeout_seconds is not None:
                _start_clocks(inflight, clocks, workers)
            done, _ = wait(
                set(inflight),
                timeout=_wait_timeout(policy, clocks),
                return_when=FIRST_COMPLETED,
            )
            broken = any(
                isinstance(future.exception(), BrokenProcessPool) for future in done
            )
            suspects = _break_suspects(inflight, workers) if broken else set()
            for future in done:
                index = inflight.pop(future)
                clocks.pop(future, None)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    if future in suspects:
                        transient_failure(index, "worker died")
                    else:
                        queue.append(index)  # still queued: uncharged
                except Exception as exc:
                    if getattr(exc, "transient", False):
                        transient_failure(index, type(exc).__name__)
                    elif _infrastructure_failure(exc):
                        # e.g. an unpicklable payload: not a task bug,
                        # but retrying in a worker cannot help either.
                        serial_fallback(
                            index,
                            f"infrastructure failure "
                            f"({type(exc).__name__}: {exc})",
                        )
                    else:
                        task_failure(index, exc)
                else:
                    finish(index, value)
            if broken:
                drain_inflight_uncharged()
                recycle_pool()
                continue

            if policy.timeout_seconds is not None and clocks:
                now = time.monotonic()
                overdue = [
                    (future, started)
                    for future, started in clocks.items()
                    if now - started > policy.timeout_seconds
                ]
                if overdue:
                    for future, started in overdue:
                        index = inflight.pop(future)
                        report.timeouts += 1
                        _emit(obs, EventType.EXEC_TIMEOUT, key=keys[index],
                              seconds=round(now - started, 3))
                        logger.warning(
                            "task %s exceeded its %.1fs timeout; killing "
                            "its worker pool", keys[index],
                            policy.timeout_seconds,
                        )
                        transient_failure(index, "timeout")
                    drain_inflight_uncharged()
                    recycle_pool()
    finally:
        _terminate_pool(pool)


# ----------------------------------------------------------------------
# Supervisor: policy + checkpoint + chaos bundled for the fan-out callers
# ----------------------------------------------------------------------

def default_runs_dir() -> Path:
    return Path(os.environ.get("REPRO_RUNS_DIR") or "runs")


class Supervisor:
    """One run's supervision state: policy, checkpoint root, chaos, obs.

    The scenario/scheme and campaign fan-outs all run through
    :meth:`map`.  With a ``run_id`` every call is checkpointed
    in the content-addressed :class:`ResultStore` shared by all runs
    under ``runs_dir``: valid blobs are reused, every finished task is
    committed, and anything absent or invalid re-executes.  Reusing a
    run id (``--resume``) and starting a fresh one behave the same;
    the run directory ``<runs-dir>/<run-id>/`` is created and touched
    on each call, which anchors ``repro gc``'s LRU cutoff.
    """

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        run_id: Optional[str] = None,
        runs_dir: Optional[os.PathLike] = None,
        chaos=None,
        obs=None,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.run_id = run_id
        self.runs_dir = Path(runs_dir) if runs_dir is not None else (
            default_runs_dir()
        )
        self.chaos = chaos
        self.obs = obs
        self.report = SupervisionReport()
        if obs is not None:
            registry = getattr(obs, "registry", None)
            if registry is not None:
                registry.group("resilience").declare(*RESILIENCE_COUNTERS)

    @property
    def checkpointing(self) -> bool:
        return self.run_id is not None

    def run_dir(self) -> Path:
        if self.run_id is None:
            raise ValueError("supervisor has no run_id")
        return self.runs_dir / self.run_id

    def store_dir(self) -> Path:
        """The content-addressed result store shared across runs."""
        return default_store_dir(self.runs_dir)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        keys: Optional[Sequence[str]] = None,
        kind: str = "map",
        context: str = "",
        jobs: Optional[int] = None,
    ) -> List[R]:
        """Supervised ordered map, checkpointed when ``run_id`` is set."""
        if not self.checkpointing:
            return supervised_map(
                fn, items, jobs,
                keys=keys, policy=self.policy, obs=self.obs,
                chaos=self.chaos, report=self.report,
            )
        if keys is None:
            raise ValueError("checkpointing requires stable task keys")
        items = list(items)
        keys = _task_keys(keys, len(items))
        run_dir = self.run_dir()
        run_dir.mkdir(parents=True, exist_ok=True)
        os.utime(run_dir)
        store = ResultStore(self.store_dir())
        digests = [task_digest(kind, context, key, fn) for key in keys]
        results: Dict[int, R] = {}
        pending: List[int] = []
        for index, digest in enumerate(digests):
            value = store.load(digest)
            if value is MISSING:
                pending.append(index)
                if store.path(digest).exists():
                    # Damage must be observable: this task re-executes
                    # and its commit heals the blob.
                    self.report.dropped_results += 1
                    _emit(self.obs, EventType.RESULT_DROPPED, key=keys[index])
                    logger.warning(
                        "store blob of task %s is invalid; re-executing it",
                        keys[index],
                    )
                continue
            results[index] = value  # type: ignore[assignment]
            self.report.resume_skips += 1
            _emit(self.obs, EventType.EXEC_RESUME_SKIP, key=keys[index])
            try:
                os.utime(store.path(digest))  # LRU signal for `repro gc`
            except OSError:
                pass

        def commit(position: int, value: R) -> None:
            index = pending[position]
            store.commit(digests[index], keys[index], value)

        fresh = supervised_map(
            fn, [items[index] for index in pending], jobs,
            keys=[keys[index] for index in pending], policy=self.policy,
            commit=commit, obs=self.obs, chaos=self.chaos,
            report=self.report,
        )
        results.update(zip(pending, fresh))
        return [results[index] for index in range(len(items))]


# ----------------------------------------------------------------------
# Ambient supervision: the fan-outs consult this instead of plumbing a
# supervisor argument through every experiment signature.
# ----------------------------------------------------------------------

_ACTIVE: List[Supervisor] = []


@contextmanager
def supervision(supervisor: Optional[Supervisor]) -> Iterator[Optional[Supervisor]]:
    """Make ``supervisor`` the ambient executor for the enclosed calls.

    ``supervision(None)`` is a no-op context, so CLI plumbing can pass
    through unconditionally.
    """
    if supervisor is None:
        yield None
        return
    _ACTIVE.append(supervisor)
    try:
        yield supervisor
    finally:
        _ACTIVE.pop()


def current_supervisor() -> Supervisor:
    """The supervisor the fan-outs should use right now.

    The innermost activated supervisor, else a fresh stateless
    :class:`Supervisor`: supervision on, checkpointing off.
    """
    return _ACTIVE[-1] if _ACTIVE else Supervisor()

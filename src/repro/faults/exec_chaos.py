"""Execution-chaos harness: seeded failures aimed at the executor.

PR 4's differential oracle checks the *layout math*; this module is
its twin for the *execution layer*.  It injects worker crashes, hangs,
lost results, parent kills and checkpoint-store damage at seeded rates
into supervised sweeps and campaign slices, then asserts the one
property the resilience layer promises: **final payloads are
byte-identical to a clean serial run**, no matter what the executor
survived along the way.

Driven by ``python -m repro chaos`` and the chaos CI job; the same
:class:`ChaosSpec` plugs into any :class:`repro.sim.resilient.Supervisor`
for targeted tests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.resilient import (
    MISSING,
    ExecutionAborted,
    ResiliencePolicy,
    ResultStore,
    Supervisor,
    default_store_dir,
    supervision,
)

#: Default wall-clock budget for one task before the supervisor kills
#: its pool (chaos hangs sleep well past this).
DEFAULT_TIMEOUT_SECONDS = 15.0


# ----------------------------------------------------------------------
# The injection spec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosSpec:
    """Seeded, picklable failure-injection plan for supervised maps.

    ``decide(key, attempt)`` is consulted *inside the worker* before
    the real task body runs and returns one of ``"crash"`` (hard
    ``os._exit``), ``"hang"`` (sleep past the supervision timeout),
    ``"lose"`` (raise a transient :class:`LostResultError`) or ``None``.
    Decisions are pure functions of ``(seed, key, attempt)`` so a chaos
    story replays identically, and no fault fires at or beyond
    ``fault_attempts`` -- every task is guaranteed to succeed within
    the retry budget, which is what lets the harness demand
    byte-identical output.

    ``abort_after`` is parent-side chaos: the supervised map raises
    :class:`ExecutionAborted` after that many *live* completions,
    simulating a killed run for checkpoint/resume tests.
    """

    seed: int = 0
    crash_rate: float = 0.0
    lost_rate: float = 0.0
    hang_keys: Tuple[str, ...] = ()
    hang_seconds: float = 60.0
    fault_attempts: int = 2
    abort_after: Optional[int] = None

    def _uniform(self, key: str, attempt: int) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}:{key}:{attempt}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") / 2**64

    def decide(self, key: str, attempt: int) -> Optional[str]:
        if attempt >= self.fault_attempts:
            return None
        if key in self.hang_keys and attempt == 0:
            return "hang"
        roll = self._uniform(key, attempt)
        if roll < self.crash_rate:
            return "crash"
        if roll < self.crash_rate + self.lost_rate:
            return "lose"
        return None


# ----------------------------------------------------------------------
# Store damage helpers (tests + the harness's own sections)
# ----------------------------------------------------------------------

def valid_blobs(store: ResultStore) -> List[Path]:
    """Paths of the store's valid blobs (the committed-task count)."""
    return [
        path for path in store.blobs() if store.load(path.stem) is not MISSING
    ]


def _rewrite_envelope(path: Path, **changes: str) -> None:
    env = json.loads(Path(path).read_text(encoding="utf-8"))
    env.update(changes)
    Path(path).write_text(json.dumps(env, sort_keys=True), encoding="utf-8")


def corrupt_blob(path: Path) -> None:
    """Flip one character inside a blob's payload (fails its digest)."""
    env = json.loads(Path(path).read_text(encoding="utf-8"))
    payload = env["payload"]
    pos = len(payload) // 2
    flipped = "A" if payload[pos] != "A" else "B"
    _rewrite_envelope(
        path, payload=payload[:pos] + flipped + payload[pos + 1:]
    )


def tear_blob(path: Path) -> None:
    """Cut a blob in half: the residue of a non-atomic writer's crash."""
    raw = Path(path).read_text(encoding="utf-8")
    Path(path).write_text(raw[: len(raw) // 2], encoding="utf-8")


def break_blob_schema(path: Path) -> None:
    """Stamp another schema version into an otherwise valid blob."""
    _rewrite_envelope(path, schema="repro-result/v0")


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------

@dataclass
class ChaosSection:
    """One pass/fail check of the chaos story."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """All sections of one ``repro chaos`` run."""

    sections: List[ChaosSection] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.sections.append(ChaosSection(name, passed, detail))

    def format(self) -> str:
        lines = ["# execution chaos"]
        for section in self.sections:
            mark = "PASS" if section.passed else "FAIL"
            lines.append(f"[{mark}] {section.name}: {section.detail}")
        lines.append(
            "chaos CLEAN (all payloads byte-identical)"
            if self.passed
            else "chaos FAILED"
        )
        return "\n".join(lines)


def _sweep_payloads(
    sample: int,
    duration: float,
    seed: int,
    schemes: Sequence[str],
    jobs: int,
) -> List[str]:
    """Canonical JSON payloads of one sweep (the byte-parity currency)."""
    from repro.experiments.sweep import canonical_payloads
    from repro.sim.runner import clear_static_best_cache, run_many, sweep_scenarios
    from repro.sim.scenario import all_scenarios

    clear_static_best_cache()
    scenarios = sweep_scenarios(all_scenarios(), sample)
    results = run_many(
        scenarios, schemes, duration_cycles=duration, seed=seed, jobs=jobs
    )
    return canonical_payloads(results, schemes)


def _sweep_keys(sample: int, schemes: Sequence[str], jobs: int) -> List[str]:
    from repro.sim.parallel import sweep_task_keys
    from repro.sim.runner import sweep_scenarios
    from repro.sim.scenario import all_scenarios

    scenarios = sweep_scenarios(all_scenarios(), sample)
    return sweep_task_keys(scenarios, schemes, jobs)


def _campaign_json(config, jobs: int) -> str:
    from repro.faults.campaign import run_campaign

    return run_campaign(config, jobs=jobs).to_json()


def _probe_task(x: int) -> int:
    """Trivial picklable worker body for the hang-detection probe."""
    return x * x


def _hang_detection_section(
    report: ChaosReport,
    say: Callable[[str], None],
    seed: int,
) -> None:
    """Prove the timeout machinery bites, deterministically.

    The full chaos sweep cannot guarantee a timeout fires: a
    neighbour's crash can break the pool while the hang task is
    in-flight, charging it a transient retry before its deadline
    expires.  This probe injects exactly one hang with *no* crashes,
    so the only way the four tasks finish quickly is the supervisor
    killing the hung worker.
    """
    from repro.sim.resilient import SupervisionReport, supervised_map

    say("[chaos] hang-detection probe (1 hang, no crashes) ...")
    chaos = ChaosSpec(seed=seed, hang_keys=("probe-2",), hang_seconds=120.0)
    policy = ResiliencePolicy(timeout_seconds=2.0, seed=seed)
    stats = SupervisionReport()
    started = time.monotonic()
    out = supervised_map(
        _probe_task, [1, 2, 3, 4], jobs=2,
        keys=["probe-1", "probe-2", "probe-3", "probe-4"],
        policy=policy, chaos=chaos, report=stats,
    )
    wall = time.monotonic() - started
    ok = out == [1, 4, 9, 16] and stats.timeouts >= 1 and wall < 60.0
    report.add(
        "hang detection",
        ok,
        f"{stats.timeouts} timeouts, {stats.pool_breaks} pool breaks, "
        f"finished in {wall:.1f}s (hang slept 120s)",
    )


def run_chaos(
    sample: int = 6,
    duration: float = 800.0,
    seed: int = 0,
    crash_rate: float = 0.2,
    lost_rate: float = 0.0,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    schemes: Sequence[str] = ("conventional", "ours"),
    jobs: int = 2,
    runs_dir: Optional[Path] = None,
    skip_sweep: bool = False,
    skip_campaign: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full chaos story and return its pass/fail report.

    Sections (each asserting byte-parity against a clean serial run):

    1. **sweep under chaos** -- seeded worker crashes plus one injected
       hang; the supervised sweep must finish identical.
    2. **sweep kill + resume** -- abort the run after a few
       completions, then ``--resume``; exactly the tasks committed
       before the abort are reused and exactly the rest execute
       (verified by counting valid store blobs).
    3. **corrupt + torn blobs** -- flip a byte in one committed payload
       and cut another blob in half; a re-run must re-execute exactly
       those two tasks, heal both blobs and still match.
    4. **wrong-schema blob** -- a blob stamped with another schema is
       re-executed and healed, never replayed.
    5. **campaign under chaos** -- same crash story against the
       checkpointed fault-campaign fan-out.
    6. **warm-store reuse** -- the same campaign under a fresh run id
       must reuse >= 90% of its cells from the store.
    """
    report = ChaosReport()
    say = echo or (lambda _line: None)
    schemes = list(schemes)
    cleanup = runs_dir is None
    runs_root = Path(
        runs_dir if runs_dir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )

    policy = ResiliencePolicy(timeout_seconds=timeout, seed=seed)
    try:
        _hang_detection_section(report, say, seed)
        if not skip_sweep:
            _chaos_sweep_sections(
                report, say, runs_root, policy, sample, duration, seed,
                crash_rate, lost_rate, schemes, jobs, timeout,
            )
        if not skip_campaign:
            _chaos_campaign_section(
                report, say, runs_root, policy, seed, crash_rate, lost_rate,
                jobs,
            )
    finally:
        if cleanup:
            shutil.rmtree(runs_root, ignore_errors=True)
    return report


def _chaos_sweep_sections(
    report: ChaosReport,
    say: Callable[[str], None],
    runs_root: Path,
    policy: ResiliencePolicy,
    sample: int,
    duration: float,
    seed: int,
    crash_rate: float,
    lost_rate: float,
    schemes: Sequence[str],
    jobs: int,
    timeout: float,
) -> None:
    say(f"[chaos] clean serial sweep baseline (sample={sample}) ...")
    clean = _sweep_payloads(sample, duration, seed, schemes, jobs=1)
    keys = _sweep_keys(sample, schemes, jobs)

    # 1. crashes + one hang under supervision.
    say(
        f"[chaos] supervised sweep: crash_rate={crash_rate} "
        f"lost_rate={lost_rate} + 1 hang, jobs={jobs} ..."
    )
    chaos = ChaosSpec(
        seed=seed,
        crash_rate=crash_rate,
        lost_rate=lost_rate,
        hang_keys=(keys[len(keys) // 2],),
        hang_seconds=max(4 * timeout, 30.0),
    )
    supervisor = Supervisor(policy=policy, chaos=chaos)
    with supervision(supervisor):
        chaotic = _sweep_payloads(sample, duration, seed, schemes, jobs)
    stats = supervisor.report
    survived = (
        f"{stats.retries} retries, {stats.timeouts} timeouts, "
        f"{stats.pool_breaks} pool breaks, "
        f"{stats.serial_fallbacks} serial fallbacks"
    )
    # The hang may be pre-empted (a neighbour's crash breaks the pool
    # first, charging the hang task a retry) -- that is legitimate
    # supervision, so this section asserts parity plus *some* observed
    # turbulence; the dedicated hang-detection probe above proves the
    # timeout machinery itself.
    turbulent = stats.timeouts + stats.pool_breaks + stats.retries > 0
    report.add(
        "sweep under chaos",
        chaotic == clean and turbulent,
        f"payloads {'identical' if chaotic == clean else 'DIVERGED'} "
        f"after {survived}",
    )

    # 2. kill + resume: exactly the committed tasks are reused.
    say("[chaos] sweep kill + --resume cycle ...")
    run_id = "chaos-resume"
    sweep_root = runs_root / "sweep"
    store = ResultStore(default_store_dir(sweep_root))
    abort_after = max(1, len(keys) // 3)
    killer = Supervisor(
        policy=policy, run_id=run_id, runs_dir=sweep_root,
        chaos=ChaosSpec(seed=seed, abort_after=abort_after),
    )
    aborted = False
    try:
        with supervision(killer):
            _sweep_payloads(sample, duration, seed, schemes, jobs)
    except ExecutionAborted:
        aborted = True
    done_before = len(valid_blobs(store))

    def rerun() -> Tuple[List[str], Supervisor]:
        supervisor = Supervisor(
            policy=policy, run_id=run_id, runs_dir=sweep_root
        )
        with supervision(supervisor):
            payloads = _sweep_payloads(sample, duration, seed, schemes, jobs)
        return payloads, supervisor

    resumed, resumer = rerun()
    stats = resumer.report
    ok = (
        aborted
        and resumed == clean
        and stats.resume_skips == done_before
        and stats.completed == len(keys) - done_before
        and len(valid_blobs(store)) == len(keys)
    )
    report.add(
        "sweep kill+resume",
        ok,
        f"aborted after {done_before}/{len(keys)} committed tasks; resume "
        f"reused {stats.resume_skips}, re-executed {stats.completed}, "
        f"payloads {'identical' if resumed == clean else 'DIVERGED'}",
    )

    # 3. one corrupted and one torn blob: exactly those two re-execute.
    say("[chaos] corrupting one blob and tearing another, re-running ...")
    blobs = valid_blobs(store)
    if len(blobs) < 2:
        report.add("corrupt + torn blobs", False, f"only {len(blobs)} blobs")
        return
    corrupt_blob(blobs[0])
    tear_blob(blobs[1])
    healed, repair = rerun()
    stats = repair.report
    report.add(
        "corrupt + torn blobs",
        healed == clean
        and stats.completed == 2
        and stats.dropped_results == 2
        and stats.resume_skips == len(keys) - 2
        and len(valid_blobs(store)) == len(keys),
        f"dropped {stats.dropped_results} invalid blobs, re-executed "
        f"{stats.completed}, reused {stats.resume_skips}, payloads "
        f"{'identical' if healed == clean else 'DIVERGED'}",
    )

    # 4. a wrong-schema blob is re-executed, never replayed.
    break_blob_schema(blobs[0])
    rejected, rejecter = rerun()
    stats = rejecter.report
    report.add(
        "wrong-schema blob",
        rejected == clean
        and stats.completed == 1
        and stats.dropped_results == 1
        and len(valid_blobs(store)) == len(keys),
        f"re-executed {stats.completed} task, reused {stats.resume_skips}, "
        f"payloads {'identical' if rejected == clean else 'DIVERGED'}",
    )


def _chaos_campaign_section(
    report: ChaosReport,
    say: Callable[[str], None],
    runs_root: Path,
    policy: ResiliencePolicy,
    seed: int,
    crash_rate: float,
    lost_rate: float,
    jobs: int,
) -> None:
    from repro.faults.campaign import CampaignConfig

    config = CampaignConfig(
        seed=seed, trials=1,
        attacks=("data_bitflip", "counter_tamper", "mac_delete"),
    )
    campaign_root = runs_root / "campaign"
    say("[chaos] clean serial campaign slice ...")
    clean = _campaign_json(config, jobs=1)
    say(f"[chaos] checkpointed campaign: crash_rate={crash_rate} ...")
    chaos = ChaosSpec(seed=seed + 1, crash_rate=crash_rate,
                      lost_rate=lost_rate)
    supervisor = Supervisor(
        policy=policy, run_id="chaos-campaign", runs_dir=campaign_root,
        chaos=chaos,
    )
    with supervision(supervisor):
        chaotic = _campaign_json(config, jobs=jobs)
    stats = supervisor.report
    report.add(
        "campaign under chaos",
        chaotic == clean,
        f"payloads {'identical' if chaotic == clean else 'DIVERGED'} after "
        f"{stats.retries} retries, {stats.pool_breaks} pool breaks",
    )

    say("[chaos] warm-store campaign re-run (fresh run id, same store) ...")
    warm_supervisor = Supervisor(
        policy=policy, run_id="chaos-campaign-warm", runs_dir=campaign_root
    )
    with supervision(warm_supervisor):
        warm = _campaign_json(config, jobs=jobs)
    stats = warm_supervisor.report
    total = stats.resume_skips + stats.completed
    reuse = stats.resume_skips / total if total else 0.0
    report.add(
        "warm-store reuse",
        warm == clean and reuse >= 0.9,
        f"reused {stats.resume_skips}/{total} cells ({reuse:.0%}); payloads "
        f"{'identical' if warm == clean else 'DIVERGED'}",
    )

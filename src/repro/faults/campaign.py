"""Fault-injection campaign: attack x granularity x policy sweep.

For every cell of the sweep the runner builds a fresh engine, seals a
non-zero victim region at the requested granularity, seeds a bystander
line in a different chunk, injects one attack from the catalog and
probes the victim.  Each trial is classified as:

* ``detected``          -- the engine raised one of the attack's
  expected ``SecurityError`` subclasses (directly or as the cause of a
  ``QuarantineError``);
* ``misclassified``     -- a violation was raised, but not the class
  the attack models (e.g. a replay reported as plain corruption);
* ``recovered``         -- a retrying policy legitimately served
  correct data (transient faults only);
* ``silent_corruption`` -- the probe read completed with wrong data,
  or a persistent attack went entirely unnoticed.  **Fatal**: a single
  such trial fails the campaign.

Under quarantining policies the runner additionally verifies
*containment*: after the detection, the bystander chunk must still
read back correctly, otherwise the cell records a containment
failure (also fatal).
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.constants import (
    CACHELINE_BYTES,
    CHUNK_BYTES,
    GRANULARITIES,
    granularity_level,
)
from repro.common.errors import QuarantineError, SecurityError
from repro.crypto.keys import KeySet
from repro.faults.injector import ATTACKS, Attack, Victim, attack_by_name
from repro.secure_memory.engine import SecureMemory
from repro.secure_memory.failure import FAILURE_MODES

#: Trial outcome labels, in severity order.
OUTCOMES = ("detected", "misclassified", "recovered", "silent_corruption")

_VICTIM_CHUNK_BASE = CHUNK_BYTES  # chunk 1
_BYSTANDER_ADDR = 0               # chunk 0


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign sweep."""

    seed: int = 0
    trials: int = 3
    # 16 chunks keep the 32KB promoted counters *below* the on-chip
    # root, so tree attacks have a stored node seal to target.
    region_bytes: int = 16 * CHUNK_BYTES
    granularities: Tuple[int, ...] = GRANULARITIES
    policies: Tuple[str, ...] = ("fixed", "multigranular")
    failure_modes: Tuple[str, ...] = FAILURE_MODES
    attacks: Tuple[str, ...] = ()  # empty selects the full catalog

    def selected_attacks(self) -> List[Attack]:
        if not self.attacks:
            return list(ATTACKS)
        return [attack_by_name(name) for name in self.attacks]


@dataclass
class CellResult:
    """Aggregated outcomes of one (attack, policy, mode, granularity) cell."""

    attack: str
    policy: str
    failure_mode: str
    granularity: int
    trials: int = 0
    detected: int = 0
    misclassified: int = 0
    recovered: int = 0
    silent_corruption: int = 0
    containment_failures: int = 0
    details: List[str] = field(default_factory=list)
    #: ``"ok"`` or ``"error"`` -- an error cell is one whose trial
    #: machinery itself raised (an infrastructure/harness bug, not a
    #: security verdict).  Error cells never abort the sweep; they fail
    #: the campaign at the end with a summary.
    status: str = "ok"
    error: str = ""
    #: Exception class and traceback digest of an error cell's failure.
    #: Checkpointed with the payload, so a resumed run reuses a
    #: *deterministic* task error -- same class, same traceback digest
    #: -- instead of re-executing the cell; an infrastructure death
    #: commits nothing and the cell simply runs again.
    error_class: str = ""
    traceback_digest: str = ""

    @property
    def fatal(self) -> bool:
        return self.silent_corruption > 0 or self.containment_failures > 0

    def as_dict(self) -> dict:
        return {
            "attack": self.attack,
            "policy": self.policy,
            "failure_mode": self.failure_mode,
            "granularity": self.granularity,
            "trials": self.trials,
            "detected": self.detected,
            "misclassified": self.misclassified,
            "recovered": self.recovered,
            "silent_corruption": self.silent_corruption,
            "containment_failures": self.containment_failures,
            "details": self.details,
            "status": self.status,
            "error": self.error,
            "error_class": self.error_class,
            "traceback_digest": self.traceback_digest,
        }


@dataclass
class CampaignResult:
    """All cells of one sweep plus its configuration."""

    config: CampaignConfig
    cells: List[CellResult]

    def fatal_cells(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.fatal]

    def error_cells(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.status == "error"]

    @property
    def clean(self) -> bool:
        return not self.fatal_cells() and not self.error_cells()

    def totals(self) -> Dict[str, int]:
        out = {key: 0 for key in OUTCOMES}
        out["trials"] = 0
        out["containment_failures"] = 0
        for cell in self.cells:
            out["trials"] += cell.trials
            out["detected"] += cell.detected
            out["misclassified"] += cell.misclassified
            out["recovered"] += cell.recovered
            out["silent_corruption"] += cell.silent_corruption
            out["containment_failures"] += cell.containment_failures
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": {
                    "seed": self.config.seed,
                    "trials": self.config.trials,
                    "region_bytes": self.config.region_bytes,
                    "granularities": list(self.config.granularities),
                    "policies": list(self.config.policies),
                    "failure_modes": list(self.config.failure_modes),
                },
                "totals": self.totals(),
                "clean": self.clean,
                "cells": [cell.as_dict() for cell in self.cells],
            },
            indent=2,
        )

    def format_table(self) -> str:
        """ASCII detection-coverage matrix, one block per policy.

        Cells aggregate over failure modes; codes are ``D`` detected,
        ``M`` misclassified, ``R`` recovered, ``S!`` silent corruption,
        ``C!`` containment failure and ``E!`` cell errored out.
        """
        lines: List[str] = []
        for policy in self.config.policies:
            grans = [
                g
                for g in self.config.granularities
                if policy == "multigranular" or g == GRANULARITIES[0]
            ]
            lines.append(
                f"# policy={policy}  "
                f"(modes: {', '.join(self.config.failure_modes)}; "
                f"trials/cell: {self.config.trials})"
            )
            header = f"{'attack':18s}" + "".join(
                f"{g:>12d}" for g in grans
            )
            lines.append(header)
            by_key: Dict[Tuple[str, int], List[CellResult]] = {}
            for cell in self.cells:
                if cell.policy == policy:
                    by_key.setdefault(
                        (cell.attack, cell.granularity), []
                    ).append(cell)
            for attack in self.config.selected_attacks():
                row = f"{attack.name:18s}"
                any_cell = False
                for g in grans:
                    cells = by_key.get((attack.name, g))
                    if not cells:
                        row += f"{'-':>12s}"
                        continue
                    any_cell = True
                    code = ""
                    for label, key in (
                        ("D", "detected"),
                        ("M", "misclassified"),
                        ("R", "recovered"),
                        ("S!", "silent_corruption"),
                        ("C!", "containment_failures"),
                    ):
                        count = sum(getattr(c, key) for c in cells)
                        if count:
                            code += f"{count}{label}"
                    errored = sum(1 for c in cells if c.status == "error")
                    if errored:
                        code += f"{errored}E!"
                    row += f"{code or '0':>12s}"
                row += ""
                if any_cell:
                    lines.append(row)
            lines.append("")
        totals = self.totals()
        errors = self.error_cells()
        lines.append(
            f"trials={totals['trials']} detected={totals['detected']} "
            f"misclassified={totals['misclassified']} "
            f"recovered={totals['recovered']} "
            f"silent={totals['silent_corruption']} "
            f"containment_failures={totals['containment_failures']} "
            f"error_cells={len(errors)}"
        )
        for cell in errors:
            lines.append(
                f"ERROR cell {cell.attack}:{cell.policy}:"
                f"{cell.failure_mode}:{cell.granularity}: {cell.error}"
            )
        if self.clean:
            lines.append("campaign CLEAN (no silent corruption)")
        elif errors and not self.fatal_cells():
            lines.append(
                f"campaign FAILED: {len(errors)} cell(s) errored out"
            )
        else:
            lines.append(
                "campaign FAILED: silent corruption / broken containment"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trial machinery
# ----------------------------------------------------------------------

def _trial_seed(*parts) -> int:
    """Stable (hash-seed independent) per-trial RNG seed."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _random_line(rng: random.Random) -> bytes:
    """A 64B payload with no zero byte (never mistakable for pristine)."""
    return bytes(rng.randrange(1, 256) for _ in range(CACHELINE_BYTES))


def _seed_victim(
    mem: SecureMemory, rng: random.Random, granularity: int
) -> Victim:
    """Seal non-zero victim data at exactly ``granularity``."""
    span = max(granularity, GRANULARITIES[1])
    lines = [_random_line(rng) for _ in range(span // CACHELINE_BYTES)]
    mem.write(_VICTIM_CHUNK_BASE, b"".join(lines))
    if mem.policy == "multigranular":
        forced = mem.force_granularity(_VICTIM_CHUNK_BASE, granularity)
        if forced != granularity:
            raise RuntimeError(
                f"victim sealed at {forced}B, wanted {granularity}B"
            )
    return Victim(
        base=_VICTIM_CHUNK_BASE,
        granularity=granularity,
        span=span,
        lines=lines,
    )


def _probe(
    mem: SecureMemory, attack: Attack, victim: Victim
) -> Tuple[str, str]:
    """Read the victim back and classify the outcome."""
    try:
        got = mem.read(victim.base, victim.span)
    except QuarantineError as exc:
        cause = exc.__cause__
        name = type(cause).__name__ if cause is not None else "QuarantineError"
        if cause is not None and isinstance(cause, attack.expected):
            return "detected", name
        return "misclassified", name
    except attack.expected as exc:
        return "detected", type(exc).__name__
    except SecurityError as exc:
        return "misclassified", type(exc).__name__
    if got == victim.expected_bytes():
        if attack.recoverable:
            return "recovered", "retry served correct data"
        return "silent_corruption", "persistent attack went undetected"
    return "silent_corruption", "read returned wrong data"


def _run_trial(
    attack: Attack,
    policy: str,
    failure_mode: str,
    granularity: int,
    seed: int,
    region_bytes: int,
) -> Tuple[str, str, bool]:
    """One seeded trial; returns (outcome, detail, containment_ok)."""
    rng = random.Random(seed)
    keys = KeySet.from_seed(b"faults-%d" % seed)
    mem = SecureMemory(
        region_bytes,
        keys=keys,
        policy=policy,
        failure_policy=failure_mode,
    )
    bystander = _random_line(rng)
    mem.write(_BYSTANDER_ADDR, bystander)
    victim = _seed_victim(mem, rng, granularity)
    detail = attack.inject(mem, rng, victim)
    outcome, observed = _probe(mem, attack, victim)

    containment_ok = True
    if outcome in ("detected", "misclassified") and _containment_applies(
        mem, attack, victim
    ):
        # Graceful degradation: the untouched chunk must keep serving.
        # Under ``raise`` the engine makes no such promise, but this
        # reproduction's functional engine still satisfies it, so the
        # check runs everywhere the read does not hit the quarantine.
        try:
            containment_ok = mem.read(_BYSTANDER_ADDR, CACHELINE_BYTES) == bystander
        except SecurityError:
            containment_ok = False
    return outcome, f"{detail}; observed {observed}", containment_ok


def _containment_applies(
    mem: SecureMemory, attack: Attack, victim: Victim
) -> bool:
    """Whether the bystander chunk is outside the attack's blast radius.

    Tree attacks on a node that is a shared ancestor of victim *and*
    bystander (e.g. the node holding a 32KB promoted counter also
    seals neighbouring chunks' freshness) legitimately break the
    bystander's trust chain; containment is not a promise there.
    """
    if not attack.tree_attack:
        return True
    level = granularity_level(victim.granularity)
    victim_node, _ = mem.tree.geometry.counter_slot(victim.base, level)
    bystander_node, _ = mem.tree.geometry.counter_slot(_BYSTANDER_ADDR, level)
    return victim_node != bystander_node


def traced_fault_slice(obs, seed: int = 0) -> SecureMemory:
    """Exercise the engine's recovery paths under an observability context.

    The timing layer never corrupts anything, so switch/tree/cache
    events are all a scheme trace can show.  This helper drives the
    *functional* engine through one deterministic fault story --
    coarse promotion, counter exhaustion (epoch bump), a data tamper
    that quarantines the region, and heal-writes -- so a combined
    trace also contains SWITCH, COUNTER_OVERFLOW, EPOCH_BUMP,
    INTEGRITY_FAILURE, QUARANTINE and HEAL events.  Returns the engine
    (its ``events`` group lives in ``obs.registry``).
    """
    rng = random.Random(seed)
    keys = KeySet.from_seed(b"trace-slice-%d" % seed)
    mem = SecureMemory(
        4 * CHUNK_BYTES,
        keys=keys,
        policy="multigranular",
        failure_policy="quarantine",
        counter_bits=4,
        obs=obs,
    )
    span = GRANULARITIES[1]
    lines = [_random_line(rng) for _ in range(span // CACHELINE_BYTES)]
    mem.write(_VICTIM_CHUNK_BASE, b"".join(lines))
    mem.force_granularity(_VICTIM_CHUNK_BASE, span)
    # 4-bit counters exhaust after 15 increments: overflow + epoch bump.
    for _ in range(20):
        mem.write(_BYSTANDER_ADDR, _random_line(rng))
    mem.tamper_data(_VICTIM_CHUNK_BASE)
    try:
        mem.read(_VICTIM_CHUNK_BASE, span)
    except QuarantineError:
        pass
    for off in range(0, span, CACHELINE_BYTES):
        mem.write(_VICTIM_CHUNK_BASE + off, _random_line(rng))
    return mem


#: One campaign cell, fully described by picklable scalars: the worker
#: re-resolves the attack from the catalog by name.
_CellSpec = Tuple[CampaignConfig, str, str, str, int]


def _cell_specs(config: CampaignConfig) -> List[_CellSpec]:
    """Enumerate the sweep's cells in the canonical (reported) order."""
    specs: List[_CellSpec] = []
    for policy in config.policies:
        grans = [
            g
            for g in config.granularities
            if policy == "multigranular" or g == GRANULARITIES[0]
        ]
        for attack in config.selected_attacks():
            if not attack.applies(policy):
                continue
            for granularity in grans:
                for mode in config.failure_modes:
                    specs.append(
                        (config, attack.name, policy, mode, granularity)
                    )
    return specs


def _run_cell(spec: _CellSpec) -> CellResult:
    """Run every trial of one cell (the parallel worker body).

    Each trial builds its own engine from a seed derived only from the
    cell coordinates, so cells are independent and the campaign result
    does not depend on execution order or process placement.
    """
    config, attack_name, policy, mode, granularity = spec
    attack = attack_by_name(attack_name)
    cell = CellResult(
        attack=attack.name,
        policy=policy,
        failure_mode=mode,
        granularity=granularity,
    )
    for trial in range(config.trials):
        seed = _trial_seed(
            config.seed, attack.name, policy, mode, granularity, trial
        )
        try:
            outcome, detail, contained = _run_trial(
                attack, policy, mode, granularity, seed, config.region_bytes
            )
        except Exception as exc:  # harness bug: record, keep sweeping
            cell.status = "error"
            cell.error = f"trial {trial}: {type(exc).__name__}: {exc}"
            cell.error_class = type(exc).__name__
            cell.traceback_digest = hashlib.sha256(
                traceback.format_exc().encode("utf-8")
            ).hexdigest()
            cell.details.append(f"trial {trial}: error; {exc}")
            break
        cell.trials += 1
        if outcome == "detected":
            cell.detected += 1
        elif outcome == "misclassified":
            cell.misclassified += 1
        elif outcome == "recovered":
            cell.recovered += 1
        else:
            cell.silent_corruption += 1
        if not contained:
            cell.containment_failures += 1
        if outcome != "detected" or not contained:
            cell.details.append(f"trial {trial}: {outcome}; {detail}")
    return cell


def run_campaign(
    config: Optional[CampaignConfig] = None, jobs: Optional[int] = None
) -> CampaignResult:
    """Run the full sweep described by ``config``.

    ``jobs`` above 1 fans independent cells out over worker processes
    (``None`` consults ``REPRO_JOBS``, else serial); cells come back in
    canonical order either way, so the coverage matrix and JSON dump
    are byte-identical to a serial campaign.  An ambient supervisor
    (:func:`repro.sim.resilient.supervision`) adds per-cell timeouts,
    retries, and -- with a run id -- checkpoint/resume keyed by the
    cell coordinates.

    A cell whose trial machinery raises is recorded with
    ``status="error"`` instead of aborting the sweep; the campaign as a
    whole then reports ``clean == False`` with a per-cell summary.
    """
    from repro.sim.parallel import _execute_tasks

    config = config or CampaignConfig()
    specs = _cell_specs(config)
    keys = [
        f"{attack}:{policy}:{mode}:{granularity}"
        for (_, attack, policy, mode, granularity) in specs
    ]

    def context() -> str:
        return json.dumps(
            {
                "seed": config.seed,
                "trials": config.trials,
                "region_bytes": config.region_bytes,
                "granularities": list(config.granularities),
                "policies": list(config.policies),
                "failure_modes": list(config.failure_modes),
                "attacks": list(config.attacks),
            },
            sort_keys=True,
        )

    cells = _execute_tasks(_run_cell, specs, keys, "campaign", context, jobs)
    return CampaignResult(config=config, cells=cells)

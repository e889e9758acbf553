"""Deterministic fault injection for the functional security layer.

``repro.faults`` attacks the engine the way the paper's adversary does
(Sec. 2.5): it mutates the attacker-visible surfaces -- ciphertext in
the :class:`~repro.mem.backing_store.BackingStore`, the compacted MAC
region, counter-tree nodes and the granularity table -- and checks
that every mutation is *detected* (the right ``SecurityError``), never
*silent* (wrong plaintext returned as if valid).

* :mod:`repro.faults.injector` -- the seeded attack catalog.
* :mod:`repro.faults.campaign` -- the sweep runner behind
  ``python -m repro faults``.
* :mod:`repro.faults.exec_chaos` -- seeded chaos against the *executor*
  (worker crashes, hangs, checkpoint-store damage) behind
  ``python -m repro chaos``.
"""

from repro.faults.injector import ATTACKS, Attack, Victim, attack_by_name
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    CellResult,
    run_campaign,
)
from repro.faults.exec_chaos import ChaosReport, ChaosSpec, run_chaos

__all__ = [
    "ATTACKS",
    "Attack",
    "Victim",
    "attack_by_name",
    "CampaignConfig",
    "CampaignResult",
    "CellResult",
    "run_campaign",
    "ChaosReport",
    "ChaosSpec",
    "run_chaos",
]

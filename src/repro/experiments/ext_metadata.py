"""Extension: stored-metadata footprint and tree-geometry design space.

Two analyses beyond the paper's timing results:

* **functional footprint** (paper Figs. 1/9 visualized as numbers):
  bytes of MACs and tree nodes the functional engine actually stores
  for one streamed chunk under each policy -- promotion prunes whole
  subtrees and merging collapses MAC arrays;
* **tree arity design space** (paper Sec. 6 discusses VAULT/Morphable
  counters): tree height and node count for 4GB protected memory
  across arities, the knob those works turn.
"""

from __future__ import annotations

from typing import Optional

from repro.common.constants import CHUNK_BYTES, GRANULARITIES
from repro.crypto.keys import KeySet
from repro.experiments.common import ExperimentResult
from repro.secure_memory import SecureMemory
from repro.tree.geometry import TreeGeometry

PAPER_NOTE = (
    "Extension: functional storage accounting (paper Figs. 1/9) and the "
    "arity design space of VAULT-style trees (paper Sec. 6)"
)

_COLUMNS = ["analysis", "configuration", "value"]


def footprint_rows() -> list:
    """Stored metadata for one fully streamed 32KB chunk, per policy."""
    rows = []
    data = bytes(CHUNK_BYTES)
    for policy in ("fixed", "multigranular"):
        memory = SecureMemory(
            1 << 20, keys=KeySet.from_seed(b"ext-meta"), policy=policy
        )
        # The scale-up happens at the first write's 512th line; the
        # second write rewrites the promoted chunk, and the footprint is
        # the same after either.
        memory.write(0, data)
        memory.write(0, data)
        footprint = memory.metadata_footprint()
        rows.append(
            {
                "analysis": "chunk_footprint",
                "configuration": f"{policy}: MAC bytes",
                "value": footprint["mac_bytes"],
            }
        )
        rows.append(
            {
                "analysis": "chunk_footprint",
                "configuration": f"{policy}: tree-node bytes",
                "value": footprint["tree_node_bytes"],
            }
        )
    return rows


def arity_rows() -> list:
    """Tree height / node count across arities for 4GB memory."""
    rows = []
    for arity in (2, 4, 8, 16, 32, 64):
        geometry = TreeGeometry.build(4 << 30, arity=arity)
        total_nodes = sum(geometry.level_counts)
        rows.append(
            {
                "analysis": "arity_design_space",
                "configuration": f"arity {arity}: levels above data",
                "value": geometry.num_levels,
            }
        )
        rows.append(
            {
                "analysis": "arity_design_space",
                "configuration": f"arity {arity}: total tree nodes",
                "value": total_nodes,
            }
        )
    return rows


def promotion_rows() -> list:
    """Verification-path length saved per promotion level (Eq. 2)."""
    geometry = TreeGeometry.build(4 << 30)
    rows = []
    for granularity in GRANULARITIES:
        level = GRANULARITIES.index(granularity)
        path = geometry.num_levels - 1 - level  # nodes below the root
        rows.append(
            {
                "analysis": "promotion_path",
                "configuration": f"{granularity}B counter: levels walked",
                "value": path,
            }
        )
    return rows


def run(
    duration_cycles: Optional[float] = None, seed: int = 0
) -> ExperimentResult:
    """Regenerate the storage/geometry analyses."""
    del duration_cycles, seed  # functional + analytic
    rows = footprint_rows() + promotion_rows() + arity_rows()
    return ExperimentResult(
        experiment="ext_metadata",
        title="Extension -- metadata storage and tree design space",
        columns=_COLUMNS,
        rows=rows,
        notes=[PAPER_NOTE],
    )

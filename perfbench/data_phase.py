"""Functional plane: ``SecureMemory.read``/``write`` lines per host second.

Every round runs the same op sequence, generated from the seed, under
both policies, each on a fresh ``SecureMemory``, so the rounds repeat
identical work.  Every ``read`` is compared with a shadow copy of the
last write to its lines.  A rate is lines over the summed host time of
the sequence's calls of that kind, each at its fastest in the run
(min-of-N, for the reason given in :mod:`perfbench.sim_phase`).

* ``stream``: whole-32KB-chunk writes, which the access tracker
  promotes, then 64B reads at random lines of those chunks interleaved
  with 64B writes into the same chunks.
* ``scatter``: 64B writes and reads at random lines across many
  chunks, never streaming; the round asserts that every touched chunk
  is still protected at 64B under ``multigranular``.
* ``mixed``: one stream part and one scatter part in disjoint chunks.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES
from repro.crypto.keys import KeySet
from repro.secure_memory.engine import SecureMemory

POLICIES = ("fixed", "multigranular")
KEYS = KeySet.from_seed(b"perfbench-data-plane")
LINES_PER_CHUNK = CHUNK_BYTES // CACHELINE_BYTES
ZERO = bytes(CACHELINE_BYTES)

#: Region size in chunks; stream chunks come first, scatter chunks after.
REGION_CHUNKS = 64
#: Per round: stream chunks written whole, 64B reads and rewrites of
#: them; scatter lines written first, then reads of written lines and
#: further writes.
STREAM = {"chunks": 2, "gets": 12, "puts": 4}
SCATTER = {"puts": 96, "gets": 128, "reputs": 32}

#: (kind, lines) of each op: a 64B get, a 64B put, a whole-chunk put.
GET, PUT, CHUNK = "get", "put", "chunk"
LINES = {GET: 1, PUT: 1, CHUNK: LINES_PER_CHUNK}


def stream_ops(rng: random.Random, first_chunk: int, spec=STREAM) -> List[tuple]:
    chunks = rng.sample(range(first_chunk, first_chunk + 8), spec["chunks"])
    ops: List[tuple] = [
        (CHUNK, c * CHUNK_BYTES, rng.randbytes(CHUNK_BYTES)) for c in chunks
    ]
    tail = [GET] * spec["gets"] + [PUT] * spec["puts"]
    rng.shuffle(tail)
    for kind in tail:
        line = rng.choice(chunks) * LINES_PER_CHUNK + rng.randrange(LINES_PER_CHUNK)
        data = rng.randbytes(CACHELINE_BYTES) if kind == PUT else None
        ops.append((kind, line * CACHELINE_BYTES, data))
    return ops


def scatter_ops(rng: random.Random, first_chunk: int, chunks: int,
                spec=SCATTER) -> List[tuple]:
    span = range(first_chunk * LINES_PER_CHUNK, (first_chunk + chunks) * LINES_PER_CHUNK)
    written = rng.sample(span, spec["puts"])
    ops: List[tuple] = [
        (PUT, line * CACHELINE_BYTES, rng.randbytes(CACHELINE_BYTES))
        for line in written
    ]
    tail = [(GET, rng.choice(written)) for _ in range(spec["gets"])]
    tail += [(PUT, rng.choice(span)) for _ in range(spec["reputs"])]
    rng.shuffle(tail)
    for kind, line in tail:
        data = rng.randbytes(CACHELINE_BYTES) if kind == PUT else None
        ops.append((kind, line * CACHELINE_BYTES, data))
    return ops


def round_ops(workload: str, seed: int) -> List[tuple]:
    rng = random.Random(seed)
    if workload == "stream":
        return stream_ops(rng, 0)
    if workload == "scatter":
        return scatter_ops(rng, 0, REGION_CHUNKS)
    half = {k: v // 2 for k, v in SCATTER.items()}
    stream = stream_ops(rng, 0, {"chunks": 1, "gets": 6, "puts": 2})
    scatter = scatter_ops(rng, 8, REGION_CHUNKS - 8, half)
    # Interleave after the writes that set each part up.
    head = stream[:1] + scatter[: half["puts"]]
    rest = stream[1:] + scatter[half["puts"]:]
    rng.shuffle(rest)
    return head + rest


class DataPhase:
    """Rounds of one op sequence under both ``SecureMemory`` policies."""

    def __init__(self, workload: str, seed: int, setup, tally) -> None:
        self.workload = workload
        self.setup = setup
        self.tally = tally
        self.ops = round_ops(workload, seed)
        #: (policy, op position) -> fastest host seconds of that call.
        self.best: Dict[Tuple[str, int], float] = {}
        self.seconds = 0.0
        self.switches = 0
        setup.need("secure_memory", len(POLICIES))

    def round(self, index: int, measure: bool, rec=None) -> None:
        for policy in POLICIES:
            t = time.perf_counter()
            memory = SecureMemory(REGION_CHUNKS * CHUNK_BYTES, keys=KEYS, policy=policy)
            self.setup.add("secure_memory", time.perf_counter() - t)
            self._run(memory, policy, measure, rec)
            if measure and policy == "multigranular":
                self.switches += memory.switches

    def _run(self, memory, policy: str, measure: bool, rec) -> None:
        shadow: Dict[int, bytes] = {}
        clock = time.perf_counter
        for position, (kind, addr, data) in enumerate(self.ops):
            root = rec.begin("functional", f"{policy}|{kind}", f"functional.{kind}") if rec else None
            if kind == GET:
                t = clock()
                got = memory.read(addr, CACHELINE_BYTES)
                elapsed = clock() - t
                self.tally.check(
                    got == shadow.get(addr, ZERO),
                    f"{policy} read {addr:#x} does not match the last write",
                )
            else:
                t = clock()
                memory.write(addr, data)
                elapsed = clock() - t
                for off in range(0, len(data), CACHELINE_BYTES):
                    shadow[addr + off] = data[off : off + CACHELINE_BYTES]
                self.tally.attempted += 1
            if rec:
                rec.end_op(root)
            if measure:
                key = (policy, position)
                self.best[key] = min(elapsed, self.best.get(key, elapsed))
                self.seconds += elapsed
        if policy == "multigranular" and self.workload == "scatter":
            coarse = [a for a in shadow if memory.granularity_of(a) != CACHELINE_BYTES]
            self.tally.check(
                not coarse,
                f"scatter promoted {len(coarse)} lines above 64B (first {coarse[:1]})",
            )

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for policy in POLICIES:
            for metric, kinds in (("get_lps", (GET,)), ("put_lps", (PUT, CHUNK))):
                lines = seconds = 0.0
                for position, (kind, _, _) in enumerate(self.ops):
                    if kind in kinds:
                        lines += LINES[kind]
                        seconds += self.best[(policy, position)]
                out[f"{metric}.{policy}"] = lines / seconds
        return out

"""Structured event tracing for the secure-memory simulator.

The tracer answers the question the aggregate counters cannot: *when*
did things happen.  Instrumented sites throughout the engine, schemes,
memory system and fault layer emit typed :class:`TraceEvent` records
``(cycle, type, device, chunk, payload)`` into a bounded ring buffer.

Cost discipline: every instrumented site is guarded by a plain
truthiness check (``if tracer: tracer.emit(...)``).  The disabled
recorder (:data:`NULL_RECORDER`) is falsy, so a disabled trace costs
one boolean test per site and nothing else -- simulation wall-time is
unchanged.  An enabled recorder may do real work; tracing runs are
diagnostic runs.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, Optional

#: Default ring capacity: enough for a smoke scenario's full event
#: stream while bounding a long run to a few hundred MB at worst.
DEFAULT_CAPACITY = 1 << 18


class EventType(enum.Enum):
    """Taxonomy of traced events (see ``docs/observability.md``)."""

    #: A lazy granularity switch was applied (timing or functional).
    SWITCH = "switch"
    #: A serialized counter-tree verification walk (levels on the
    #: critical path).
    TREE_WALK = "tree_walk"
    #: Fine MACs folded into a merged MAC (scale-up, Eq. 5).
    MAC_MERGE = "mac_merge"
    #: A merged MAC split back into fine MACs (scale-down).
    MAC_SPLIT = "mac_split"
    #: A minor counter exhausted; overflow recovery engaged.
    COUNTER_OVERFLOW = "counter_overflow"
    #: A chunk's key epoch advanced (lazy re-encryption).
    EPOCH_BUMP = "epoch_bump"
    #: A protection region failed closed (quarantine).
    QUARANTINE = "quarantine"
    #: A fresh write healed a quarantined line.
    HEAL = "heal"
    #: An integrity/replay violation was detected.
    INTEGRITY_FAILURE = "integrity_failure"
    #: Security-metadata cache hit.
    CACHE_HIT = "cache_hit"
    #: Security-metadata cache miss.
    CACHE_MISS = "cache_miss"
    #: Periodic memory-channel occupancy sample.
    CHANNEL_SAMPLE = "channel_sample"
    #: A coarse region left the region buffer partially covered
    #: (over-fetch debt settled).
    REGION_EVICT = "region_evict"
    #: One device request issued through the SoC loop.
    REQUEST = "request"
    #: Supervised executor: a task was retried (transient worker loss
    #: or a first deterministic error).
    EXEC_RETRY = "exec_retry"
    #: Supervised executor: a task exceeded its wall-clock timeout and
    #: its worker pool was killed.
    EXEC_TIMEOUT = "exec_timeout"
    #: Supervised executor: graceful degradation (the pool shrank, or
    #: one task fell back to serial execution in the parent).
    EXEC_DEGRADE = "exec_degrade"
    #: Supervised executor: a checkpointed result was reused from the
    #: content-addressed store instead of re-executing its task.
    EXEC_RESUME_SKIP = "exec_resume_skip"
    #: Checkpoint store: a present but invalid result blob (torn,
    #: corrupt, another schema or task) was dropped; its task
    #: re-executes and the commit heals the blob.
    RESULT_DROPPED = "result_dropped"


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    Attributes:
        cycle: simulation cycle (or the functional engine's logical
            clock) at which the event happened.
        etype: event class from :class:`EventType`.
        device: index of the processing unit involved, if any.
        chunk: 32KB chunk index involved, if any.
        payload: event-specific details (granularities, levels, ...).
    """

    cycle: float
    etype: EventType
    device: Optional[int] = None
    chunk: Optional[int] = None
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable flat representation (one JSONL record)."""
        out: Dict[str, object] = {"cycle": self.cycle, "type": self.etype.value}
        if self.device is not None:
            out["device"] = self.device
        if self.chunk is not None:
            out["chunk"] = self.chunk
        if self.payload:
            out.update(self.payload)
        return out


class NullRecorder:
    """Disabled tracer: falsy, drops everything, costs one bool check.

    All instrumented sites are written as ``if tracer: tracer.emit(...)``
    so this object's methods are never even called on the hot path.
    """

    enabled = False
    emitted = 0
    dropped = 0

    def __bool__(self) -> bool:
        return False

    def emit(self, *args, **kwargs) -> None:  # pragma: no cover - guarded out
        pass

    def events(self) -> Iterator[TraceEvent]:
        return iter(())

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared disabled recorder; safe because it holds no state.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` records.

    When the buffer is full the *oldest* events are dropped (the tail
    of a run is usually the interesting part); ``dropped`` counts how
    many were lost so exports can flag truncation.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow since the last ``clear``."""
        return self.emitted - len(self._ring)

    def emit(
        self,
        etype: EventType,
        cycle: float,
        device: Optional[int] = None,
        chunk: Optional[int] = None,
        **payload: object,
    ) -> None:
        """Record one event (oldest events are evicted when full)."""
        self.emitted += 1
        self._ring.append(
            TraceEvent(
                cycle=cycle, etype=etype, device=device, chunk=chunk,
                payload=payload,
            )
        )

    def events(self) -> Iterator[TraceEvent]:
        """Iterate recorded events in emission order."""
        return iter(self._ring)

    def counts_by_type(self) -> Dict[str, int]:
        """``{event-type value: count}`` of the retained events."""
        counts: Counter = Counter(ev.etype.value for ev in self._ring)
        return dict(counts)

    def clear(self) -> None:
        """Drop all retained events and reset the drop accounting."""
        self._ring.clear()
        self.emitted = 0


def filter_events(
    events: Iterable[TraceEvent],
    etype: Optional[EventType] = None,
    device: Optional[int] = None,
) -> Iterator[TraceEvent]:
    """Select events by type and/or device."""
    for event in events:
        if etype is not None and event.etype is not etype:
            continue
        if device is not None and event.device != device:
            continue
        yield event

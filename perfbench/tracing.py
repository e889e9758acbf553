"""Spans recorded around calls into repro's layers, and their self times.

A traced run installs wrappers on public entry points of the layers
(:meth:`Recorder.install`), runs the workload, removes them and reduces
the spans to per-layer call counts and self times (:func:`summarize`).
Nothing inside ``src/`` is edited: every span comes from this file.

* A *timed* wrapper records one span: name, start, end, parent and
  operation id (the spans of one operation share it).  A layer's self
  time is its span time minus the time its child spans cover, minus
  the wrapper cost :func:`calibrate` measured for each wrapped call.
* A *hot* wrapper (cache access, channel submit, ``xor_bytes``) only
  logs its arguments: a timing wrapper would cost about as much as the
  call.  :func:`summarize` replays each logged call stream through a
  fresh instance and takes that replay time as the layer's self time.

Spans live in flat arrays until :func:`summarize` reduces them: arrays
hold no per-span objects, so the garbage collector never walks them
and tracing does not slow the program's own collections.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

HOT_KINDS = ("mem.cache.access", "mem.channel.submit", "crypto.xor_bytes")
_NO_HOT = array("q", [0] * len(HOT_KINDS))


def _targets():
    """(owner, attribute, span name) of every timed entry point."""
    from repro.core import addressing
    from repro.core.gran_table import GranularityTable
    from repro.core.tracker import AccessTracker
    from repro.crypto import otp
    from repro.engine_fast import core as fast_core
    from repro.schemes.base import ProtectionScheme
    from repro.secure_memory import engine
    from repro.secure_memory.engine import SecureMemory
    from repro.secure_memory.session import EngineSession
    from repro.sim.scenario import Scenario
    from repro.sim.soc import SessionCore
    from repro.subtree.bmf import SubtreeRootCache
    from repro.tree.integrity_tree import CounterTree

    return [
        (SessionCore, "step", "sim.step"),
        (ProtectionScheme, "process", "schemes.process"),
        (AccessTracker, "observe", "core.tracker.observe"),
        (GranularityTable, "resolve", "core.gran_table.resolve"),
        (addressing, "mac_line_addr", "core.addressing.mac_line_addr"),
        (SubtreeRootCache, "trusted", "subtree.trusted"),
        (fast_core, "prepare", "engine_fast.prepare"),
        (Scenario, "build_traces", "workloads.build_traces"),
        (CounterTree, "read_counter", "tree.read_counter"),
        (CounterTree, "increment_counter", "tree.increment_counter"),
        (otp, "generate_otp", "crypto.generate_otp"),
        (engine, "compute_mac", "crypto.compute_mac"),
        (engine, "nested_mac", "crypto.nested_mac"),
        (SecureMemory, "read", "secure_memory.read"),
        (SecureMemory, "write", "secure_memory.write"),
        (EngineSession, "step", "secure_memory.session.step"),
    ]


def _daemon_targets():
    from repro.service.store import TenantJournal

    return [(TenantJournal, "append", "service.store.append")]


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, index-aligned.
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("q")
        self.children = array("q")
        #: ``len(HOT_KINDS)`` counters per span: hot calls made directly
        #: inside it.
        self.hot = array("q")
        self.stack: List[int] = []
        #: (plane, label) per operation; spans carry the index.
        self.ops: List[Tuple[str, str]] = [("none", "")]
        self.op = 0
        #: Indices of the operation root spans opened by :meth:`begin`.
        self.roots: List[int] = []
        #: kind -> {id(instance): (instance, (class, config), first, second)};
        #: instances stay referenced so a later one cannot reuse an id.
        self.hot_logs: Dict[str, Dict[int, tuple]] = {k: {} for k in HOT_KINDS[:2]}
        self.xor_lengths = array("q")
        self._patches: List[tuple] = []
        self.calibration: Dict[str, float] = {}
        self.fast = [0, 0]  # fast-engine calls, fallbacks to scalar

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self.stack
        parent = stack[-1] if stack else -1
        if parent >= 0:
            self.children[parent] += 1
        self.name.append(name_id)
        self.parent.append(parent)
        self.span_op.append(self.op)
        self.children.append(0)
        self.hot.extend(_NO_HOT)
        self.end.append(0.0)
        stack.append(index)
        return index

    # -- operations and root spans --------------------------------------

    def begin(self, plane: str, label: str, name: str) -> int:
        """Open a root span for one operation; returns its span index."""
        self.ops.append((plane, label))
        self.op = len(self.ops) - 1
        index = self._open(self.name_id(name))
        self.roots.append(index)
        self.start.append(time.perf_counter())
        return index

    def end_op(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()
        self.op = 0

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        open_span, starts, ends = self._open, self.start, self.end
        stack_pop, clock = self.stack.pop, time.perf_counter

        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack_pop()

        return wrapper

    def _hot(self, kind: int, fn: Callable, log: Callable) -> Callable:
        hot, stack, width = self.hot, self.stack, len(HOT_KINDS)

        def wrapper(*args, **kwargs):
            if stack:
                hot[stack[-1] * width + kind] += 1
            log(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _instance_log(self, kind: str, width: str, second: Callable):
        """Log ``(first argument, second(args, kwargs))`` per instance."""
        logs = self.hot_logs[kind]

        def log(args, kwargs):
            inst = args[0]
            entry = logs.get(id(inst))
            if entry is None:
                entry = (inst, (type(inst), inst.config), array(width),
                         array("q"))
                logs[id(inst)] = entry
            entry[2].append(args[1])
            entry[3].append(second(args, kwargs))

        return log

    def _cache_log(self):
        # access(addr, write=False)
        return self._instance_log(
            HOT_KINDS[0], "q",
            lambda a, k: int(k.get("write", a[2] if len(a) > 2 else False)),
        )

    def install(self, daemon: bool = False) -> None:
        """Patch every entry point (and the daemon's, when ``daemon``)."""
        from repro.crypto import otp
        from repro.mem.cache import SetAssociativeCache
        from repro.mem.channel import MemoryChannel

        targets = _targets() + (_daemon_targets() if daemon else [])
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            wrapped = self.timed(name, original)
            if name == "engine_fast.prepare":
                wrapped = self._prepare_wrapper(wrapped)
            self._patch(owner, attr, wrapped, original)

        # submit(cycle, nbytes=64, addr=None)
        chan_log = self._instance_log(
            HOT_KINDS[1], "d",
            lambda a, k: int(k.get("nbytes", a[2] if len(a) > 2 else 64)),
        )
        lengths = self.xor_lengths
        for kind, (owner, attr, log) in enumerate((
            (SetAssociativeCache, "access", self._cache_log()),
            (MemoryChannel, "submit", chan_log),
            (otp, "xor_bytes", lambda a, k: lengths.append(len(a[0]))),
        )):
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._hot(kind, original, log), original)

    def _prepare_wrapper(self, wrapped_prepare: Callable) -> Callable:
        """Count fast-engine fallbacks and time the returned loop."""
        rec = self

        def prepare(*args, **kwargs):
            run = wrapped_prepare(*args, **kwargs)
            rec.fast[0] += 1
            if run is None:
                rec.fast[1] += 1
                return None
            return rec.timed("engine_fast.loop", run)

        return prepare

    def _patch(self, owner, attr, new, original) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install_daemon_roots(rec: Recorder) -> None:
    """Open one root span per tenant request the daemon handles.

    The label is ``tenant|op|seq``, which the client also knows, so a
    request's daemon-side start and end line up with its client-side
    send and receive (``time.perf_counter`` is the system-wide monotonic
    clock on Linux, shared by both processes).
    """
    from repro.service.daemon import ServiceDaemon

    def rooted(original, op_of):
        def wrapper(self, *args):
            request = args[-1]
            op = op_of(args)
            root = rec.begin(
                "daemon", f"{request.get('tenant')}|{op}|{request.get('seq')}",
                f"service.op.{op}",
            )
            try:
                return original(self, *args)
            finally:
                rec.end_op(root)

        return wrapper

    for attr, op_of in (("_tenant_op", lambda args: args[0]),
                        ("_op_open", lambda args: "open")):
        original = ServiceDaemon.__dict__[attr]
        rec._patch(ServiceDaemon, attr, rooted(original, op_of), original)


# ----------------------------------------------------------------------
# Wrapper cost calibration
# ----------------------------------------------------------------------

class _Probe:
    """Stand-in instance for calibrating the hot-call log."""

    config = None

    def call(self, x, write=False):
        return x


def _leaf(x):
    return x


def calibrate(rounds: int = 7, n: int = 20000) -> Dict[str, float]:
    """Per-call wrapper costs, split into where they land.

    ``inside``: added to the wrapped call's own span; ``outside``: added
    to its parent's span; ``hot``: what a logging wrapper adds to its
    caller.  Each is the minimum over ``rounds`` trials, which filters
    out interference from other processes.
    """
    clock = time.perf_counter
    best = {"inside": float("inf"), "outside": float("inf"), "hot": float("inf")}
    probe = _Probe()
    for _ in range(rounds):
        t = clock()
        for i in range(n):
            pass
        empty = (clock() - t) / n
        t = clock()
        for i in range(n):
            _leaf(i)
        plain = (clock() - t) / n
        leaf_cost = max(0.0, plain - empty)

        rec = Recorder()
        wrapped = rec.timed("calib.leaf", _leaf)
        root = rec.begin("calib", "", "calib.root")
        t = clock()
        for i in range(n):
            wrapped(i)
        total = (clock() - t) / n
        rec.end_op(root)
        child = sum(e - s for s, e in zip(rec.start[1:], rec.end[1:])) / n
        inside = max(0.0, child - leaf_cost)
        outside = max(0.0, total - plain - inside)

        call = probe.call
        t = clock()
        for i in range(n):
            call(i, write=True)
        plain_method = (clock() - t) / n
        hot = rec._hot(0, _Probe.call, rec._cache_log())
        t = clock()
        for i in range(n):
            hot(probe, i, write=True)
        hot_cost = max(0.0, (clock() - t) / n - plain_method)
        best["inside"] = min(best["inside"], inside)
        best["outside"] = min(best["outside"], outside)
        best["hot"] = min(best["hot"], hot_cost)
    return best


# ----------------------------------------------------------------------
# Replays of the hot call streams
# ----------------------------------------------------------------------

def replay_hot(rec: Recorder) -> Dict[str, Tuple[int, float]]:
    """(calls, replay seconds) per hot kind, through fresh instances."""
    from repro.crypto.otp import xor_bytes

    clock = time.perf_counter
    out: Dict[str, Tuple[int, float]] = {}
    for kind, method in zip(HOT_KINDS[:2], ("access", "submit")):
        calls = 0
        seconds = 0.0
        for _inst, (cls, config), first, second in rec.hot_logs[kind].values():
            call = getattr(cls(config), method)
            if method == "access":
                second = [bool(v) for v in second]
            pairs = list(zip(first, second))
            t = clock()
            for a, b in pairs:
                call(a, b)
            seconds += clock() - t
            calls += len(pairs)
        out[kind] = (calls, seconds)

    buffers = {n: bytes(range(256)) * (n // 256) + bytes(n % 256)
               for n in set(rec.xor_lengths)}
    data = [buffers[n] for n in rec.xor_lengths]
    t = clock()
    for block in data:
        xor_bytes(block, block)
    out[HOT_KINDS[2]] = (len(data), clock() - t)
    return out


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------

def compensation(rec: Recorder) -> Dict[str, float]:
    """Calibrated wrapper cost per plane: what tracing added, by estimate."""
    calib = rec.calibration
    width = len(HOT_KINDS)
    roots = set(rec.roots)
    out: Dict[str, float] = {}
    for index in range(len(rec.name)):
        plane = rec.ops[rec.span_op[index]][0]
        cost = rec.children[index] * calib.get("outside", 0.0) + calib.get(
            "hot", 0.0
        ) * sum(rec.hot[index * width : index * width + width])
        if index not in roots:
            cost += calib.get("inside", 0.0)
        out[plane] = out.get(plane, 0.0) + cost
    return out


def summarize(rec: Recorder, skip: str = "",
              scale: Optional[Dict[str, float]] = None) -> Dict:
    """Reduce spans to per-layer calls/self time and per-plane totals.

    Returns ``{"layers": {name: [calls, self_s]}, "planes": {plane:
    seconds}, "roots": [[plane, label, name, start, end, seconds]],
    "fast": [calls, fallbacks]}``.  A plane's seconds are the self
    times of every layer span of its operations plus their hot calls
    priced by the replay; a root's seconds are the same sum for its one
    operation, i.e. its duration with the wrapper costs taken out.
    Operations whose label starts with ``skip`` (warm-up requests) are
    left out.  ``scale`` multiplies the calibrated wrapper costs of a
    plane: a tight calibration loop underestimates what a wrapper costs
    inside real code, so callers that also measured the plane untraced
    scale the costs to add up to the measured difference.
    """
    calib = rec.calibration
    scale = scale or {}
    hot = replay_hot(rec)
    per_call = [hot[k][1] / hot[k][0] if hot[k][0] else 0.0 for k in HOT_KINDS]
    width = len(HOT_KINDS)
    count = len(rec.name)
    covered = [0.0] * count
    for index in range(count):
        parent = rec.parent[index]
        if parent >= 0:
            covered[parent] += rec.end[index] - rec.start[index]

    skipped = {
        i for i, (_, label) in enumerate(rec.ops) if skip and label.startswith(skip)
    }
    roots = set(rec.roots)
    layers: Dict[str, List[float]] = {}
    planes: Dict[str, float] = {}
    op_seconds: Dict[int, float] = {}
    for index in range(count):
        op = rec.span_op[index]
        if op in skipped:
            continue
        plane = rec.ops[op][0]
        factor = scale.get(plane, 1.0)
        own = rec.end[index] - rec.start[index] - covered[index]
        own -= rec.children[index] * calib.get("outside", 0.0) * factor
        priced = 0.0
        for k in range(width):
            calls = rec.hot[index * width + k]
            own -= calls * (calib.get("hot", 0.0) * factor + per_call[k])
            priced += calls * per_call[k]
        if index not in roots:
            own -= calib.get("inside", 0.0) * factor
            entry = layers.setdefault(rec.names[rec.name[index]], [0, 0.0])
            entry[0] += 1
            entry[1] += own
            planes[plane] = planes.get(plane, 0.0) + own + priced
        op_seconds[op] = op_seconds.get(op, 0.0) + own + priced
    for kind in HOT_KINDS:
        layers[kind] = list(hot[kind])
    return {
        "layers": layers,
        "planes": planes,
        "roots": [
            [*rec.ops[rec.span_op[i]], rec.names[rec.name[i]], rec.start[i],
             rec.end[i], op_seconds[rec.span_op[i]]]
            for i in rec.roots
            if rec.span_op[i] not in skipped
        ],
        "fast": list(rec.fast),
    }


def merge(into: Dict[str, List[float]], layers: Dict[str, List[float]]) -> None:
    """Add one process's layer table to another's."""
    for name, (calls, seconds) in layers.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

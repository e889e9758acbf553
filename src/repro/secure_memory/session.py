"""Addressable, snapshot-able engine sessions.

An :class:`EngineSession` owns everything one tenant's simulation run
used to borrow from the driver loop: the protection scheme, the memory
channel, the per-device issue states and the resumable
:class:`~repro.sim.soc.SessionCore` heap -- plus, optionally, a keyed
functional :class:`~repro.secure_memory.engine.SecureMemory` shard for
data put/get with quarantine and key-epoch state.  The daemon in
:mod:`repro.service` holds one session per tenant; the same class runs
in-process for parity comparison, so daemon-served observables are
byte-identical to a local run *by construction*.

``step(requests)`` advances the timing pipeline by a bounded number of
requests and returns their **observables**: one
``[seq, device, addr, "R"|"W", issue_cycle, completion]`` row per
issued request.  A running SHA-256 over the canonical JSON of those
rows (:meth:`observable_digest`) is the parity witness the load driver
and the CI daemon job compare.

Engine tiers: with ``SoCConfig(sim_engine="fast")`` and numpy
available, a *whole-run* ``step()`` (no limit, nothing issued yet) is
served by the vectorized :mod:`repro.engine_fast` loop; bounded windows
fall back to scalar incremental stepping.  Both tiers are bit-identical
(see docs/performance.md), so the digest does not depend on the tier.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence

from repro.common.canonical import canonical_json
from repro.common.config import SoCConfig
from repro.crypto.keys import KeySet
from repro.devices.issue import DeviceIssueState, device_config_for
from repro.mem.dram import make_channel
from repro.obs import ObsContext
from repro.schemes.registry import build_scheme
from repro.secure_memory.engine import SecureMemory
from repro.sim.soc import RunResult, SessionCore, _run_loop, finalize_run
from repro.workloads.generator import Trace

SESSION_SCHEMA = "repro-session/v1"
ATTEST_SCHEMA = "repro-attest/v1"

#: Column order of one observable row.
OBSERVABLE_FIELDS = ("seq", "device", "addr", "op", "issue", "completion")


class EngineSession:
    """One tenant's addressable engine shard.

    Parameters mirror :func:`repro.sim.soc.simulate`; prefer
    :meth:`from_params` which rebuilds traces/scheme from a declarative
    request body exactly like :mod:`repro.sim.runner` would, so a
    session's final :meth:`result` is byte-identical to
    ``run_scenario(...)`` with the same knobs.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        scheme_name: str,
        config: Optional[SoCConfig] = None,
        footprint: Optional[int] = None,
        warmup: bool = False,
        tenant: str = "local",
        secret: bytes = b"",
        data_bytes: int = 0,
        params: Optional[Dict[str, object]] = None,
    ) -> None:
        config = config or SoCConfig()
        self.tenant = tenant
        self.scheme_name = scheme_name
        self.config = config
        self.traces = list(traces)
        self.params: Dict[str, object] = dict(params or {})
        self.total_requests = sum(len(t.entries) for t in self.traces)

        device_granularities = None
        if scheme_name == "static_device":
            from repro.sim.runner import best_static_granularities

            device_granularities = best_static_granularities(
                self.traces, config
            )
        if footprint is None:
            footprint = max(
                (t.max_addr for t in self.traces), default=0
            )
        self.scheme = build_scheme(
            scheme_name,
            config,
            footprint_bytes=footprint,
            device_granularities=device_granularities,
        )
        self.device_configs = [
            device_config_for(t.spec.kind, f"{t.spec.kind.value}{i}")
            for i, t in enumerate(self.traces)
        ]

        # Engine dispatch mirrors simulate(): the fast tier serves
        # whole-window steps, the scalar core serves bounded windows.
        self._fast_run = None
        if getattr(config, "sim_engine", "scalar") == "fast":
            from repro.engine_fast import core as fast_core

            self._fast_run = fast_core.prepare(
                self.traces, self.scheme, config, self.device_configs
            )
        self.engine = "fast" if self._fast_run is not None else "scalar"

        if warmup:
            warm_channel = make_channel(config.memory)
            warm_states = [
                DeviceIssueState(i, trace, cfg)
                for i, (trace, cfg) in enumerate(
                    zip(self.traces, self.device_configs)
                )
            ]
            run_loop = self._fast_run or _run_loop
            run_loop(warm_states, self.scheme, warm_channel)
            self.scheme.reset_stats()

        self.channel = make_channel(config.memory, tracer=self.scheme.tracer)
        self.channel.metrics_into(self.scheme.obs.registry, "channel")
        self.states = [
            DeviceIssueState(i, trace, cfg)
            for i, (trace, cfg) in enumerate(
                zip(self.traces, self.device_configs)
            )
        ]
        self._core: Optional[SessionCore] = SessionCore(
            self.states, self.scheme, self.channel
        )
        self.issued = 0
        self._digest = hashlib.sha256()
        self._result: Optional[RunResult] = None

        # Optional functional shard: per-tenant keys derived from the
        # tenant secret, its own obs registry so engine.events.* never
        # collides with the timing scheme's groups.
        self.memory: Optional[SecureMemory] = None
        self._data_obs: Optional[ObsContext] = None
        if data_bytes:
            self._data_obs = ObsContext.disabled()
            keys = KeySet.from_seed(
                b"repro-session:" + secret + b":" + tenant.encode()
            )
            self.memory = SecureMemory(
                data_bytes, keys=keys, obs=self._data_obs
            )

    # ------------------------------------------------------------------
    # Construction from a declarative request body (the daemon path)
    # ------------------------------------------------------------------

    @classmethod
    def from_params(
        cls,
        scenario: str = "cc1",
        scheme: str = "ours",
        engine: str = "scalar",
        duration: float = 2000.0,
        seed: int = 0,
        warmup: bool = False,
        tenant: str = "local",
        secret: bytes = b"",
        data_bytes: int = 0,
    ) -> "EngineSession":
        """Build a session exactly as ``run_scenario`` would.

        Traces come from :meth:`Scenario.build_traces` (deterministic in
        ``seed``), so two sessions built from equal params -- one in the
        daemon, one in-process -- replay identical request streams.
        """
        from repro.sim.scenario import selected_scenario

        scn = selected_scenario(scenario)
        traces, footprint = scn.build_traces(
            duration_cycles=float(duration), seed=int(seed)
        )
        config = SoCConfig(sim_engine=engine)
        return cls(
            traces,
            scheme,
            config=config,
            footprint=footprint,
            warmup=warmup,
            tenant=tenant,
            secret=secret,
            data_bytes=data_bytes,
            params={
                "scenario": scenario,
                "scheme": scheme,
                "engine": engine,
                "duration": float(duration),
                "seed": int(seed),
                "warmup": bool(warmup),
                "data_bytes": int(data_bytes),
            },
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.issued >= self.total_requests

    def step(self, requests: Optional[int] = None) -> List[List[object]]:
        """Advance up to ``requests`` requests; return their observables.

        ``None`` (or any bound >= the remaining work) drains the
        session.  A whole-run step on a fast-tier session is served by
        one vectorized :mod:`repro.engine_fast` replay; bounded windows
        step the scalar :class:`SessionCore` incrementally.  Returns
        ``[]`` once the session is drained.
        """
        if self.done:
            return []
        sink: list = []
        if (
            self._fast_run is not None
            and self.issued == 0
            and (requests is None or requests >= self.total_requests)
        ):
            # Batched ingestion: the whole window replays through the
            # prebuilt arenas in one fused pass.
            self._fast_run(self.states, self.scheme, self.channel, sink=sink)
            self._core = None
        else:
            assert self._core is not None
            self._core.step(limit=requests, sink=sink)

        window: List[List[object]] = []
        for at, device, addr, is_write, completion in sink:
            row = [
                self.issued,
                int(device),
                int(addr),
                "W" if is_write else "R",
                float(at),
                float(completion),
            ]
            self.issued += 1
            self._digest.update(canonical_json(row).encode())
            self._digest.update(b"\n")
            window.append(row)
        return window

    def step_to(self, issued_target: int) -> List[List[object]]:
        """Advance until ``issued`` reaches ``issued_target``; return rows.

        The rehydration primitive: the daemon's tenant store records
        cumulative ``issued`` watermarks per committed window
        (``repro-tenant/v1``), and replaying a journal is exactly
        stepping a fresh session to each recorded watermark in order --
        byte-identical by determinism, verified against the recorded
        digest after every window.
        """
        if issued_target < self.issued:
            raise ValueError(
                f"cannot step back to {issued_target} "
                f"(already issued {self.issued})"
            )
        rows: List[List[object]] = []
        while self.issued < issued_target and not self.done:
            rows.extend(self.step(issued_target - self.issued))
        return rows

    def observable_digest(self) -> str:
        """SHA-256 over canonical JSON of every row issued so far."""
        return self._digest.hexdigest()

    # ------------------------------------------------------------------
    # Data-plane facet (functional shard)
    # ------------------------------------------------------------------

    def put(self, addr: int, data: bytes) -> None:
        if self.memory is None:
            raise ValueError("session opened without a data shard")
        self.memory.write(addr, data)

    def get(self, addr: int, size: int) -> bytes:
        if self.memory is None:
            raise ValueError("session opened without a data shard")
        return self.memory.read(addr, size)

    # ------------------------------------------------------------------
    # Results, snapshots, attestation
    # ------------------------------------------------------------------

    def result(self) -> RunResult:
        """Settle and assemble the RunResult (requires a drained session).

        Byte-identical to :func:`repro.sim.soc.simulate` of the same
        traces/scheme/config: the same :func:`finalize_run` runs over
        the same objects in the same order.
        """
        if not self.done:
            raise ValueError(
                f"session not drained: {self.issued}/{self.total_requests} "
                "requests issued"
            )
        if self._result is None:
            self._result = finalize_run(
                self.states, self.scheme, self.channel, engine=self.engine
            )
        return self._result

    def snapshot(self) -> Dict[str, object]:
        """Addressable point-in-time state (no side effects)."""
        snap: Dict[str, object] = {
            "schema": SESSION_SCHEMA,
            "tenant": self.tenant,
            "scheme": self.scheme_name,
            "engine": self.engine,
            "params": dict(self.params),
            "issued": self.issued,
            "total_requests": self.total_requests,
            "done": self.done,
            "cursors": [st.cursor for st in self.states],
            "observables_sha256": self.observable_digest(),
        }
        if self.memory is not None:
            snap["data"] = {
                "reads": self.memory.reads,
                "writes": self.memory.writes,
                "quarantined_lines": len(self.memory.quarantined_lines()),
                "key_epochs": {
                    str(chunk): epoch
                    for chunk, epoch in sorted(
                        self.memory._key_epochs.items()
                    )
                },
            }
        return snap

    def report(self) -> Dict[str, object]:
        """Unsigned attestation body (``repro-attest/v1``).

        Assembled from :mod:`repro.obs` metrics plus the functional
        shard's integrity state; the daemon signs it with the service
        key (see :func:`repro.service.protocol.sign_report`).  Works on
        a live session (metrics-so-far) and on a drained one (full
        device results included).
        """
        body: Dict[str, object] = {
            "schema": ATTEST_SCHEMA,
            "session": self.snapshot(),
            "observables": {
                "count": self.issued,
                "fields": list(OBSERVABLE_FIELDS),
                "sha256": self.observable_digest(),
            },
        }
        if self.done:
            result = self.result()
            body["devices"] = [d.to_dict() for d in result.devices]
            body["metrics"] = dict(result.metrics)
            body["finish_cycle"] = result.finish_cycle
        else:
            body["metrics"] = self.scheme.obs.registry.snapshot()
        if self.memory is not None:
            assert self._data_obs is not None
            body["integrity"] = {
                "quarantined_lines": self.memory.quarantined_lines(),
                "key_epochs": {
                    str(chunk): epoch
                    for chunk, epoch in sorted(
                        self.memory._key_epochs.items()
                    )
                },
                "events": [
                    dataclasses.asdict(event)
                    for event in self.memory.integrity_log.events
                ],
                "metrics": self._data_obs.registry.snapshot(),
            }
        return body

    def run(self) -> RunResult:
        """Drain and settle in one call (the in-process parity path)."""
        self.step(None)
        return self.result()

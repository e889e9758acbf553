#!/usr/bin/env python
"""Daemon load driver: spawn, flood, verify parity, shut down cleanly.

The CI ``daemon`` job's workhorse (and a developer tool for bigger
scales):

1. spawn ``python -m repro serve --socket PATH`` through the chaos
   story's :class:`~repro.service.chaos.DaemonHarness`;
2. drive ``--tenants`` concurrent tenant sessions (mixed scalar/fast
   shards by default) over ``--connections`` multiplexed connections;
3. hold every tenant to the shared parity verdict: its observable
   digest is byte-identical to an in-process run of the same trace,
   and its signed report verifies under the daemon's key;
4. SIGTERM the daemon under the harness's clean-shutdown verdict:
   status 0, socket unlinked, no orphan process.

Exit status: 0 all green, 1 parity/load failure, 2 daemon lifecycle
failure.  The ``repro-load/v1`` report lands at ``--output`` either
way (CI uploads it as an artifact).

Usage:
    PYTHONPATH=src python scripts/load_daemon.py \
        --tenants 64 --connections 8 --engines mixed \
        --duration 400 --output load_report.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
sys.path.insert(0, REPO_SRC)

from repro.service.chaos import DaemonHarness, short_socket_path  # noqa: E402
from repro.service.load import run_load  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", type=int, default=64)
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument(
        "--engines", choices=["scalar", "fast", "mixed"], default="mixed"
    )
    parser.add_argument("--duration", type=float, default=400.0)
    parser.add_argument("--output", default="load_report.json")
    parser.add_argument(
        "--shutdown-timeout", type=float, default=30.0,
        help="seconds the daemon gets to exit after SIGTERM",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="run the daemon with durable tenant journals under DIR and "
        "gate shutdown on the graceful-drain line",
    )
    args = parser.parse_args(argv)

    harness = DaemonHarness(
        short_socket_path("load"), os.urandom(32), state_dir=args.state_dir
    )

    async def drive():
        await harness.start()
        print(
            f"daemon up (pid {harness.proc.pid}); driving {args.tenants} "
            f"tenants over {args.connections} connections "
            f"({args.engines} engines)"
        )
        return await run_load(
            tenants=args.tenants,
            connections=args.connections,
            engines=args.engines,
            duration=args.duration,
            socket_path=harness.socket_path,
            service_secret=harness.service_secret,
            progress=lambda line: print(f"  {line}", flush=True),
        )

    status = 0
    report = {}
    try:
        report = asyncio.run(drive())
        print(
            f"sessions {report['sessions_completed']}/{report['tenants']}, "
            f"requests {report['requests_served']}, engines "
            f"{report['engines']}, parity {report['parity_checked']} "
            f"checked, drive {report['drive_seconds']:.2f}s"
        )
        for line in report["failures"][:20]:
            print(f"FAIL {line}", file=sys.stderr)
        if not report["ok"]:
            status = 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    finally:
        shutdown = harness.drain(args.shutdown_timeout)
        harness.cleanup()
    for line in shutdown:
        print(f"error: {line}", file=sys.stderr)
    if shutdown:
        status = max(status, 2)

    report.setdefault("schema", "repro-load/v1")
    report["daemon_exit"] = harness.exit_code
    report["clean_shutdown"] = status < 2
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"load report -> {args.output}")
    print("PASS" if status == 0 else "FAIL")
    return status


if __name__ == "__main__":
    sys.exit(main())

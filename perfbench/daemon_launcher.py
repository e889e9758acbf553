"""Traced daemon: ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/daemon_launcher.py --spans-out spans.json -- serve --socket d.sock

It installs the same wrappers as the in-process traced run plus one
root span per tenant request, calibrates the wrapper cost, runs
``repro.cli.main`` with the arguments after ``--``, and when the daemon
has shut down (SIGTERM) writes the reduced spans to ``--spans-out``.
The traced daemon is still a separate process, exactly like the
untraced one.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[3:]
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    from perfbench import tracing
    from repro.cli import main as repro_main

    rec = tracing.Recorder()
    rec.calibration.update(tracing.calibrate())
    rec.install(daemon=True)
    tracing.install_daemon_roots(rec)
    status = repro_main(serve_args)
    rec.uninstall()
    summary = tracing.summarize(rec, skip="warm-")
    with open(out, "w") as fh:
        json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

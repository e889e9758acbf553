"""``repro client``: one verb per process against a live daemon.

Each verb runs through ``main`` once, as a shell would run it, against
a ``repro serve`` subprocess; every call is a fresh client that must
re-attach before a tenant verb.  The exit-code tests pin the CLI's
promise: a daemon it cannot reach, or one that stops answering, exits
2 with an error line, and a missing endpoint is a usage error.
"""

import asyncio
import json
import os
import socket

import pytest

from repro import cli
from repro.cli import main
from repro.service import protocol
from repro.service.chaos import DaemonHarness, short_socket_path

SERVICE_KEY = b"client-cli-service-key"


def run_verb(capsys, path, verb, *args):
    """One ``repro client`` invocation: (exit code, JSON body)."""
    code = main([
        "client", verb, "--socket", path, "--tenant", "t0",
        "--secret", "k", "--compact", *args,
    ])
    return code, json.loads(capsys.readouterr().out)


def test_every_verb_in_its_own_invocation(capsys):
    harness = DaemonHarness(short_socket_path("cli"), SERVICE_KEY)
    try:
        asyncio.run(harness.start())
        path = harness.socket_path
        code, opened = run_verb(
            capsys, path, "open", "--duration", "500", "--data-bytes", "4096"
        )
        assert code == 0 and opened["attached"] is False
        code, stepped = run_verb(capsys, path, "step", "--count", "10")
        assert code == 0 and stepped["issued"] == 10
        assert len(stepped["observables"]) == 10

        data = bytes(range(64))
        code, put = run_verb(
            capsys, path, "put", "--addr", "128", "--data", data.hex()
        )
        assert code == 0 and put["ok"] is True
        code, got = run_verb(capsys, path, "get", "--addr", "128")
        assert code == 0 and bytes.fromhex(got["data_hex"]) == data

        code, snapshot = run_verb(capsys, path, "snapshot")
        assert code == 0 and snapshot["issued"] == 10
        code, report = run_verb(capsys, path, "report")
        assert code == 0 and protocol.verify_report(report, SERVICE_KEY)
        code, closed = run_verb(capsys, path, "close")
        assert code == 0 and closed["closed"] is True
        assert closed["issued"] == 10
    finally:
        harness.cleanup()


def test_unreachable_daemon_exits_2(capsys):
    code = main(["client", "ping", "--socket", short_socket_path("gone")])
    assert code == 2
    assert "error: cannot reach daemon" in capsys.readouterr().err


def test_missing_endpoint_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["client", "ping"])
    assert excinfo.value.code == 2
    assert "--socket" in capsys.readouterr().err


def test_silent_daemon_exits_2_once_the_bound_expires(monkeypatch, capsys):
    monkeypatch.setattr(cli, "CLIENT_TIMEOUT_S", 0.3)
    path = short_socket_path("mute")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)  # connections queue; none is ever answered
    try:
        code = main(["client", "ping", "--socket", path])
    finally:
        listener.close()
        os.unlink(path)
    assert code == 2
    assert "did not answer within 0.3 s" in capsys.readouterr().err

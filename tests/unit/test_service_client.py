"""Client resilience: typed unavailability, deterministic backoff.

No daemon here -- these tests point the client at an endpoint that
never existed and pin the *client-side* contract: raw
``ConnectionRefusedError`` / ``FileNotFoundError`` never leak, the
typed :class:`ServiceUnavailableError` names the endpoint and attempt
count, and the reconnect backoff schedule is a pure function of
``(endpoint, attempt)``.
"""

import asyncio
import os
import tempfile
import uuid

import pytest

from repro.service.client import (
    AsyncServiceClient,
    ServiceError,
    ServiceUnavailableError,
    reconnect_delay,
)


def dead_socket_path():
    return os.path.join(
        tempfile.gettempdir(), f"repro-dead-{uuid.uuid4().hex[:10]}.sock"
    )


def test_async_request_raises_typed_error():
    path = dead_socket_path()

    async def scenario():
        client = AsyncServiceClient(socket_path=path, retries=1)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            await client.request("ping")
        await client.close_connection()
        return excinfo.value

    err = asyncio.run(scenario())
    assert err.endpoint == path
    assert err.attempts == 2
    assert path in str(err)
    assert "2 attempt(s)" in str(err)
    assert isinstance(err.cause, OSError)
    assert err.code == "service-unavailable"


def test_backoff_is_deterministic_capped_and_jittered():
    sched = [reconnect_delay("ep", attempt) for attempt in range(8)]
    assert sched == [reconnect_delay("ep", a) for a in range(8)]  # pure
    assert all(0 < d <= 1.5 for d in sched)  # capped at 1.5 * cap
    # Exponential growth dominates the jitter across two doublings.
    assert sched[4] > sched[2] > sched[0]
    # Distinct endpoints desynchronize.
    assert sched != [reconnect_delay("other", a) for a in range(8)]


def test_service_error_carries_retry_after():
    err = ServiceError("overloaded", "busy", retry_after=0.25)
    assert err.code == "overloaded"
    assert err.retry_after == 0.25
    assert ServiceError("auth-error", "nope").retry_after is None

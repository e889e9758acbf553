"""Wire-protocol unit + fuzz suite (``repro-wire/v1``).

Framing, envelope validation, authentication tags and report
signatures are pure functions, so they are fuzzed here without a
daemon; the live-daemon robustness matrix (truncated frames over a
real socket, mid-session disconnects, session-leak accounting) lives
in tests/integration/test_service_daemon.py.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    AuthError,
    EnvelopeError,
    FrameError,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def test_frame_roundtrip():
    payload = {"v": protocol.WIRE_SCHEMA, "id": 7, "op": "ping", "body": {}}
    frame = protocol.encode_frame(payload)
    length = protocol.decode_length(frame[:HEADER_BYTES])
    assert length == len(frame) - HEADER_BYTES
    assert protocol.decode_body(frame[HEADER_BYTES:]) == payload


def test_zero_length_frame_rejected():
    with pytest.raises(FrameError):
        protocol.decode_length(struct.pack(">I", 0))


def test_oversized_declared_length_rejected():
    with pytest.raises(FrameError, match="exceeds"):
        protocol.decode_length(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_truncated_header_rejected():
    with pytest.raises(FrameError, match="truncated"):
        protocol.decode_length(b"\x00\x00")


def test_oversized_payload_refused_at_encode():
    with pytest.raises(FrameError):
        protocol.encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 16)})


@pytest.mark.parametrize("request_id", [7, "r" * 300])
def test_max_get_bytes_is_the_exact_reply_frame_boundary(request_id):
    limit = protocol.max_get_bytes(request_id)
    fits = protocol.ok_response(request_id, {"data_hex": "ab" * limit})
    assert len(protocol.encode_frame(fits)) <= HEADER_BYTES + MAX_FRAME_BYTES
    over = protocol.ok_response(request_id, {"data_hex": "ab" * (limit + 1)})
    with pytest.raises(FrameError):
        protocol.encode_frame(over)


def test_non_object_body_rejected():
    with pytest.raises(FrameError, match="object"):
        protocol.decode_body(json.dumps([1, 2, 3]).encode())


def test_garbage_body_rejected():
    with pytest.raises(FrameError, match="JSON"):
        protocol.decode_body(b"\xff\xfe not json at all")


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=200, deadline=None)
def test_fuzz_decode_body_never_crashes(blob):
    """Arbitrary bytes either parse to an object or raise FrameError."""
    try:
        obj = protocol.decode_body(blob)
    except FrameError:
        return
    assert isinstance(obj, dict)


@given(st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES))
@settings(max_examples=200, deadline=None)
def test_fuzz_decode_length_bounds(header):
    """Any 4-byte header yields a bounded length or a FrameError."""
    try:
        length = protocol.decode_length(header)
    except FrameError:
        return
    assert 0 < length <= MAX_FRAME_BYTES


# ----------------------------------------------------------------------
# Envelopes + auth
# ----------------------------------------------------------------------

def _request(op="step", tenant="t", seq=3, secret=b"k", body=None):
    return protocol.make_request(
        1, op, body or {}, tenant=tenant, seq=seq, secret=secret
    )


def test_envelope_roundtrip_validates_and_verifies():
    env = _request(body={"requests": 5})
    assert protocol.validate_envelope(env) == "step"
    protocol.verify_tag(b"k", env)  # must not raise


def test_service_ops_need_no_tenant():
    env = protocol.make_request(2, "ping")
    assert protocol.validate_envelope(env) == "ping"
    assert "tenant" not in env


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: e.update(v="repro-wire/v0"),
        lambda e: e.update(op="drop-tables"),
        lambda e: e.pop("id"),
        lambda e: e.update(body=[1, 2]),
        lambda e: e.update(tenant=""),
        lambda e: e.pop("seq"),
        lambda e: e.update(seq="one"),
        lambda e: e.pop("tag"),
    ],
)
def test_malformed_envelopes_rejected(mutate):
    env = _request()
    mutate(env)
    with pytest.raises(EnvelopeError):
        protocol.validate_envelope(env)


def test_wrong_key_rejected():
    env = _request(secret=b"right")
    with pytest.raises(AuthError, match="key id"):
        protocol.verify_tag(b"wrong", env)


def test_tampered_body_rejected():
    env = _request(secret=b"k", body={"requests": 5})
    env["body"] = {"requests": 500}
    with pytest.raises(AuthError, match="tag"):
        protocol.verify_tag(b"k", env)


def test_tag_binds_op_tenant_and_seq():
    env = _request(op="step", tenant="t", seq=3, secret=b"k")
    for field, value in (("op", "close"), ("tenant", "t2"), ("seq", 4)):
        forged = dict(env)
        forged[field] = value
        with pytest.raises(AuthError):
            protocol.verify_tag(b"k", forged)


@given(
    tenant=st.text(min_size=1, max_size=16),
    op=st.sampled_from(protocol.TENANT_OPS),
    seq=st.integers(min_value=0, max_value=2**31),
    secret=st.binary(min_size=1, max_size=48),
)
@settings(max_examples=100, deadline=None)
def test_fuzz_envelope_roundtrip(tenant, op, seq, secret):
    env = protocol.make_request(
        9, op, {"k": 1}, tenant=tenant, seq=seq, secret=secret
    )
    assert protocol.validate_envelope(env) == op
    protocol.verify_tag(secret, env)
    with pytest.raises(AuthError):
        protocol.verify_tag(secret + b"x", env)


# ----------------------------------------------------------------------
# Signed reports
# ----------------------------------------------------------------------

def test_report_sign_verify_roundtrip():
    body = {"schema": "repro-attest/v1", "observables": {"sha256": "ab"}}
    signed = protocol.sign_report(body, b"service-key")
    assert protocol.verify_report(signed, b"service-key")
    assert not protocol.verify_report(signed, b"other-key")


def test_tampered_report_fails_verification():
    signed = protocol.sign_report(
        {"schema": "repro-attest/v1", "count": 10}, b"service-key"
    )
    signed["count"] = 11
    assert not protocol.verify_report(signed, b"service-key")


def test_resigning_is_stable():
    body = {"a": 1, "b": {"c": [1, 2]}}
    one = protocol.sign_report(body, b"k")
    two = protocol.sign_report(dict(body), b"k")
    assert one["sig"] == two["sig"]

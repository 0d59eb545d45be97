"""Frame encoding/decoding unit tests (no sockets)."""

import pytest

from repro.serve import protocol


def test_frame_round_trip():
    raw = protocol.encode_frame(protocol.PING, b"abc")
    assert raw[:4] == (4).to_bytes(4, "big")  # type byte + 3 payload bytes
    assert raw[4] == protocol.PING
    assert raw[5:] == b"abc"


def test_request_round_trip():
    raw = protocol.encode_request(
        "eraser.full", digest="d" * 64, timeout=2.5, trace_bytes=b"\x01\x02"
    )
    body = raw[5:]
    request = protocol.decode_request(body)
    assert request.spec == "eraser.full"
    assert request.digest == "d" * 64
    assert request.timeout == 2.5
    assert request.trace_bytes == b"\x01\x02"


def test_request_digest_only():
    request = protocol.decode_request(
        protocol.encode_request("msan.alda", digest="a" * 64)[5:]
    )
    assert request.trace_bytes == b""
    assert request.digest == "a" * 64


@pytest.mark.parametrize("body", [
    b"",                               # too short for the header length
    b"\xff\xff\xff\xff",               # header length beyond the body
    (4).to_bytes(4, "big") + b"nope",  # header is not JSON
    (2).to_bytes(4, "big") + b"[]",    # header is not an object
    (14).to_bytes(4, "big") + b'{"spec": null}',  # spec must be a string
])
def test_malformed_request_bodies_rejected(body):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(body)


@pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan"), float("inf"),
                                     float("-inf")])
def test_nonsensical_timeouts_rejected(timeout):
    # json.dumps writes NaN and Infinity, so a header can carry them.
    raw = protocol.encode_request("msan.alda", digest="a" * 64, timeout=timeout)
    with pytest.raises(protocol.ProtocolError, match="finite number above 0"):
        protocol.decode_request(raw[5:])


def test_positive_timeouts_accepted():
    for timeout in (1e-3, 2, 120.0):
        request = protocol.decode_request(protocol.encode_request(
            "msan.alda", digest="a" * 64, timeout=timeout)[5:])
        assert request.timeout == float(timeout)


def test_request_without_digest_or_trace_rejected():
    header = b'{"spec": "msan.alda"}'
    body = len(header).to_bytes(4, "big") + header
    with pytest.raises(protocol.ProtocolError, match="neither trace bytes"):
        protocol.decode_request(body)


def test_json_frame_round_trip():
    raw = protocol.encode_json_frame(protocol.ERROR, {"code": "TIMEOUT"})
    assert protocol.decode_json_body(raw[5:]) == {"code": "TIMEOUT"}
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_json_body(b"\x00garbage")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_json_body(b"[1, 2]")  # not an object


def test_error_codes_cover_server_usage():
    for code in ("BAD_FRAME", "FRAME_TOO_LARGE", "UNKNOWN_SPEC",
                 "UNKNOWN_TRACE", "TIMEOUT", "WORKER_CRASH", "SHUTTING_DOWN"):
        assert code in protocol.ERROR_CODES

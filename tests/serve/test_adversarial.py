"""Adversarial client behaviour: the daemon must fail requests, not die.

Every test here ends by proving the server still answers a well-formed
request — the failure stayed scoped to the offending client/worker.
"""

import json
import socket
import struct
import time
import zlib

import pytest

from repro.serve import protocol
from repro.serve.client import RequestFailed, ServeClient
from repro.trace.format import TraceReader

from tests.serve.conftest import crash_in_worker_builder, needs_fork


def _raw_connection(handle) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", handle.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _assert_still_serving(handle, blob) -> None:
    with ServeClient(handle.address) as client:
        assert client.ping()
        assert not client.submit(
            "eraser.full", trace_bytes=blob
        )["result"]["n_reports"] > 10**9


def test_oversized_frame_rejected_before_read(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server(max_frame=4096)
    sock = _raw_connection(handle)
    try:
        # Declare a 512 MiB body; send nothing else.  The server must
        # reject on the declared length alone instead of buffering.
        sock.sendall(struct.pack(">I", 512 << 20))
        frame_type, body = protocol.recv_frame(sock)
        assert frame_type == protocol.ERROR
        assert json.loads(body)["code"] == "FRAME_TOO_LARGE"
        assert sock.recv(1) == b""  # and the connection is closed
    finally:
        sock.close()
    with ServeClient(handle.address) as client:  # small frames still served
        assert client.ping()


def test_oversized_trace_upload_rejected(make_server, fft_trace):
    """A fully-delivered oversized body is also refused."""
    _digest, blob, _plain = fft_trace
    handle = make_server(max_frame=1024)  # smaller than the fft trace
    sock = _raw_connection(handle)
    try:
        sock.sendall(protocol.encode_request("eraser.full", trace_bytes=blob))
        frame_type, body = protocol.recv_frame(sock)
        assert frame_type == protocol.ERROR
        assert json.loads(body)["code"] == "FRAME_TOO_LARGE"
    finally:
        sock.close()


def test_truncated_frame_fails_cleanly(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    sock = _raw_connection(handle)
    try:
        # Promise 1000 bytes, deliver 10, then half-close.
        sock.sendall(struct.pack(">I", 1000) + b"\x01" + b"x" * 9)
        sock.shutdown(socket.SHUT_WR)
        frame_type, body = protocol.recv_frame(sock)
        assert frame_type == protocol.ERROR
        assert json.loads(body)["code"] == "BAD_FRAME"
    finally:
        sock.close()
    _assert_still_serving(handle, blob)


def test_garbage_request_header(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    sock = _raw_connection(handle)
    try:
        header = b"this is not json"
        body = struct.pack(">I", len(header)) + header
        sock.sendall(protocol.encode_frame(protocol.REQUEST, body))
        frame_type, payload = protocol.recv_frame(sock)
        assert frame_type == protocol.ERROR
        assert json.loads(payload)["code"] == "BAD_FRAME"
    finally:
        sock.close()
    _assert_still_serving(handle, blob)


def test_unknown_analysis_key(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        with pytest.raises(RequestFailed) as exc_info:
            client.submit("totally.bogus", trace_bytes=blob)
        assert exc_info.value.code == "UNKNOWN_SPEC"
        # the connection survives a refused request
        assert client.ping()


def test_unknown_spec_is_not_echoed_whole(make_server, fft_trace):
    digest, _blob, _plain = fft_trace
    handle = make_server(workers=0)
    spec = "x" * 1_000_000
    with ServeClient(handle.address) as client:
        with pytest.raises(RequestFailed) as exc_info:
            client.submit(spec, digest=digest)
        assert exc_info.value.code == "UNKNOWN_SPEC"
        assert "x" * 80 not in exc_info.value.message  # quoted to 80 chars
        assert len(exc_info.value.message) < 1000
        with pytest.raises(RequestFailed) as exc_info:
            client.put_result(digest, spec,
                              {"instrumented_cycles": 1, "metadata_bytes": 1,
                               "n_reports": 1})
        assert exc_info.value.code == "UNKNOWN_SPEC"
        assert "x" * 80 not in exc_info.value.message
        assert len(exc_info.value.message) < 1000
        assert client.ping()


def test_corrupt_trace_bytes_rejected(make_server, fft_trace):
    digest, blob, _plain = fft_trace
    # a well-formed trace in the retired version-1 container
    meta = json.dumps({"version": 1, "digest": digest}).encode()
    v1 = (b"ALDATRC1" + zlib.compress(TraceReader(blob).payload) + meta
          + struct.pack("<I", len(meta)) + b"ALDT")
    handle = make_server()
    with ServeClient(handle.address) as client:
        for trace_bytes in (b"ALDATRC1" + b"\x00" * 64, v1):
            with pytest.raises(RequestFailed) as exc_info:
                client.submit("eraser.full", trace_bytes=trace_bytes)
            assert exc_info.value.code == "BAD_TRACE"
            assert "version '1'" in str(exc_info.value)
        # bit-flip inside the payload: digest verification catches it
        corrupt = bytearray(blob)
        corrupt[len(corrupt) // 2] ^= 0xFF
        with pytest.raises(RequestFailed) as exc_info:
            client.submit("eraser.full", trace_bytes=bytes(corrupt))
        assert exc_info.value.code in ("BAD_TRACE", "BAD_FRAME")
    _assert_still_serving(handle, blob)


def test_slow_loris_hits_read_timeout(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server(read_timeout=0.5)
    sock = _raw_connection(handle)
    try:
        sock.sendall(b"\x00\x00")  # 2 bytes of a 4-byte length, then stall
        started = time.monotonic()
        assert sock.recv(1) == b""  # server hangs up on us
        assert time.monotonic() - started < 5.0
    finally:
        sock.close()
    _assert_still_serving(handle, blob)


def test_read_deadline_is_per_frame(make_server, fft_trace):
    """A client that keeps sending is never cut, however long it stays;
    the deadline re-arms for every frame and still fires on a stall."""
    digest, blob, _plain = fft_trace
    handle = make_server(workers=0, read_timeout=0.5)
    with ServeClient(handle.address) as client:
        client.submit("eraser.full", trace_bytes=blob)
    sock = _raw_connection(handle)
    try:
        started = time.monotonic()
        while time.monotonic() - started < 2.0:
            sock.sendall(protocol.encode_request("eraser.full", digest=digest))
            frame_type, body = protocol.recv_frame(sock)
            assert frame_type == protocol.RESULT, body
            time.sleep(0.3)
        stalled = time.monotonic()
        assert sock.recv(1) == b""  # now idle past the deadline: cut
        assert time.monotonic() - stalled < 5.0
    finally:
        sock.close()
    with ServeClient(handle.address) as client:
        assert client.stats()["counters"]["read_timeouts"] == 1


def test_malformed_digest_rejected(make_server):
    handle = make_server()
    with ServeClient(handle.address) as client:
        with pytest.raises(RequestFailed) as exc_info:
            client.submit("eraser.full", digest="../../etc/passwd")
        assert exc_info.value.code == "BAD_FRAME"


# TraceReader.digest is 64 lowercase hex characters; anything else is
# refused with a typed error before it reaches the file system (a
# 5000-character file name would raise OSError there).
@pytest.mark.parametrize("digest", [
    "a" * 5000, "A" * 64, "g" * 64, "a" * 63, "a" * 65,
], ids=["long", "upper-case", "non-hex", "short", "one-too-many"])
def test_malformed_digest_typed_errors(make_server, digest):
    handle = make_server(workers=0)
    with ServeClient(handle.address) as client:
        with pytest.raises(RequestFailed) as exc_info:
            client.submit("eraser.full", digest=digest)
        assert exc_info.value.code == "BAD_FRAME"
        assert len(str(exc_info.value)) < 200  # the digest is not echoed whole
        with pytest.raises(RequestFailed) as exc_info:
            client.put_result(digest, "eraser.full",
                              {"instrumented_cycles": 1, "metadata_bytes": 1,
                               "n_reports": 1})
        assert exc_info.value.code == "BAD_RESULT"
        assert client.ping()


@needs_fork
def test_worker_crash_mid_request(make_server, fft_trace, inject_spec):
    """A dying worker fails its own request; the pool respawns."""
    digest, blob, _plain = fft_trace
    spec = inject_spec("test.crash", crash_in_worker_builder)
    handle = make_server(workers=1)
    with ServeClient(handle.address) as client:
        client.submit("msan.alda", trace_bytes=blob)  # warm + ingest
        with pytest.raises(RequestFailed) as exc_info:
            client.submit(spec, digest=digest)
        assert exc_info.value.code == "WORKER_CRASH"
        # the pool healed: new worker, same warm path, correct result
        response = client.submit("eraser.full", digest=digest)
        assert response["result"]["instrumented_cycles"] > 0
        snap = client.stats()
    assert snap["counters"]["worker_crashes"] == 1
    assert snap["gauges"]["worker_restarts"] == 1
    assert snap["gauges"]["workers_alive"] == 1

"""Length-prefixed binary wire protocol for the analysis daemon.

Every message is one *frame*::

    +-----------------------------+
    | u32 BE body length          |
    | u8  frame type              |
    | body (length - 1 bytes)     |
    +-----------------------------+

Request frames (client -> server):

=============  ==========================================================
``REQUEST``    submit one replay: ``u32 BE header length`` + UTF-8 JSON
               header + raw trace bytes (may be empty for digest-only /
               cache lookups).  Header keys: ``spec`` (analysis registry
               key, required), ``digest`` (trace payload digest, required
               when no trace bytes follow), ``timeout`` (seconds,
               optional, finite and above 0, capped by the server).
``STATS``      admin: request a metrics snapshot (empty body)
``PING``       liveness probe (empty body)
``SHUTDOWN``   admin: ask the server to drain and exit (empty body)
=============  ==========================================================

Response frames (server -> client):

=============  ==========================================================
``RESULT``     JSON: ``result`` (replay cost summary), ``cached``,
               ``single_flight``, ``wall_ms``
``ERROR``      JSON: ``code`` (one of :data:`ERROR_CODES`), ``message``
``BUSY``       JSON: ``queue_depth``, ``capacity`` — admission queue is
               full; the client should back off and retry
``STATS``      JSON metrics snapshot (see :mod:`repro.serve.metrics`)
``PONG``       empty body
=============  ==========================================================

Backpressure semantics: ``BUSY`` is the *only* overload response — the
server never buffers beyond its configured admission capacity, so memory
under overload is bounded and the slow-down is pushed to clients.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import VMError

#: Frame type bytes.
REQUEST = 0x01
RESULT = 0x02
ERROR = 0x03
BUSY = 0x04
STATS_REQUEST = 0x05
STATS = 0x06
PING = 0x07
PONG = 0x08
SHUTDOWN = 0x09

FRAME_NAMES = {
    REQUEST: "REQUEST",
    RESULT: "RESULT",
    ERROR: "ERROR",
    BUSY: "BUSY",
    STATS_REQUEST: "STATS_REQUEST",
    STATS: "STATS",
    PING: "PING",
    PONG: "PONG",
    SHUTDOWN: "SHUTDOWN",
}

#: Error codes carried by ``ERROR`` frames.
ERROR_CODES = (
    "BAD_FRAME",        # malformed frame or request header
    "FRAME_TOO_LARGE",  # declared length exceeds the server's max frame
    "UNKNOWN_SPEC",     # analysis registry key not found
    "UNKNOWN_TRACE",    # digest-only request for a trace never ingested
    "BAD_TRACE",        # trace bytes failed validation
    "TIMEOUT",          # per-request deadline elapsed
    "WORKER_CRASH",     # the worker died executing this request
    "ANALYSIS_ERROR",   # the replay itself raised
    "SHUTTING_DOWN",    # server is draining; no new work admitted
    "INTERNAL",         # unexpected server-side failure
)

#: Default cap on one frame body.  A scale-1 workload trace is ~50 KiB,
#: so 64 MiB leaves three orders of magnitude of headroom while bounding
#: a malicious or buggy client's memory impact.
MAX_FRAME_BYTES = 64 << 20

_LEN = struct.Struct(">I")
_HDR_LEN = struct.Struct(">I")


class ProtocolError(VMError):
    """Malformed frame, oversized frame, or truncated stream."""


class FrameTooLarge(ProtocolError):
    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(f"frame of {declared} bytes exceeds limit {limit}")
        self.declared = declared
        self.limit = limit


@dataclass
class Request:
    """Decoded REQUEST frame."""

    spec: str
    digest: Optional[str] = None
    timeout: Optional[float] = None
    trace_bytes: bytes = field(default=b"", repr=False)


# ----------------------------------------------------------------------
# encoding (transport-independent)
# ----------------------------------------------------------------------
def encode_frame(frame_type: int, body: bytes = b"") -> bytes:
    return _LEN.pack(len(body) + 1) + bytes([frame_type]) + body


def encode_json_frame(frame_type: int, payload: dict) -> bytes:
    return encode_frame(frame_type, json.dumps(payload, sort_keys=True).encode("utf-8"))


def encode_request(spec: str, digest: Optional[str] = None,
                   timeout: Optional[float] = None,
                   trace_bytes: bytes = b"") -> bytes:
    header = {"spec": spec}
    if digest is not None:
        header["digest"] = digest
    if timeout is not None:
        header["timeout"] = timeout
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    body = _HDR_LEN.pack(len(raw_header)) + raw_header + trace_bytes
    return encode_frame(REQUEST, body)


def decode_request(body: bytes) -> Request:
    """Parse a REQUEST body; raises :class:`ProtocolError` on garbage."""
    if len(body) < _HDR_LEN.size:
        raise ProtocolError("request body too short for header length")
    header_len = _HDR_LEN.unpack_from(body)[0]
    header_end = _HDR_LEN.size + header_len
    if header_end > len(body):
        raise ProtocolError("request header length exceeds body")
    try:
        header = json.loads(body[_HDR_LEN.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("spec"), str):
        raise ProtocolError("request header must be an object with a 'spec' key")
    trace_bytes = body[header_end:]
    digest = header.get("digest")
    if digest is not None and not isinstance(digest, str):
        raise ProtocolError("'digest' must be a string")
    if not trace_bytes and digest is None:
        raise ProtocolError("request carries neither trace bytes nor a digest")
    timeout = header.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ProtocolError("'timeout' must be a number") from None
        if not (math.isfinite(timeout) and timeout > 0):
            raise ProtocolError("'timeout' must be a finite number above 0")
    return Request(spec=header["spec"], digest=digest, timeout=timeout,
                   trace_bytes=trace_bytes)


def decode_json_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# asyncio transport
# ----------------------------------------------------------------------
async def read_frame(reader, max_frame: int = MAX_FRAME_BYTES
                     ) -> Optional[Tuple[int, bytes]]:
    """Read one frame from an asyncio StreamReader.

    Returns ``(frame_type, body)``, or ``None`` on clean EOF before the
    length prefix.  Raises :class:`FrameTooLarge` *before* reading an
    oversized body (the declared length alone condemns the frame) and
    :class:`ProtocolError` on a stream truncated mid-frame.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("stream truncated inside frame length") from None
    length = _LEN.unpack(prefix)[0]
    if length < 1:
        raise ProtocolError("frame body must include a type byte")
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("stream truncated inside frame body") from None
    return body[0], body[1:]


def write_frame(writer, frame_type: int, body: bytes = b"") -> None:
    writer.write(encode_frame(frame_type, body))


# ----------------------------------------------------------------------
# blocking-socket transport (client side)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME_BYTES) -> Tuple[int, bytes]:
    """Blocking read of one frame; raises ProtocolError on EOF."""
    prefix = _recv_exactly(sock, _LEN.size)
    length = _LEN.unpack(prefix)[0]
    if length < 1:
        raise ProtocolError("frame body must include a type byte")
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    body = _recv_exactly(sock, length)
    return body[0], body[1:]


def send_frame(sock: socket.socket, frame_type: int, body: bytes = b"") -> None:
    sock.sendall(encode_frame(frame_type, body))

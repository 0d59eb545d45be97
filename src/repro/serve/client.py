"""Blocking client for the analysis daemon.

:class:`ServeClient` speaks the framed protocol over one persistent TCP
connection (RPCs are sequential per client; use one client per thread
for concurrency).  ``run_batch(jobs, server=HOST:PORT)`` drives figure
jobs through one (:func:`repro.exec.pool._run_served`).

Submission is digest-first: the client tries a digest-only request
(zero trace bytes on the wire) and uploads the trace once only when the
server answers ``UNKNOWN_TRACE``.  The server answers that to the first
client only and holds the others' requests until its upload lands, so
concurrent clients upload a trace once, and every later request for it
is digest-only.

**Resilience.**  Constructed with a
:class:`~repro.serve.config.ResilienceConfig`, the client retries
transient failures — ``BUSY`` backpressure, connection resets, socket
timeouts, and the transient ERROR codes the config names — with
exponential backoff + jitter under a cumulative sleep budget, behind a
circuit breaker that stops hammering a down server (typed
:class:`CircuitOpenError`) and half-opens on a timer.  Without a
config (the default) every failure surfaces immediately, exactly as
before the resilience layer existed.
"""

from __future__ import annotations

import socket
import time
from typing import Optional, Tuple, Union

from repro.serve import protocol
from repro.serve.config import ResilienceConfig
from repro.serve.resilience import CircuitBreaker, RetryPolicy

#: ERROR codes worth retrying on a fresh attempt (transient server-side
#: failures; transport errors and BUSY always retry)
RETRY_CODES = ("WORKER_CRASH",)


class ServeError(RuntimeError):
    """Base class for daemon-reported failures."""


class ServerBusy(ServeError):
    """BUSY frame: admission queue full; retry with backoff."""

    def __init__(self, payload: dict) -> None:
        super().__init__(
            f"server busy (queue {payload.get('queue_depth')}"
            f"/{payload.get('capacity')})"
        )
        self.queue_depth = payload.get("queue_depth")
        self.capacity = payload.get("capacity")


class RequestFailed(ServeError):
    """ERROR frame; ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES`."""

    def __init__(self, payload: dict) -> None:
        super().__init__(f"{payload.get('code')}: {payload.get('message')}")
        self.code = payload.get("code")
        self.message = payload.get("message")


class CircuitOpenError(ServeError):
    """The client's circuit breaker is open; no attempt was made."""

    def __init__(self, snapshot: dict) -> None:
        super().__init__(
            f"circuit breaker open after "
            f"{snapshot.get('consecutive_failures')} consecutive failures"
        )
        self.breaker = snapshot


class RetriesExhausted(ServeError):
    """Backoff attempts/budget spent without a definitive answer."""

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"request failed after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


def parse_address(address: str) -> Tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"server address must be HOST:PORT, got {address!r}")
    return host or "127.0.0.1", int(port)


class ServeClient:
    """One blocking connection to a repro.serve daemon."""

    def __init__(self, address: Union[str, Tuple[str, int]],
                 timeout: float = 300.0,
                 resilience: Optional[ResilienceConfig] = None,
                 retry_seed: Optional[int] = None) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        self.timeout = timeout
        self.resilience = resilience
        self._retry_seed = retry_seed
        self._breaker = (
            CircuitBreaker(resilience.breaker_threshold, resilience.breaker_reset)
            if resilience is not None else None
        )
        self._sock: Optional[socket.socket] = None
        #: per-client resilience counters, merged into loadgen reports
        self.retry_stats = {
            "attempts": 0, "retries": 0, "busy_retried": 0,
            "transport_retried": 0, "code_retried": 0, "breaker_rejections": 0,
        }
        #: trace uploads made by :meth:`submit_digest_first` (each one
        #: answers an ``UNKNOWN_TRACE``)
        self.uploads = 0

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, self.timeout)
            self._sock.settimeout(self.timeout)
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _rpc(self, raw_frame: bytes) -> Tuple[int, bytes]:
        sock = self._connection()
        try:
            sock.sendall(raw_frame)
            return protocol.recv_frame(sock)
        except (OSError, protocol.ProtocolError):
            self.close()  # poisoned connection: reconnect on next call
            raise

    # -- retry engine --------------------------------------------------
    def _retryable(self, exc: BaseException) -> Optional[str]:
        """Classify an exception for retry; None means surface it."""
        if isinstance(exc, ServerBusy):
            return "busy_retried"
        if isinstance(exc, (OSError, protocol.ProtocolError)):
            return "transport_retried"
        if (isinstance(exc, RequestFailed)
                and exc.code in RETRY_CODES):
            return "code_retried"
        return None

    def _call_resilient(self, attempt_once, extra_retry_codes: Tuple[str, ...] = ()):
        """Run ``attempt_once`` under the retry policy + breaker."""
        config = self.resilience
        policy = RetryPolicy(config, seed=self._retry_seed)
        delays = policy.delays()
        attempts = 0
        while True:
            if not self._breaker.allow():
                self.retry_stats["breaker_rejections"] += 1
                raise CircuitOpenError(self._breaker.snapshot())
            attempts += 1
            self.retry_stats["attempts"] += 1
            try:
                result = attempt_once()
            except Exception as exc:  # noqa: BLE001 - classified below
                # The breaker guards against an *unreachable* server:
                # only transport failures count toward it.  A typed
                # error frame (BUSY, WORKER_CRASH, ...) is the server
                # answering — retryable, but not breaker-worthy.
                if isinstance(exc, (OSError, protocol.ProtocolError)):
                    self._breaker.record_failure()
                reason = self._retryable(exc)
                if reason is None and isinstance(exc, RequestFailed):
                    if exc.code in extra_retry_codes:
                        reason = "code_retried"
                if reason is None:
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise RetriesExhausted(attempts, exc) from exc
                self.retry_stats["retries"] += 1
                self.retry_stats[reason] += 1
                time.sleep(delay)
                continue
            self._breaker.record_success()
            return result

    # -- RPCs ----------------------------------------------------------
    def submit(self, spec: str, trace_bytes: bytes = b"",
               digest: Optional[str] = None,
               timeout: Optional[float] = None) -> dict:
        """Submit one replay; returns the RESULT payload.

        Without a :class:`ResilienceConfig` this raises
        :class:`ServerBusy` on backpressure and :class:`RequestFailed`
        for ERROR frames (``exc.code`` says why, e.g. ``UNKNOWN_TRACE``
        for a digest the server has never seen).  With one, transient
        failures are retried; what still escapes is typed
        (:class:`RetriesExhausted`, :class:`CircuitOpenError`, or the
        non-transient :class:`RequestFailed`).
        """
        if self.resilience is None:
            return self._submit_once(spec, trace_bytes, digest, timeout)
        return self._call_resilient(
            lambda: self._submit_once(spec, trace_bytes, digest, timeout)
        )

    def _submit_once(self, spec: str, trace_bytes: bytes = b"",
                     digest: Optional[str] = None,
                     timeout: Optional[float] = None) -> dict:
        frame_type, body = self._rpc(protocol.encode_request(
            spec, digest=digest, timeout=timeout, trace_bytes=trace_bytes
        ))
        if frame_type == protocol.RESULT:
            return protocol.decode_json_body(body)
        if frame_type == protocol.BUSY:
            raise ServerBusy(protocol.decode_json_body(body))
        if frame_type == protocol.ERROR:
            raise RequestFailed(protocol.decode_json_body(body))
        raise ServeError(f"unexpected frame type {frame_type} in response")

    def submit_digest_first(self, spec: str, digest: str,
                            trace_bytes: bytes,
                            timeout: Optional[float] = None) -> dict:
        """Digest-only probe, uploading the trace only on UNKNOWN_TRACE.

        With resilience configured, the probe+upload pair is one
        retryable unit, and ``UNKNOWN_TRACE`` answered for the *upload*
        is itself transient: it means the server quarantined the stored
        trace as corrupt after ingest, so retrying re-uploads it.  Once
        the server has asked for the trace, retries upload it without
        probing again: the server holds other clients' probes for this
        upload, and a probe of its own would wait for itself.
        """
        upload = False

        def attempt() -> dict:
            nonlocal upload
            if not upload:
                try:
                    return self._submit_once(spec, digest=digest, timeout=timeout)
                except RequestFailed as exc:
                    if exc.code != "UNKNOWN_TRACE":
                        raise
                upload = True
            self.uploads += 1
            return self._submit_once(spec, trace_bytes=trace_bytes,
                                     digest=digest, timeout=timeout)

        if self.resilience is None:
            return attempt()
        return self._call_resilient(attempt, extra_retry_codes=("UNKNOWN_TRACE",))

    def stats(self) -> dict:
        frame_type, body = self._rpc(protocol.encode_frame(protocol.STATS_REQUEST))
        if frame_type != protocol.STATS:
            raise ServeError(f"expected STATS response, got {frame_type}")
        return protocol.decode_json_body(body)

    def ping(self) -> bool:
        frame_type, _body = self._rpc(protocol.encode_frame(protocol.PING))
        return frame_type == protocol.PONG

    def request_shutdown(self) -> None:
        """Ask the server to drain and exit (admin)."""
        self._rpc(protocol.encode_frame(protocol.SHUTDOWN))
        self.close()

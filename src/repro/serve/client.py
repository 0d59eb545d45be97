"""Blocking client for the analysis daemon.

:class:`ServeClient` speaks the framed protocol over one persistent TCP
connection (RPCs are sequential per client; use one client per thread
for concurrency).  :func:`run_jobs` is the harness adapter: it executes
a batch of :class:`~repro.exec.pool.JobSpec` against a server and
returns :class:`~repro.exec.pool.JobResult` rows interchangeable with
``run_batch``'s — same replay, same cost model, same numbers.

Submission is digest-first: the client tries a digest-only request
(zero trace bytes on the wire) and uploads the trace once only when the
server answers ``UNKNOWN_TRACE``.  After the first upload every
subsequent request for that trace, from any client, is digest-only.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.pool import JobResult, JobSpec
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
        trace as corrupt after ingest, so retrying re-uploads it.
        """
        if self.resilience is None:
            return self._digest_first_once(spec, digest, trace_bytes, timeout)
        return self._call_resilient(
            lambda: self._digest_first_once(spec, digest, trace_bytes, timeout),
            extra_retry_codes=("UNKNOWN_TRACE",),
        )

    def _digest_first_once(self, spec: str, digest: str, trace_bytes: bytes,
                           timeout: Optional[float] = None) -> dict:
        try:
            return self._submit_once(spec, digest=digest, timeout=timeout)
        except RequestFailed as exc:
            if exc.code != "UNKNOWN_TRACE":
                raise
        self.uploads += 1
        return self._submit_once(spec, trace_bytes=trace_bytes, timeout=timeout)

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


# ----------------------------------------------------------------------
# harness adapter
# ----------------------------------------------------------------------
def run_jobs(
    server: Union[str, ServeClient],
    jobs: Sequence[JobSpec],
    store=None,
    resilience: Optional[ResilienceConfig] = ResilienceConfig(),
) -> List[JobResult]:
    """Execute harness jobs against a daemon; results come back in order.

    Traces are recorded locally (into ``store``, or a temporary
    directory) exactly once per (workload, scale) — the daemon replays
    them remotely, so ``JobResult`` rows are bit-identical to
    :func:`repro.exec.pool.run_batch` on the same jobs.

    When ``server`` is an address, the client is constructed with
    ``resilience`` (default :class:`ResilienceConfig`), so transient
    ``BUSY``/reset/crash responses are retried with backoff instead of
    aborting a whole figure run.  Pass ``resilience=None`` for the old
    fail-fast behavior; a ready-made :class:`ServeClient` is used as-is,
    whatever its policy.
    """
    import tempfile

    from repro.trace.store import TraceStore
    from repro.workloads import ALL

    jobs = list(jobs)
    if not jobs:
        return []

    if isinstance(server, (str, tuple)):
        client = ServeClient(server, resilience=resilience)
        owns_client = True
    else:
        client = server
        owns_client = False
    tempdir = None
    if store is None:
        tempdir = tempfile.TemporaryDirectory(prefix="alda-client-traces-")
        store = TraceStore(tempdir.name)
    elif not isinstance(store, TraceStore):
        store = TraceStore(store)

    try:
        readers: Dict[Tuple[str, int], tuple] = {}
        for workload_name, scale in sorted({(j.workload, j.scale) for j in jobs}):
            workload = ALL[workload_name]
            reader = store.get_or_record(workload, scale)
            path = store.trace_path(workload, scale)
            readers[(workload_name, scale)] = (reader, path)

        results = []
        for job in jobs:
            reader, path = readers[(job.workload, job.scale)]
            response = client.submit_digest_first(
                job.spec, reader.digest, path.read_bytes()
            )
            record = response["result"]
            baseline = record.get("baseline_cycles")
            if baseline is None:
                baseline = reader.summary["plain_cycles"]
            results.append(JobResult(
                workload=job.workload,
                spec=job.spec,
                label=job.label or job.spec,
                scale=job.scale,
                baseline_cycles=baseline,
                instrumented_cycles=record["instrumented_cycles"],
                metadata_bytes=record["metadata_bytes"],
                n_reports=record["n_reports"],
                wall_seconds=record["wall_seconds"],
                cached=bool(response.get("cached")),
            ))
        return results
    finally:
        if owns_client:
            client.close()
        if tempdir is not None:
            tempdir.cleanup()

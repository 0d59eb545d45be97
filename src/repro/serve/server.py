"""The analysis daemon: an asyncio TCP server over warm replay workers.

``python -m repro.serve --port P --workers N`` starts one.  Clients
(:mod:`repro.serve.client`) submit a recorded trace — or just its
digest, for cache lookups — plus an analysis-registry key, and receive
the replay cost summary over the length-prefixed protocol of
:mod:`repro.serve.protocol`.

Request path, in order:

1. frame decode (a per-frame read deadline guards slow-loris clients;
   an oversized declared length is rejected before its body is read);
2. spec validation against :data:`repro.exec.pool.ANALYSIS_SPECS`;
3. trace ingest (atomic, content-addressed by payload digest) when the
   request carries bytes;
4. result-cache lookup on ``(trace digest, analysis fingerprint)`` —
   entries are digest-verified on read, corrupt ones quarantined, and a
   record missing a field of :data:`repro.exec.pool.RECORD_FIELDS` is a
   miss.  The fingerprint is memoized per spec, so a hit never leaves
   the event loop: one verified disk read, then the reply;
5. on a miss for a trace the store lacks: the first such request is
   answered ``UNKNOWN_TRACE`` (its client uploads the trace), and later
   ones wait up to :data:`INGEST_WAIT` seconds for that upload instead
   of uploading the same trace again;
6. bounded admission (``BUSY`` when full), single-flight dedup,
   then a warm :class:`~repro.exec.workers.PersistentWorkerPool` worker
   replays the trace — analyses stay compiled across requests, and a
   crashed or hung worker fails only its own request and is respawned;
7. per-request timeout with the replay left running (its result still
   lands in the cache).

Failure posture: worker crashes/hangs trip the scheduler's circuit
breaker, after which replays run *inline* in the server process
(``degraded`` in stats) until the pool proves healthy again.  A stored
trace that fails digest verification is quarantined and reported as
``UNKNOWN_TRACE`` so the client re-uploads it.  With ``workers=0`` the
server runs in permanent inline mode — slower, but correct.

SIGTERM/SIGINT drain gracefully: new requests get ``SHUTTING_DOWN``,
in-flight replays get a grace period to finish.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import signal
import socket as socketlib
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro import faultline
from repro.exec.pool import ANALYSIS_SPECS, analysis_fingerprint, load_record
from repro.exec.workers import PersistentWorkerPool, TaskError, WorkerCrashError
from repro.obs import PROCESS, MetricsRegistry
from repro.trace.format import TraceFormatError
from repro.trace.store import StoreCorruptionError, TraceStore

from repro.serve import protocol
from repro.serve.config import ResilienceConfig
from repro.serve.scheduler import BusyError, ReplayScheduler

#: per-request replay deadline, seconds (a client may ask for less)
REQUEST_TIMEOUT = 120.0
#: seconds a graceful shutdown waits for in-flight replays
DRAIN_GRACE = 15.0
#: seconds requests for a missing trace wait for another client's upload
INGEST_WAIT = 5.0


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (reported by AnalysisServer.port)
    #: replay worker processes; 0 runs every replay inline in the server
    #: process (degraded but available — useful where fork/spawn is not)
    workers: int = 2
    #: max distinct replays admitted (queued + running) before BUSY;
    #: None -> 4 slots per worker (min 4, so workers=0 still admits)
    queue_capacity: Optional[int] = None
    #: trace/result cache directory; None -> private temp dir
    store_root: Optional[str] = None
    #: per-frame read deadline (slow-loris defense)
    read_timeout: float = 10.0
    max_frame: int = protocol.MAX_FRAME_BYTES
    #: shard big-trace replays across the worker pool when the server is
    #: otherwise idle (docs/PARTITION.md); 1 disables partitioned replay
    partition_shards: int = 1
    #: minimum recorded trace records before partitioning is worth the
    #: fan-out (smaller traces replay monolithically regardless)
    partition_min_records: int = 50_000
    #: retry/breaker/watchdog knobs (shared with clients and the pool)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def resolved_capacity(self) -> int:
        if self.queue_capacity:
            return self.queue_capacity
        return max(4, self.workers * 4)


class AnalysisServer:
    """One daemon instance; start/stop from asyncio, or via serve_in_thread."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        root = self.config.store_root
        if root is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="alda-serve-")
            root = self._tempdir.name
        self.store = TraceStore(root)
        self.pool: Optional[PersistentWorkerPool] = None
        self.scheduler: Optional[ReplayScheduler] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._fingerprints: dict = {}  # spec -> analysis_fingerprint(spec)
        #: digest -> future of the upload an UNKNOWN_TRACE answer awaits
        self._ingests: dict = {}
        self._draining = False
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        resilience = self.config.resilience
        if self.config.workers > 0:
            self.pool = PersistentWorkerPool(
                self.config.workers,
                heartbeat_interval=resilience.heartbeat_interval,
                hang_timeout=resilience.hang_timeout,
                reaper_interval=resilience.reaper_interval,
            )
        self.scheduler = ReplayScheduler(
            self.pool, self.config.resolved_capacity(), self.metrics,
            resilience=resilience,
            partition_shards=self.config.partition_shards,
            partition_min_records=self.config.partition_min_records,
        )
        if self.pool is not None:
            self.metrics.gauge("workers_alive").set(self.pool.alive_workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.config.host}:{self.port}"

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )

    async def serve_until_stopped(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, let in-flight replays finish."""
        if self._draining:
            return
        self._draining = True
        self.metrics.gauge("draining").set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.scheduler is not None:
            await self.scheduler.drain(DRAIN_GRACE)
            self.scheduler.close()
        for conn_writer in list(self._connections):
            with contextlib.suppress(Exception):
                conn_writer.close()
        await asyncio.sleep(0)  # let connection handlers observe the close
        if self._tempdir is not None:
            with contextlib.suppress(OSError):
                self._tempdir.cleanup()
        self._stopped.set()

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        # The per-frame read deadline is a timer that cancels this task:
        # asyncio.wait_for would start a new Task for every frame.
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        try:
            while True:
                timer = loop.call_later(self.config.read_timeout, expire)
                try:
                    frame = await protocol.read_frame(reader,
                                                      self.config.max_frame)
                except asyncio.CancelledError:
                    if not expired:
                        raise  # server shutdown, not a slow client
                    self.metrics.counter("read_timeouts").inc()
                    break
                except protocol.FrameTooLarge:
                    self.metrics.counter("bad_frames").inc()
                    self._send_error(writer, "FRAME_TOO_LARGE",
                                     "declared frame length exceeds limit")
                    await writer.drain()
                    break
                except protocol.ProtocolError as exc:
                    self.metrics.counter("bad_frames").inc()
                    self._send_error(writer, "BAD_FRAME", str(exc))
                    await writer.drain()
                    break
                finally:
                    timer.cancel()
                if frame is None:
                    break  # clean EOF
                frame_type, body = frame
                if frame_type == protocol.PING:
                    protocol.write_frame(writer, protocol.PONG)
                elif frame_type == protocol.STATS_REQUEST:
                    writer.write(protocol.encode_json_frame(
                        protocol.STATS, self.snapshot()
                    ))
                elif frame_type == protocol.REQUEST:
                    if faultline.inject("serve.conn.reset"):
                        # Chaos: drop the connection mid-request, the
                        # way a proxy restart or a peer RST would.
                        self.metrics.counter("faults_conn_reset").inc()
                        with contextlib.suppress(Exception):
                            # shutdown() tears down the *connection*, not
                            # just this process's fd — the peer sees the
                            # reset even if a forked worker holds a
                            # leaked duplicate of the socket.
                            sock = writer.get_extra_info("socket")
                            if sock is not None:
                                sock.shutdown(socketlib.SHUT_RDWR)
                        with contextlib.suppress(Exception):
                            writer.transport.abort()
                        break
                    try:
                        await self._handle_request(writer, body)
                    except (ConnectionResetError, BrokenPipeError):
                        raise
                    except Exception as exc:  # noqa: BLE001 - fail the
                        # request, keep the connection and server alive
                        self._send_error(writer, "INTERNAL",
                                         f"{type(exc).__name__}: {exc}")
                elif frame_type == protocol.SHUTDOWN:
                    protocol.write_frame(writer, protocol.PONG)
                    await writer.drain()
                    asyncio.ensure_future(self.shutdown())
                    break
                else:
                    self.metrics.counter("bad_frames").inc()
                    self._send_error(writer, "BAD_FRAME",
                                     f"unexpected frame type {frame_type}")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            return  # loop teardown: exit quietly, socket dies with the loop
        finally:
            self._connections.discard(writer)
            # No await here: this finally also runs under task
            # cancellation at loop teardown, where awaiting would
            # re-raise and spam the loop's exception handler.
            with contextlib.suppress(Exception):
                writer.close()

    def _send_error(self, writer, code: str, message: str) -> None:
        writer.write(protocol.encode_json_frame(
            protocol.ERROR, {"code": code, "message": message}
        ))
        self.metrics.counter("errors_total").inc()

    def _send_busy(self, writer, queue_depth: int, capacity: int) -> None:
        writer.write(protocol.encode_json_frame(
            protocol.BUSY,
            {"queue_depth": queue_depth, "capacity": capacity},
        ))

    # -- request pipeline ----------------------------------------------
    async def _handle_request(self, writer, body: bytes) -> None:
        started = time.perf_counter()
        self.metrics.counter("requests_total").inc()
        try:
            request = protocol.decode_request(body)
        except protocol.ProtocolError as exc:
            self.metrics.counter("bad_frames").inc()
            self._send_error(writer, "BAD_FRAME", str(exc))
            return
        if self._draining:
            self._send_error(writer, "SHUTTING_DOWN", "server is draining")
            return
        if faultline.inject("serve.busy"):
            # Chaos: synthetic backpressure, indistinguishable from a
            # genuinely full admission queue.
            self.metrics.counter("faults_busy").inc()
            self.metrics.counter("busy_total").inc()
            capacity = self.config.resolved_capacity()
            self._send_busy(writer, capacity, capacity)
            return
        if request.spec not in ANALYSIS_SPECS:
            self._send_error(
                writer, "UNKNOWN_SPEC",
                f"unknown analysis spec {request.spec!r:.80}; "
                f"known: {sorted(ANALYSIS_SPECS)}",
            )
            return
        if request.digest is not None:
            try:
                TraceStore.check_digest(request.digest)
            except ValueError as exc:
                self._send_error(writer, "BAD_FRAME", str(exc))
                return

        loop = asyncio.get_running_loop()
        if request.trace_bytes:
            try:
                reader = await loop.run_in_executor(
                    None, self.store.ingest, request.trace_bytes
                )
            except TraceFormatError as exc:
                self._end_ingest(request.digest, False)
                self._send_error(writer, "BAD_TRACE", str(exc))
                return
            digest = reader.digest
            self._end_ingest(digest, True)
            self.metrics.counter("traces_ingested").inc()
        else:
            digest = request.digest

        key = TraceStore.result_key(digest,
                                    await self._fingerprint(request.spec))

        cached = load_record(self.store, key)
        if cached is not None:
            self.metrics.counter("cache_hits").inc()
            self._send_result(writer, cached, started, cached_hit=True,
                              single_flight=False)
            return
        self.metrics.counter("cache_misses").inc()

        if (self.store.find_by_digest(digest) is None
                and not await self._await_ingest(digest)):
            self._send_error(
                writer, "UNKNOWN_TRACE",
                f"no ingested trace with digest {digest}; "
                "submit the trace bytes once first",
            )
            return

        payload = {"root": str(self.store.root), "digest": digest,
                   "spec": request.spec}
        try:
            task, joined = self.scheduler.submit(key, payload)
        except BusyError as exc:
            self._send_busy(writer, exc.queue_depth, exc.capacity)
            return

        timeout = REQUEST_TIMEOUT
        if request.timeout is not None:
            timeout = min(timeout, request.timeout)
        try:
            record = await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            self.metrics.counter("request_timeouts").inc()
            self._send_error(
                writer, "TIMEOUT",
                f"replay exceeded {timeout:.1f}s (still running; its result "
                "will be cached)",
            )
            return
        except StoreCorruptionError as exc:
            # Inline replay hit a corrupt stored trace; it is now
            # quarantined, so a re-upload from the client repairs it.
            self._report_corruption(writer, digest, str(exc))
            return
        except WorkerCrashError as exc:
            self.metrics.counter("worker_crashes").inc()
            self._send_error(writer, "WORKER_CRASH", str(exc))
            return
        except TaskError as exc:
            message = str(exc).splitlines()[0]
            if "StoreCorruptionError" in message:
                # Same corruption, detected inside a pool worker and
                # serialized across the pipe as a TaskError.
                self._report_corruption(writer, digest, message)
                return
            self._send_error(writer, "ANALYSIS_ERROR", message)
            return
        self._send_result(writer, record, started, cached_hit=False,
                          single_flight=joined)

    async def _fingerprint(self, spec: str) -> str:
        """``analysis_fingerprint(spec)``, memoized per server.

        A spec's first use builds the analysis (a compile), so only that
        call goes to the executor, off the event loop; every later
        request reads the memo without leaving the loop.
        """
        fingerprint = self._fingerprints.get(spec)
        if fingerprint is None:
            fingerprint = await asyncio.get_running_loop().run_in_executor(
                None, analysis_fingerprint, spec
            )
            self._fingerprints[spec] = fingerprint
        return fingerprint

    def _report_corruption(self, writer, digest: str, detail: str) -> None:
        self.metrics.counter("store_corruptions").inc()
        self._send_error(
            writer, "UNKNOWN_TRACE",
            f"stored trace {digest} failed verification and was "
            f"quarantined; re-submit the trace bytes ({detail})",
        )

    async def _await_ingest(self, digest: str) -> bool:
        """Whether the trace ``digest``, which the store lacks, arrives.

        The first request for it opens a pending ingest and gets False
        at once: it is answered ``UNKNOWN_TRACE`` and its client uploads
        the trace.  Later requests wait for that upload, for at most
        :data:`INGEST_WAIT` seconds after it was opened, so concurrent
        clients upload one trace once.
        """
        pending = self._ingests.get(digest)
        if pending is None:
            loop = asyncio.get_running_loop()
            pending = self._ingests[digest] = loop.create_future()
            loop.call_later(INGEST_WAIT, self._end_ingest, digest, False, pending)
            return False
        return (await asyncio.shield(pending)
                and self.store.find_by_digest(digest) is not None)

    def _end_ingest(self, digest: Optional[str], ok: bool,
                    pending: Optional[asyncio.Future] = None) -> None:
        """Resolve the pending ingest of ``digest`` (only if it is still
        ``pending``, when given): ``ok`` says the trace arrived."""
        current = self._ingests.get(digest)
        if current is not None and pending in (None, current):
            del self._ingests[digest]
            current.set_result(ok)

    def _send_result(self, writer, record: dict, started: float,
                     cached_hit: bool, single_flight: bool) -> None:
        wall_ms = (time.perf_counter() - started) * 1000.0
        latency = "latency_cached_ms" if cached_hit else "latency_replay_ms"
        self.metrics.histogram("request_latency_ms").observe(wall_ms)
        self.metrics.histogram(latency).observe(wall_ms)
        self.metrics.counter("results_total").inc()
        writer.write(protocol.encode_json_frame(protocol.RESULT, {
            "result": record,
            "cached": cached_hit,
            "single_flight": single_flight,
            "wall_ms": wall_ms,
        }))

    # -- stats ----------------------------------------------------------
    def health(self) -> dict:
        """Pool / breaker / fault-injection / store-integrity posture."""
        report = {
            "degraded": (self.scheduler.degraded
                         if self.scheduler is not None else False),
            "faultline": faultline.stats(),
            "store": {
                **self.store.integrity_stats(),
                "quarantined": len(self.store.quarantined_entries()),
            },
        }
        if self.scheduler is not None:
            report.update(self.scheduler.health())
        return report

    def snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        # This process's subsystem counters, grouped by prefix: the VM
        # closure-compile cache, the elision pass, partitioned replay and
        # the fuzzer.  They cover embedded servers and any recording
        # done in this process; pool workers keep their own.
        import repro.fuzz  # noqa: F401 - imported for their counters
        import repro.partition  # noqa: F401
        import repro.staticpass  # noqa: F401
        import repro.vm.compile  # noqa: F401

        snap["subsystems"] = PROCESS.subsystems()
        if self.pool is not None:
            snap["gauges"]["workers_alive"] = self.pool.alive_workers
            snap["gauges"]["worker_restarts"] = self.pool.restarts
        if self.scheduler is not None:
            snap["gauges"]["admitted"] = self.scheduler.admitted
        snap["health"] = self.health()
        snap["config"] = {
            "workers": self.config.workers,
            "queue_capacity": self.config.resolved_capacity(),
            "read_timeout": self.config.read_timeout,
            "request_timeout": REQUEST_TIMEOUT,
            "store_root": str(self.store.root),
            "partition_shards": self.config.partition_shards,
            "partition_min_records": self.config.partition_min_records,
            "resilience": asdict(self.config.resilience),
        }
        return snap


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a background thread (tests, smoke checks)."""

    def __init__(self, server: AnalysisServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> str:
        return self.server.address

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> bool:
        """Shut down; True iff the server thread exited within ``timeout``
        and no replay was left in flight."""
        if self._thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(), self._loop
                ).result(timeout)
            except concurrent.futures.TimeoutError:
                return False
            self._thread.join(timeout)
        scheduler = self.server.scheduler
        return not self._thread.is_alive() and (
            scheduler is None or scheduler.drain_empty())

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(config: Optional[ServeConfig] = None,
                    start_timeout: float = 30.0) -> ServerHandle:
    """Start an AnalysisServer on a daemon thread; returns when listening."""
    config = config or ServeConfig()
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        async def main() -> None:
            server = AnalysisServer(config)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError("serve thread failed to start in time")
    if "error" in box:
        raise RuntimeError(f"serve thread failed: {box['error']}")
    return ServerHandle(box["server"], box["loop"], thread)


async def run_server(config: ServeConfig) -> None:
    """CLI entry: start, install signal handlers, serve until drained."""
    server = AnalysisServer(config)
    await server.start()
    server.install_signal_handlers()
    mode = (f"{config.workers} workers" if config.workers
            else "inline (degraded) mode, 0 workers")
    print(f"repro.serve listening on {server.address} "
          f"({mode}, "
          f"queue capacity {config.resolved_capacity()}, "
          f"store {server.store.root})", flush=True)
    await server.serve_until_stopped()
    print("repro.serve drained and stopped", flush=True)

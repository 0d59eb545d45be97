"""Admission control, single-flight dedup, and degraded-mode dispatch.

Three invariants the server leans on:

* **Bounded admission.**  At most ``capacity`` *distinct* replays may be
  admitted (queued or running) at once.  The excess is rejected with
  :class:`BusyError` immediately — the server never buffers an unbounded
  backlog, so overload degrades into fast ``BUSY`` responses instead of
  latency collapse.
* **Single flight.**  Concurrent requests for the same
  ``(trace digest, analysis fingerprint)`` key share one execution.
  Followers attach to the leader's task and do not consume admission
  capacity — a thundering herd of identical requests costs one worker
  slot.
* **Degraded availability.**  Dispatch onto the worker pool is guarded
  by a :class:`~repro.serve.resilience.CircuitBreaker`: repeated worker
  crashes/hangs trip it, and while it is open — or when the server runs
  with no pool at all (``workers=0``) — replays execute *inline* in the
  server process instead of failing.  Inline execution suppresses the
  ``worker.*`` fault points, so an injected "worker crash" can never
  take the server itself down.  ``degraded`` is visible in stats.

Work runs on :class:`repro.exec.workers.PersistentWorkerPool` via a
thread executor sized to the pool, so the event loop never blocks on a
worker pipe.  Tasks are created independently of any client connection
and awaited through ``asyncio.shield`` by callers: a client that times
out or disconnects leaves the replay running, and its result still lands
in the on-disk cache for the next request.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.exec.workers import (
    PersistentWorkerPool,
    TaskError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.obs import MetricsRegistry
from repro.serve.config import ResilienceConfig
from repro.serve.resilience import CircuitBreaker
from repro.serve.tasks import REPLAY_DIGEST_TASK


class BusyError(RuntimeError):
    """Admission queue full; carries the depth/capacity for the BUSY frame."""

    def __init__(self, queue_depth: int, capacity: int) -> None:
        super().__init__(f"admission queue full ({queue_depth}/{capacity})")
        self.queue_depth = queue_depth
        self.capacity = capacity


class ReplayScheduler:
    """Dispatches replay requests to the warm worker pool."""

    def __init__(
        self,
        pool: Optional[PersistentWorkerPool],
        capacity: int,
        metrics: MetricsRegistry,
        resilience: Optional[ResilienceConfig] = None,
        partition_shards: int = 1,
        partition_min_records: int = 50_000,
    ) -> None:
        self.pool = pool
        self.capacity = capacity
        self.metrics = metrics
        self.resilience = resilience or ResilienceConfig()
        self.partition_shards = partition_shards
        self.partition_min_records = partition_min_records
        self.breaker = CircuitBreaker(
            self.resilience.breaker_threshold, self.resilience.breaker_reset
        )
        pool_size = pool.size if pool is not None else 0
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, pool_size), thread_name_prefix="serve-worker-io"
        )
        self._inflight: Dict[str, asyncio.Task] = {}
        self._admitted = 0

    # -- introspection -------------------------------------------------
    @property
    def admitted(self) -> int:
        return self._admitted

    def drain_empty(self) -> bool:
        return not self._inflight

    @property
    def degraded(self) -> bool:
        """True when replays would not run on a healthy worker pool."""
        if self.pool is None or self.pool.size == 0:
            return True
        if self.breaker.state != CircuitBreaker.CLOSED:
            return True
        return self.pool.alive_workers == 0

    def health(self) -> dict:
        """Pool + breaker health, embedded in ``serve stats``."""
        report = {
            "degraded": self.degraded,
            "breaker": self.breaker.snapshot(),
            "inline_replays": self.metrics.counter("inline_replays").value,
        }
        if self.pool is not None:
            report["pool"] = {
                "size": self.pool.size,
                "alive": self.pool.alive_workers,
                "restarts": self.pool.restarts,
                "hangs": self.pool.hangs,
                "reaped": self.pool.reaped,
                "respawn_storms": self.pool.respawn_storms,
            }
        else:
            report["pool"] = None
        return report

    # -- submission ----------------------------------------------------
    def submit(self, key: str, payload: dict) -> Tuple[asyncio.Task, bool]:
        """Admit (or join) a replay; returns ``(task, joined_existing)``.

        Raises :class:`BusyError` instead of queueing past capacity.
        The returned task is shared: callers must ``asyncio.shield`` it
        so one caller's cancellation cannot kill another's request.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.counter("single_flight_hits").inc()
            return existing, True
        if self._admitted >= self.capacity:
            self.metrics.counter("busy_total").inc()
            raise BusyError(self._admitted, self.capacity)
        self._admitted += 1
        self.metrics.gauge("queue_depth").inc()
        task = asyncio.get_running_loop().create_task(self._execute(payload))
        self._inflight[key] = task
        task.add_done_callback(lambda _t, _key=key: self._release(_key))
        return task, False

    def _release(self, key: str) -> None:
        self._inflight.pop(key, None)
        self._admitted -= 1

    def _inline_replay(self, payload: dict) -> dict:
        """Degraded mode: replay in-process, worker faults suppressed.

        ``worker.*`` fault points simulate a *worker process* dying;
        letting them fire here would kill the server, which is exactly
        the blast-radius containment this fallback exists to provide.
        """
        from repro import faultline
        from repro.serve.tasks import replay_digest
        from repro.trace.store import StoreCorruptionError

        with faultline.suppressed("worker.crash.midjob", "worker.hang"):
            try:
                return replay_digest(payload)
            except StoreCorruptionError:
                raise  # typed: the server maps it to UNKNOWN_TRACE
            except Exception as exc:  # noqa: BLE001 - match the pool's
                # TaskError surface so callers handle one failure shape
                raise TaskError(f"{type(exc).__name__}: {exc}") from exc

    def _partition_ready(self) -> bool:
        """Partitioned replay needs an enabled config, a healthy pool of
        at least two workers, and an otherwise idle server — sharding one
        trace's decode across the pool only pays off when no other
        admitted replay is contending for the same workers."""
        return (
            self.partition_shards > 1
            and self.pool is not None
            and self.pool.size >= 2
            and self.breaker.state == CircuitBreaker.CLOSED
            and self.pool.alive_workers >= 2
            and self._admitted <= 1
        )

    def _try_partitioned(self, payload: dict) -> Optional[dict]:
        """RUN_PARTITIONED: shard the decode across the pool, settle here.

        Returns None when the trace is ineligible (too small, missing)
        or when partitioned replay fails its own integrity contract —
        callers then run the usual monolithic path.  A corrupt stored
        trace still raises :class:`StoreCorruptionError` (the file is
        quarantined either way; clients must re-upload).
        """
        import time as _time

        from repro.exec.pool import result_record, store_record, trace_fields
        from repro.partition import PartitionError, replay_partitioned
        from repro.trace.format import TraceFormatError
        from repro.trace.store import TraceStore

        store = TraceStore(payload["root"])
        digest, spec = payload["digest"], payload["spec"]
        path = store.find_by_digest(digest)
        if path is None:
            return None
        meta = store.read_tail_meta(path)
        if meta.get("n_records", 0) < self.partition_min_records:
            return None
        self.metrics.counter("partition_attempts").inc()
        try:
            started = _time.perf_counter()
            profile, reporter, stats = replay_partitioned(
                store, path, [spec], self.partition_shards, pool=self.pool
            )
        except (PartitionError, TraceFormatError) as exc:
            self.metrics.counter("partition_fallbacks").inc()
            self.metrics.counter(
                "partition_fallback_" + type(exc).__name__).inc()
            return None
        record = result_record(spec, profile, reporter,
                               _time.perf_counter() - started,
                               partition_shards=stats["planned_shards"],
                               **trace_fields(meta))
        store_record(store, record)
        self.metrics.counter("partitioned_replays").inc()
        return record

    async def _execute(self, payload: dict) -> dict:
        loop = asyncio.get_running_loop()
        in_flight = self.metrics.gauge("in_flight")
        queue_depth = self.metrics.gauge("queue_depth")
        try:
            in_flight.inc()
            # queue_depth counts admitted-not-yet-finished leaders; the
            # executor thread below blocks until a worker frees up, which
            # is exactly the "queued" portion of that gauge.
            use_pool = (self.pool is not None and self.pool.size > 0
                        and self.breaker.allow())
            if use_pool and self._partition_ready():
                record = await loop.run_in_executor(
                    self._executor, self._try_partitioned, payload
                )
                if record is not None:
                    self.breaker.record_success()
                    return record
                # Ineligible or failed: fall through to monolithic.
            if use_pool:
                try:
                    record = await loop.run_in_executor(
                        self._executor, self.pool.call,
                        REPLAY_DIGEST_TASK, payload,
                    )
                except WorkerHangError:
                    self.metrics.counter("worker_hangs").inc()
                    self.breaker.record_failure()
                    raise
                except WorkerCrashError:
                    self.breaker.record_failure()
                    raise
                self.breaker.record_success()
                return record
            self.metrics.counter("inline_replays").inc()
            self.metrics.gauge("degraded").set(1)
            return await loop.run_in_executor(
                self._executor, self._inline_replay, payload
            )
        finally:
            in_flight.dec()
            queue_depth.dec()
            if self.pool is not None:
                self.metrics.gauge("worker_restarts").set(self.pool.restarts)
            self.metrics.gauge("degraded").set(1 if self.degraded else 0)

    # -- lifecycle -----------------------------------------------------
    async def drain(self, grace_seconds: float) -> bool:
        """Wait for in-flight replays to finish; True if fully drained."""
        deadline = asyncio.get_running_loop().time() + grace_seconds
        while self._inflight:
            if asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    def close(self) -> None:
        for task in list(self._inflight.values()):
            task.cancel()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.pool is not None:
            self.pool.close()

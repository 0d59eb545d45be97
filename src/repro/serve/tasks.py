"""Worker-process task for the analysis daemon.

Runs inside :class:`repro.exec.workers.PersistentWorkerPool` workers.
Everything expensive is memoized per process and the processes are
long-lived, so a warm worker answers a request with zero compile or
decode cost:

* :func:`repro.exec.pool.build_analysis` keeps each analysis compiled
  once per worker for the pool's lifetime;
* the replayer cache below keeps recently used traces decoded, keyed by
  payload digest (content-addressed, so never stale).
"""

from __future__ import annotations

import functools
import os
import time

from repro import faultline
from repro.exec.pool import build_analysis, result_record, store_record, trace_fields
from repro.trace.replayer import TraceReplayer
from repro.trace.store import TraceStore

#: dotted task path for PersistentWorkerPool submission
REPLAY_DIGEST_TASK = "repro.serve.tasks:replay_digest"


@functools.lru_cache(maxsize=8)
def _replayer(root: str, digest: str) -> TraceReplayer:
    store = TraceStore(root)
    return TraceReplayer(store.open_by_digest(digest))


def replay_digest(payload: dict) -> dict:
    """Replay one ingested trace through one analysis; cache the result.

    ``payload``: ``{"root": store dir, "digest": trace payload digest,
    "spec": analysis registry key}``.  Returns the result-cache record
    (:func:`repro.exec.pool.result_record`) — the same dict a concurrent
    request for the same key would read from disk.
    """
    root, digest, spec = payload["root"], payload["digest"], payload["spec"]
    # Fault points for the chaos suite: simulate a worker dying or
    # wedging mid-job.  No-ops unless a FaultPlan is installed; the
    # server's degraded-mode inline runner suppresses both (a "worker"
    # crash must never execute in the server process).
    if faultline.inject("worker.crash.midjob"):
        os._exit(23)
    if faultline.inject("worker.hang"):
        while True:
            time.sleep(3600)
    replayer = _replayer(root, digest)
    started = time.perf_counter()
    profile, reporter = replayer.replay([build_analysis(spec)])
    record = result_record(spec, profile, reporter, time.perf_counter() - started,
                           **trace_fields(replayer.trace.meta))
    store_record(TraceStore(root), record)
    return record

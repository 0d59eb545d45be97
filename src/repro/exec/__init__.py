"""Parallel batch execution for the harness.

:mod:`repro.exec.pool` shards (workload x analysis x options) jobs
across worker processes, one trace per task.  Each unique (workload,
scale) pair is interpreted and recorded exactly once (via
:mod:`repro.trace`); its jobs then settle that trace together, one
segment at a time, and results are cached on disk keyed by (trace
digest, analysis fingerprint) so repeated invocations are pure cache
hits that read only the trace's tail meta.
"""

from repro.exec.pool import (
    ANALYSIS_SPECS,
    JobResult,
    JobSpec,
    analysis_fingerprint,
    build_analysis,
    run_batch,
)
from repro.exec.workers import (
    PersistentWorkerPool,
    TaskError,
    WorkerCrashError,
    WorkerHangError,
)

__all__ = [
    "ANALYSIS_SPECS",
    "JobResult",
    "JobSpec",
    "PersistentWorkerPool",
    "TaskError",
    "WorkerCrashError",
    "WorkerHangError",
    "analysis_fingerprint",
    "build_analysis",
    "run_batch",
]

"""Parallel batch execution for the harness.

:mod:`repro.exec.pool` runs (workload x analysis x options) jobs, one
workload per task, in process or across worker processes
(:mod:`repro.exec.workers`, imported only when a pool is used).
Without a trace store each task runs its workload plain once and then
once per analysis.  With one, each unique (workload, scale) pair is
interpreted and recorded exactly once (via :mod:`repro.trace`); its
jobs then settle that trace together, one segment at a time, and
results are cached on disk keyed by (trace digest, analysis
fingerprint) so repeated invocations are pure cache hits that read only
the trace's tail meta.
"""

from repro.exec.pool import (
    ANALYSIS_SPECS,
    JobResult,
    JobSpec,
    analysis_fingerprint,
    build_analysis,
    run_batch,
)

__all__ = [
    "ANALYSIS_SPECS",
    "JobResult",
    "JobSpec",
    "analysis_fingerprint",
    "build_analysis",
    "run_batch",
]

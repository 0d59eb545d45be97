"""Event-trace record/replay (the repro's "record once, analyze many").

Interpreting a workload dominates every figure's wall-clock, yet the
instrumentation event stream it produces is identical across analysis
configurations.  This package decouples event *generation* from
analysis *consumption*:

* :mod:`repro.trace.recorder` — capture one execution's full event
  stream (a superset of what any analysis observes) plus the cache
  access stream, the shadow-register dataflow, and backtrace material;
* :mod:`repro.trace.format` — the compact versioned varint format with
  a content digest;
* :mod:`repro.trace.replayer` — re-fire recorded events through any
  attachable analysis with bit-identical cost accounting, without
  re-interpreting the IR;
* :mod:`repro.trace.store` — a content-addressed on-disk cache keyed by
  (workload, scale, module digest), with digest verification on every
  read, quarantine of corrupt entries, and a ``fsck`` recovery scan
  (``python -m repro.trace fsck``).

See ``docs/TRACING.md`` for format details and the replay cost-model
guarantees.
"""

from repro.trace.format import (
    DEFAULT_SEGMENT_TARGET,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)
from repro.trace.recorder import TraceRecorder, record_workload
from repro.trace.replayer import ReplayVM, TraceReplayer
from repro.trace.store import StoreCorruptionError, TraceStore, module_digest

__all__ = [
    "DEFAULT_SEGMENT_TARGET",
    "StoreCorruptionError",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "TraceRecorder",
    "record_workload",
    "ReplayVM",
    "TraceReplayer",
    "TraceStore",
    "module_digest",
]

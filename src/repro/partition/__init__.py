"""Partitioned trace replay: parallel decode, exact sequential settle.

One recorded trace is analyzed end-to-end by one VM today; on the
biggest workloads that binds serve throughput to single-core
speed.  This package splits a replay into shards along the trace's
segment index:

* :mod:`repro.partition.planner` — cut a trace into N contiguous shards
  at segment boundaries, balancing record counts, from the tail meta
  alone; each shard carries the decoder snapshot (string-table prefix,
  last address, frame serial, running counters) needed to decode
  standalone;
* :mod:`repro.partition.shard` — the worker-side task: range-read and
  digest-verify only this shard's segments, decode them into resolved
  record tuples, and pre-filter records the requested analyses can
  never observe (events with no attached hook, shadow ops when no
  analysis needs shadow);
* :mod:`repro.partition.merge` — the settle loop: consume shard
  artifacts *in segment order*, threading frames, shadow registers,
  backtraces, the cache simulator, and the profile through exactly the
  monolithic replay semantics;
* :mod:`repro.partition.runner` — fan shards across a
  :class:`repro.exec.workers.PersistentWorkerPool` (or decode inline)
  and settle results as they stream back.

Why decode-parallel rather than replay-parallel: replayed cost
accounting is *globally* sequential — every access's cycle cost depends
on the cache-simulator state left by all prior program and metadata
accesses, and analysis state (shadow memory, locksets, vector clocks)
depends on every prior handler execution.  Decoding, by contrast, is
stateless given a segment snapshot, and measures 54–90% of monolithic
replay wall-clock across the bundled analyses.  Partitioned replay
therefore parallelizes decode + verification + filtering and keeps
handler execution sequential, which is what makes the headline
invariant cheap to guarantee: **partitioned output is bit-identical to
monolithic replay** for every workload × analysis spec (enforced by
``tests/partition/test_differential.py``).

The serve daemon is the one production caller: it partitions a cold
request when the server is idle (``--partition-shards``).  Batch runs
(:func:`repro.exec.pool.run_batch`, ``python -m repro.harness``) settle
every trace monolithically; the in-process mode (``pool=None``) is the
reference the differential tests and the fuzz oracle check against.

Process-wide counters live in :data:`repro.obs.PROCESS` as
``partition.*`` and surface in ``serve stats`` under the ``partition``
subsystem namespace.
"""

from __future__ import annotations

from repro.partition.merge import (
    PartitionError,
    PartitionMergeError,
    PartitionShardError,
)
from repro.partition.planner import PartitionPlan, ShardSpec, plan_partition
from repro.partition.runner import replay_partitioned


__all__ = [
    "PartitionError",
    "PartitionMergeError",
    "PartitionShardError",
    "PartitionPlan",
    "ShardSpec",
    "plan_partition",
    "replay_partitioned",
]

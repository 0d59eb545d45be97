"""Fan shards across the worker pool; settle results as they stream in.

:func:`replay_partitioned` is the entry point the serve scheduler uses
for cold requests to an idle daemon; batch runs (:mod:`repro.exec.pool`,
the harness) settle each trace monolithically.  Decode work (range read +
digest verify + varint decode + spec filtering — 54–90% of monolithic
replay wall-clock on the bundled analyses) runs in parallel:

* with a :class:`repro.exec.workers.PersistentWorkerPool`, each shard
  is a ``DECODE_SHARD_TASK`` submission and artifacts come back over
  the worker pipes;
* without a pool (``pool=None``), shards decode lazily in-process —
  the differential-test configuration, and the degraded serve mode.

Handler execution stays sequential in the caller's process
(:func:`repro.partition.merge.settle`), threading analysis state, the
cache simulator, and frames through the shards in segment order.  The
settle loop starts on shard 0 the moment it arrives while later shards
are still decoding, so partitioned replay overlaps decode and settle
even at one worker.

Failure contract: any shard decode failure — worker crash, corrupt
segment (quarantined by the verified read), injected
``partition.shard.fail`` — raises :class:`PartitionShardError`; a
perturbed artifact raises :class:`PartitionMergeError` from the settle.
Both are subclasses of :class:`PartitionError`, and both leave the
trace store intact, so callers fall back to monolithic replay.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.obs import PROCESS
from repro.trace.store import TraceStore
from repro.vm.cache import CacheConfig
from repro.vm.profile import Profile
from repro.vm.reporting import Reporter

from repro.partition.merge import PartitionError, PartitionShardError, settle
from repro.partition.planner import PartitionPlan, plan_partition
from repro.partition.shard import DECODE_SHARD_TASK, decode_shard, hooked_kinds

# Process-wide, reported under ``subsystems.partition`` by ``serve stats``.
_COUNTERS = {name: PROCESS.counter("partition." + name) for name in (
    "plans", "shards_planned", "shards_executed", "shard_failures",
    "merges", "merge_seconds", "replays",
)}


def _shard_payloads(plan: PartitionPlan, meta: dict, root: str, path: str,
                    specs: Tuple[str, ...]) -> list:
    return [
        {
            "root": root,
            "path": path,
            "index": shard.index,
            "specs": specs,
            "strings": list(plan.strings[:shard.n_strings]),
            "last_address": shard.last_address,
            "records_before": shard.records_before,
            "events_before": shard.events_before,
            "next_serial": shard.next_serial,
            "entries": meta["segments"][shard.seg_start:shard.seg_end],
        }
        for shard in plan.shards
    ]


def replay_partitioned(
    store: Union[TraceStore, str],
    trace_path,
    specs: Sequence[str],
    shards: int,
    *,
    pool=None,
    cache_config: Optional[CacheConfig] = None,
) -> Tuple[Profile, Reporter, dict]:
    """Partitioned replay of one stored trace through analysis specs.

    ``specs`` are :data:`repro.exec.pool.ANALYSIS_SPECS` keys; the
    result is bit-identical to
    ``TraceReplayer(trace).replay([build_analysis(s) for s in specs])``.
    Planning reads only the tail meta, and each shard decoder
    range-reads only its own segments.

    Returns ``(profile, reporter, stats)`` where ``stats`` records the
    plan shape, decode mode, per-shard settle timings, and wall time.
    """
    started = time.perf_counter()
    if not isinstance(store, TraceStore):
        store = TraceStore(store)
    trace_path = Path(trace_path)
    specs = tuple(specs)

    meta = store.read_tail_meta(trace_path)
    plan = plan_partition(meta, shards)

    _COUNTERS["plans"].inc()
    _COUNTERS["shards_planned"].inc(plan.n_shards)
    payloads = _shard_payloads(plan, meta, str(store.root), str(trace_path),
                               specs)
    # Warm the hook-probe cache BEFORE settle attaches the analyses: the
    # probe attaches the same memoized instances to a throwaway VM, and
    # hand-tuned baselines bind internal billing state to their most
    # recent attach — an inline decode probing mid-settle would hijack
    # that binding and bill metadata traffic into the throwaway VM.
    hooked_kinds(specs)

    if pool is None:
        def artifacts():
            for packed in payloads:
                try:
                    artifact = decode_shard(packed)
                except PartitionError:
                    _COUNTERS["shard_failures"].inc()
                    raise
                except Exception as exc:
                    _COUNTERS["shard_failures"].inc()
                    raise PartitionShardError(
                        f"shard {packed['index']} failed to decode: {exc}"
                    ) from exc
                _COUNTERS["shards_executed"].inc()
                yield artifact

        profile, reporter, merge_stats = settle(
            artifacts(), _build_analyses(specs), cache_config
        )
        mode = "inline"
    else:
        with ThreadPoolExecutor(
            max_workers=min(len(payloads), pool.size) or 1
        ) as executor:
            futures = [
                executor.submit(pool.call, DECODE_SHARD_TASK, packed)
                for packed in payloads
            ]

            def artifacts():
                for index, future in enumerate(futures):
                    try:
                        artifact = future.result()
                    except Exception as exc:
                        _COUNTERS["shard_failures"].inc()
                        raise PartitionShardError(
                            f"shard {index} failed to decode: {exc}"
                        ) from exc
                    _COUNTERS["shards_executed"].inc()
                    yield artifact

            profile, reporter, merge_stats = settle(
                artifacts(), _build_analyses(specs), cache_config
            )
        mode = "pool"

    _COUNTERS["merges"].inc()
    _COUNTERS["merge_seconds"].inc(merge_stats["merge_seconds"])
    _COUNTERS["replays"].inc()
    stats = {
        "mode": mode,
        "requested_shards": shards,
        "planned_shards": plan.n_shards,
        "records": merge_stats["records"],
        "events": merge_stats["events"],
        "merge_seconds": merge_stats["merge_seconds"],
        "per_shard": merge_stats["per_shard"],
        "wall_seconds": time.perf_counter() - started,
    }
    return profile, reporter, stats


def _build_analyses(specs: Tuple[str, ...]):
    from repro.exec.pool import build_analysis

    return [build_analysis(spec) for spec in specs]


__all__ = ["replay_partitioned"]

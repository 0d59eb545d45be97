"""The settle loop: merge shard artifacts into one exact replay result.

``settle`` consumes :class:`~repro.partition.shard.ShardArtifact`\\ s in
segment order and runs the monolithic replay loop over their records —
one :class:`~repro.trace.replayer.ReplayState`, so the same handler
dispatch, cost billing, shadow dataflow, frame/backtrace bookkeeping,
and cache interleaving as
:meth:`repro.trace.replayer.TraceReplayer.replay`, minus the decode work
(done in parallel by the shards) and minus records the shard filter
proved unobservable.  State *threads through* the artifacts: summary
counters accumulate into one profile, shadow-memory and metadata maps
mutate in segment order inside the attached analyses, and the cache
simulator carries across every cut point — which is what makes the
output bit-identical to a monolithic replay rather than approximately
merged.

Merge integrity: every artifact restates where it believes it sits in
the stream (record/event totals before it, the next frame serial).
``settle`` verifies each claim against the state it actually threaded;
any discrepancy — a shard decoded from a stale plan, artifacts out of
order, a perturbed pickle (the ``partition.merge.corrupt`` fault point
injects exactly this) — raises :class:`PartitionMergeError` before a
single wrong handler fires.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Optional, Sequence, Tuple

from repro import faultline
from repro.errors import VMError
from repro.trace.replayer import ReplayState
from repro.vm.cache import CacheConfig
from repro.vm.profile import Profile
from repro.vm.reporting import Reporter

from repro.partition.shard import ShardArtifact


class PartitionError(VMError):
    """Base class for partitioned-replay failures."""


class PartitionShardError(PartitionError):
    """A shard failed to decode (worker crash, corrupt segment, fault)."""


class PartitionMergeError(PartitionError):
    """Artifact continuity checks failed during the settle merge."""


def _check_continuity(artifact: ShardArtifact, expected_index: int,
                      records_seen: int, events_seen: int,
                      next_serial: int) -> None:
    if artifact.index != expected_index:
        raise PartitionMergeError(
            f"shard artifacts out of order: got index {artifact.index}, "
            f"expected {expected_index}"
        )
    if artifact.records_before != records_seen:
        raise PartitionMergeError(
            f"shard {artifact.index} claims {artifact.records_before} records "
            f"precede it but {records_seen} were settled"
        )
    if artifact.events_before != events_seen:
        raise PartitionMergeError(
            f"shard {artifact.index} claims {artifact.events_before} events "
            f"precede it but {events_seen} were settled"
        )
    if artifact.next_serial_before != next_serial:
        raise PartitionMergeError(
            f"shard {artifact.index} expects frame serial "
            f"{artifact.next_serial_before} but the settled stream is at "
            f"{next_serial}"
        )


def settle(
    artifacts: Iterable[ShardArtifact],
    analyses: Sequence[object],
    cache_config: Optional[CacheConfig] = None,
) -> Tuple[Profile, Reporter, dict]:
    """Fire shard artifacts through ``analyses``; returns (profile,
    reporter, merge stats).

    ``artifacts`` may be a generator — shards settle as they stream in,
    so decode (workers) and settle (here) overlap in wall-clock.
    """
    started = time.perf_counter()
    state = ReplayState(analyses, cache_config)
    profile = state.vm.profile
    records_seen = 0
    events_seen = 0
    n_shards = 0
    per_shard = []

    for artifact in artifacts:
        if faultline.inject("partition.merge.corrupt"):
            # Model a corrupted artifact in flight: shift its claimed
            # stream position.  The continuity check below must catch it.
            artifact = dataclasses.replace(
                artifact, events_before=artifact.events_before + 1
            )
        _check_continuity(artifact, n_shards, records_seen, events_seen,
                          state.next_serial)
        if state.saw_summary:
            raise PartitionMergeError(
                f"shard {artifact.index} follows the summary record"
            )
        shard_started = time.perf_counter()
        handler_calls_before = profile.handler_calls
        state.run(artifact.records)
        records_seen += artifact.n_records
        events_seen += artifact.n_events
        if state.next_serial != artifact.next_serial_before + artifact.n_pushes:
            raise PartitionMergeError(
                f"shard {artifact.index} pushed "
                f"{state.next_serial - artifact.next_serial_before} frames, "
                f"claimed {artifact.n_pushes}"
            )
        n_shards += 1
        per_shard.append({
            "index": artifact.index,
            "n_records": artifact.n_records,
            "n_filtered": artifact.n_filtered,
            "handler_calls": profile.handler_calls - handler_calls_before,
            "settle_seconds": time.perf_counter() - shard_started,
        })

    profile, reporter = state.finish()
    stats = {
        "shards": n_shards,
        "records": records_seen,
        "events": events_seen,
        "merge_seconds": time.perf_counter() - started,
        "per_shard": per_shard,
    }
    return profile, reporter, stats


__all__ = [
    "PartitionError",
    "PartitionMergeError",
    "PartitionShardError",
    "settle",
]

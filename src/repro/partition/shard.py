"""Worker-side shard decode: verified range read + filtered decode.

``decode_shard`` is the :class:`repro.exec.workers.PersistentWorkerPool`
task behind partitioned replay.  Given one :class:`ShardSpec`'s worth of
plan data it:

1. reads *only this shard's bytes* — per-segment verified range reads
   (:meth:`repro.trace.store.TraceStore.read_segment`);
2. decodes them into the replayer's resolved record tuples, seeded from
   the shard snapshot (string-table prefix, last address, running event
   count);
3. pre-filters what the requested analyses can never observe: event
   records whose (position, kind) has no attached hook, and shadow
   dataflow records when no analysis needs shadow.  Dropped events still
   advance the global sequence number, so every surviving event record
   carries its *absolute* ``seq`` as an extra trailing element — the
   settle loop fires handlers with exactly the seq a monolithic replay
   would have used.

The hook probe builds the analyses in the worker (compiled ones once
per process, by ``build_analysis``) and attaches them to a throwaway
:class:`~repro.trace.replayer.ReplayVM`; analysis construction is
deterministic, so the worker's hook table matches the settle VM's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro import faultline
from repro.trace.replayer import ReplayVM, decode
from repro.vm.events import materialize

#: dotted task path for PersistentWorkerPool submission
DECODE_SHARD_TASK = "repro.partition.shard:decode_shard"


@dataclass
class ShardArtifact:
    """One decoded, filtered shard — the unit the settle loop consumes.

    The ``*_before`` fields restate the plan's expectations so the
    merger can verify artifact continuity (shards arriving out of
    order, doubled, or perturbed raise ``PartitionMergeError`` instead
    of silently producing wrong results).
    """

    index: int
    records: List[tuple] = field(repr=False)
    records_before: int = 0
    n_records: int = 0  # records decoded (pre-filter)
    events_before: int = 0
    n_events: int = 0
    next_serial_before: int = 0
    n_pushes: int = 0
    saw_summary: bool = False
    n_filtered: int = 0  # records dropped by spec filtering


@functools.lru_cache(maxsize=64)
def hooked_kinds(
    specs: Tuple[str, ...],
) -> Tuple[FrozenSet[str], FrozenSet[str], bool]:
    """(before-kinds, after-kinds, needs-shadow) for a spec tuple.

    Probes by attaching the built analyses to a throwaway ReplayVM —
    the exact registration path replay uses, so the filter can never
    disagree with the settle VM about what fires.
    """
    vm = ReplayVM()
    from repro.exec.pool import build_analysis

    attachables = [materialize(build_analysis(spec)) for spec in specs]
    vm.track_shadow = any(a.needs_shadow for a in attachables)
    for attachable in attachables:
        attachable.attach(vm)
    before = frozenset(k for k, v in vm.hooks.before.items() if v)
    after = frozenset(k for k, v in vm.hooks.after.items() if v)
    return before, after, vm.track_shadow


def decode_slice(
    payload: bytes,
    *,
    index: int = 0,
    strings: Tuple[str, ...] = (),
    last_address: int = 0,
    records_before: int = 0,
    events_before: int = 0,
    next_serial_before: int = 0,
    fire_before: Optional[FrozenSet[str]] = None,
    fire_after: Optional[FrozenSet[str]] = None,
    keep_shadow: bool = True,
) -> ShardArtifact:
    """Decode one payload slice into a :class:`ShardArtifact`.

    Runs the one trace decoder, :func:`repro.trace.replayer.decode`,
    seeded with the shard snapshot: the string table starts from
    ``strings`` and access addresses resolve against ``last_address``.
    ``fire_before``/``fire_after`` of ``None`` keep every event.
    """
    records, n_events, n_pushes, n_filtered, saw_summary = decode(
        payload, strings, last_address, fire_before, fire_after, keep_shadow,
    )
    return ShardArtifact(
        index=index,
        records=records,
        records_before=records_before,
        n_records=len(records) + n_filtered,
        events_before=events_before,
        n_events=n_events,
        next_serial_before=next_serial_before,
        n_pushes=n_pushes,
        saw_summary=saw_summary,
        n_filtered=n_filtered,
    )


def decode_shard(packed: dict) -> ShardArtifact:
    """Pool task: read, verify, decode, and filter one shard.

    ``packed`` carries the store root, trace path, the shard's plan
    fields, its segment entries, and the analysis spec tuple for
    filtering.  Raises whatever the
    verified read raises — a corrupt segment surfaces as
    ``StoreCorruptionError`` from exactly this shard, leaving the other
    shards' work intact.
    """
    if faultline.inject("partition.shard.fail"):
        raise RuntimeError("faultline: injected partition shard failure")

    from repro.trace.store import TraceStore

    store = TraceStore(packed["root"])
    path = packed["path"]
    blob = b"".join(
        store.read_segment(path, entry) for entry in packed["entries"]
    )

    specs = tuple(packed["specs"])
    fire_before, fire_after, needs_shadow = hooked_kinds(specs)
    return decode_slice(
        blob,
        index=packed["index"],
        strings=tuple(packed["strings"]),
        last_address=packed["last_address"],
        records_before=packed["records_before"],
        events_before=packed["events_before"],
        next_serial_before=packed["next_serial"],
        fire_before=fire_before,
        fire_after=fire_after,
        keep_shadow=needs_shadow,
    )


__all__ = [
    "DECODE_SHARD_TASK",
    "ShardArtifact",
    "decode_shard",
    "decode_slice",
    "hooked_kinds",
]

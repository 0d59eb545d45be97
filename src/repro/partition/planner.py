"""Cut a recorded trace into contiguous, balanced replay shards.

A *shard* is a contiguous byte range of the (uncompressed) payload plus
the decoder state at its first record — everything
:func:`repro.partition.shard.decode_shard` needs to decode it without
touching any other byte of the trace:

* the string-table prefix length (ids are interned in-stream, in order,
  so the first ``n_strings`` entries of the final table seed a
  mid-stream decoder);
* the last access address (``OP_ACCESS`` stores zigzag deltas);
* the next frame serial and the running record/event/access totals
  (events carry a global sequence number; frame pushes assign serials
  implicitly).

The cut candidates are exactly the segment boundaries from the trace's
tail index, so planning needs only the tail meta — no payload IO — and
cuts at the boundaries closest to an even record split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of a trace payload plus its start state."""

    index: int
    ustart: int  # uncompressed payload byte range [ustart, uend)
    uend: int
    #: [seg_start, seg_end) into the trace's segment index
    seg_start: int
    seg_end: int
    n_strings: int
    last_address: int
    next_serial: int
    records_before: int
    events_before: int
    accesses_before: int
    n_records: int
    n_events: int


@dataclass(frozen=True)
class PartitionPlan:
    """The full cut of one trace into replay shards."""

    digest: str
    requested_shards: int
    shards: Tuple[ShardSpec, ...]
    #: Final interned string table; shard ``k`` seeds its decoder with
    #: ``strings[:shards[k].n_strings]``.
    strings: Tuple[str, ...]
    n_records: int
    n_events: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)


@dataclass(frozen=True)
class _Candidate:
    """A segment boundary with the decoder state its snapshot records."""

    pos: int
    seg_index: int
    n_strings: int
    last_address: int
    next_serial: int
    records_before: int
    events_before: int
    accesses_before: int


def _candidates(meta: dict):
    """Segment-boundary cut candidates and trace totals from a tail meta."""
    candidates = []
    pos = 0
    entries = meta["segments"]
    for index, entry in enumerate(entries):
        snapshot = entry["snapshot"]
        candidates.append(_Candidate(
            pos=pos, seg_index=index,
            n_strings=snapshot["n_strings"],
            last_address=snapshot["last_address"],
            next_serial=snapshot["next_serial"],
            records_before=snapshot["records_before"],
            events_before=snapshot["events_before"],
            accesses_before=snapshot["accesses_before"],
        ))
        pos += entry["ulen"]
    last = entries[-1]
    totals = {
        "pos": pos,
        "n_records": last["snapshot"]["records_before"] + last["n_records"],
        "n_events": last["snapshot"]["events_before"] + last["n_events"],
    }
    return candidates, totals


def _choose_boundaries(candidates: Sequence[_Candidate], total_records: int,
                       shards: int) -> List[_Candidate]:
    """Pick up to ``shards - 1`` interior candidates balancing records."""
    interior = [c for c in candidates if c.pos > 0]
    chosen: List[_Candidate] = []
    for k in range(1, shards):
        target = total_records * k / shards
        best = None
        for candidate in interior:
            if chosen and candidate.pos <= chosen[-1].pos:
                continue
            distance = abs(candidate.records_before - target)
            if best is None or distance < best[0]:
                best = (distance, candidate)
        if best is None:
            break
        # Refuse boundaries that would create an empty leading shard.
        previous = chosen[-1] if chosen else candidates[0]
        if best[1].records_before <= previous.records_before:
            continue
        chosen.append(best[1])
    return chosen


def plan_partition(meta: dict, shards: int) -> PartitionPlan:
    """Plan a cut of one trace into up to ``shards`` shards.

    ``meta`` is the trace's tail meta (e.g. from
    :meth:`repro.trace.store.TraceStore.read_tail_meta`): the scheduler
    decides shard ranges without inflating a payload byte.  Shards cut
    only at segment boundaries, so the effective shard count is capped
    by the segment count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    candidates, totals = _candidates(meta)
    boundaries = _choose_boundaries(candidates, totals["n_records"], shards)
    starts = [candidates[0]] + boundaries
    specs = []
    for index, start in enumerate(starts):
        nxt = starts[index + 1] if index + 1 < len(starts) else None
        records_end = nxt.records_before if nxt else totals["n_records"]
        events_end = nxt.events_before if nxt else totals["n_events"]
        specs.append(ShardSpec(
            index=index,
            ustart=start.pos,
            uend=nxt.pos if nxt else totals["pos"],
            seg_start=start.seg_index,
            seg_end=nxt.seg_index if nxt else len(candidates),
            n_strings=start.n_strings,
            last_address=start.last_address,
            next_serial=start.next_serial,
            records_before=start.records_before,
            events_before=start.events_before,
            accesses_before=start.accesses_before,
            n_records=records_end - start.records_before,
            n_events=events_end - start.events_before,
        ))
    return PartitionPlan(
        digest=meta["digest"],
        requested_shards=shards,
        shards=tuple(specs),
        strings=tuple(meta["string_table"]),
        n_records=totals["n_records"],
        n_events=totals["n_events"],
    )


__all__ = [
    "PartitionPlan",
    "ShardSpec",
    "plan_partition",
]

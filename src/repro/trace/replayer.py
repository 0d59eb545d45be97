"""Trace replay: re-fire recorded events through attachable analyses.

:class:`TraceReplayer` consumes a recorded trace (see
:mod:`repro.trace.recorder`) and drives any analysis that speaks the
``needs_shadow``/``attach(vm)`` protocol — ALDAcc-compiled analyses and
hand-tuned baselines alike — *without re-interpreting the IR*.  The
replay reproduces the inline cost model bit-for-bit:

* program ``base_cycles``/``instructions``/``heap_peak_bytes`` come from
  the trace summary (they are analysis-independent);
* program ``mem_cycles`` are recomputed by replaying the recorded
  cache-access stream through a fresh :class:`~repro.vm.cache.CacheSim`
  — the same cache object the attached analyses' cost meters bill
  metadata traffic through, in the same interleaved order as inline, so
  cache pollution effects are reproduced exactly;
* handler dispatch, handler bodies, and metadata-structure costs are
  billed by actually running the handlers, through the same site binder
  (:func:`repro.vm.events.bind_site`) as the compiled VM, bound once per
  distinct decoded site;
* the local-metadata plane is reconstructed from the recorded shadow
  dataflow ops (applied only when an attached analysis needs shadow,
  mirroring ``track_shadow``), including the per-op
  ``_SHADOW_PROP_CYCLES`` billing for BinOp/Cmp propagation.

The replayed profile therefore equals the profile of
``run_instrumented(workload, analyses)`` field for field, and the
reports (including backtraces) match exactly.

The varint payload is decoded once per :class:`TraceReplayer` into a
flat record list with strings and access addresses resolved; replaying
the same trace through several analyses (the whole point of recording)
pays the decode a single time.  :func:`settle_trace` does the same
without holding the decoded trace: it settles every analysis set
together, one decoded segment at a time.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.vm.cache import CacheConfig, CacheSim
from repro.vm.events import Hooks, bind_site, materialize
from repro.vm.interpreter import _SHADOW_PROP_CYCLES
from repro.vm.profile import Profile
from repro.vm.reporting import Reporter

from repro.trace.format import (
    EVF_AFTER,
    EVF_HAS_BT,
    EVF_HAS_RESULT,
    OP_ACCESS,
    OP_DEFAULT,
    OP_EVENT,
    OP_MOV,
    OP_OR2,
    OP_POP,
    OP_PUSH,
    OP_SET0,
    OP_STR,
    OP_SUMMARY,
    TraceFormatError,
    TraceReader,
    read_varint,
)

# Decoded-record tags (first tuple element).
R_ACCESS = 0
R_EVENT = 1
R_SET0 = 2
R_OR2 = 3
R_MOV = 4
R_DEFAULT = 5
R_PUSH = 6
R_POP = 7
R_SUMMARY = 8


class ReplayVM:
    """The attach surface analyses see during replay.

    Provides exactly what inline attachment uses: ``hooks``, ``cache``,
    ``profile``, ``reporter``, ``track_shadow``, and ``backtrace()``
    (reconstructed from the trace so ``alda_assert`` reports carry the
    same frames as inline runs).
    """

    def __init__(self, cache_config: Optional[CacheConfig] = None) -> None:
        self.hooks = Hooks()
        self.cache = CacheSim(cache_config)
        self.profile = Profile()
        self.reporter = Reporter(self.profile)
        self.track_shadow = False
        self._fire_seq = 0
        # Current-event backtrace state, maintained by the replay loop.
        self._bt_top = ""
        self._bt_tid = 0
        self._bt_stacks = {}

    def backtrace(self, limit: int = 16) -> Tuple[str, ...]:
        stack = self._bt_stacks.get(self._bt_tid)
        entries = [self._bt_top]
        if stack:
            entries.extend(reversed(stack))
        return tuple(entries[:limit])


def _decode_tail(buf: bytes, pos: int, table: List[str]) -> Tuple[tuple, int]:
    """An event's site tail, field by field: (fields, end offset)."""
    n_sizes, pos = read_varint(buf, pos)
    sizes = []
    for _ in range(n_sizes):
        value, pos = read_varint(buf, pos)
        sizes.append(value)
    result_size, pos = read_varint(buf, pos)
    n_regs, pos = read_varint(buf, pos)
    regs = []
    for _ in range(n_regs):
        value, pos = read_varint(buf, pos)
        regs.append(None if value == 0 else table[value - 1])
    result_reg_id, pos = read_varint(buf, pos)
    loc_id, pos = read_varint(buf, pos)
    result_reg = None if result_reg_id == 0 else table[result_reg_id - 1]
    return (tuple(regs), result_reg, tuple(sizes), result_size, table[loc_id]), pos


def decode(
    payload: bytes,
    strings: Sequence[str] = (),
    last_address: int = 0,
    fire_before: Optional[FrozenSet[str]] = None,
    fire_after: Optional[FrozenSet[str]] = None,
    keep_shadow: bool = True,
) -> Tuple[List[tuple], int, int, int, bool]:
    """The trace decoder: one pass over a varint payload into record tuples.

    Strings are interned to Python objects, access-address deltas are
    resolved to absolute addresses, and event operand lists become
    tuples — everything a replay pass would otherwise redo per analysis.
    An event record is ``(R_EVENT, after, kind, tid, frame serial, ops,
    result, site, bt_top)``; its ``site`` is the tuple ``(operand regs,
    result reg, sizes, result size, loc)`` that replay binds subscribers
    to.
    :meth:`repro.trace.format.TraceReader.records` is the plain reference
    this must agree with.  Nearly every field is a one-byte varint, read
    inline; :func:`read_varint` is the slow path for longer ones.  An
    event's tail (sizes, result size, register ids, loc id) is fixed per
    recording site, so its decoded fields are cached by its bytes.

    A payload slice decodes standalone when seeded with the string table
    and last access address at its first record.  For partitioned replay,
    events whose kind is not in ``fire_before`` / ``fire_after`` (when
    given) are dropped, and so are shadow records unless ``keep_shadow``.

    Returns ``(records, n_events, n_pushes, n_filtered, saw_summary)``.
    Malformed input raises :class:`TraceFormatError` with its offset.
    """
    buf = payload
    pos = start = 0
    end = len(buf)
    table: List[str] = list(strings)
    records: List[tuple] = []
    append = records.append
    #: one-byte-field tail bytes -> decoded tail fields
    tails: Dict[bytes, tuple] = {}
    filtering = fire_before is not None
    n_events = n_pushes = n_filtered = 0
    saw_summary = False

    try:
        while pos < end:
            start = pos
            op = buf[pos]
            pos += 1

            if op == OP_EVENT:
                flags = buf[pos]
                pos += 1
                if flags > 0x7F:
                    flags, pos = read_varint(buf, pos - 1)
                kind_id = buf[pos]
                pos += 1
                if kind_id > 0x7F:
                    kind_id, pos = read_varint(buf, pos - 1)
                tid = buf[pos]
                pos += 1
                if tid > 0x7F:
                    tid, pos = read_varint(buf, pos - 1)
                frame_serial = buf[pos]
                pos += 1
                if frame_serial > 0x7F:
                    frame_serial, pos = read_varint(buf, pos - 1)
                n_ops = buf[pos]
                pos += 1
                if n_ops > 0x7F:
                    n_ops, pos = read_varint(buf, pos - 1)
                ops = []
                for _ in range(n_ops):
                    value = buf[pos]
                    pos += 1
                    if value > 0x7F:
                        value, pos = read_varint(buf, pos - 1)
                    ops.append((value >> 1) ^ -(value & 1))  # unzigzag
                result = None
                if flags & EVF_HAS_RESULT:
                    value = buf[pos]
                    pos += 1
                    if value > 0x7F:
                        value, pos = read_varint(buf, pos - 1)
                    result = (value >> 1) ^ -(value & 1)
                # Where the tail ends if all its fields are one byte long;
                # only such (ASCII) tails are cached, so a hit is exact.
                tail_end = pos + buf[pos] + 2
                if buf[pos] < 0x80:
                    tail_end += buf[tail_end] + 3
                raw = buf[pos:tail_end]
                tail = tails.get(raw)
                if tail is None:
                    tail, pos = _decode_tail(buf, pos, table)
                    if pos == tail_end and raw.isascii():
                        tails[raw] = tail
                else:
                    pos = tail_end
                bt_top = tail[4]
                if flags & EVF_HAS_BT:
                    value = buf[pos]
                    pos += 1
                    if value > 0x7F:
                        value, pos = read_varint(buf, pos - 1)
                    bt_top = table[value]
                kind = table[kind_id]
                n_events += 1
                if filtering and kind not in (
                        fire_after if flags & EVF_AFTER else fire_before):
                    n_filtered += 1
                    continue
                append((R_EVENT, (flags & EVF_AFTER) != 0, kind, tid, frame_serial,
                        tuple(ops), result, tail, bt_top))

            elif op == OP_ACCESS:
                value = buf[pos]
                pos += 1
                if value > 0x7F:
                    value, pos = read_varint(buf, pos - 1)
                size = buf[pos]
                pos += 1
                if size > 0x7F:
                    size, pos = read_varint(buf, pos - 1)
                last_address += (value >> 1) ^ -(value & 1)
                append((R_ACCESS, last_address, size))

            elif OP_SET0 <= op <= OP_DEFAULT:  # shadow dataflow
                # Two or four one-byte fields: serial, reg id(s).
                frame_serial = buf[pos]
                dst_id = buf[pos + 1]
                if (frame_serial | dst_id) < 0x80:
                    pos += 2
                else:
                    frame_serial, pos = read_varint(buf, pos)
                    dst_id, pos = read_varint(buf, pos)
                if op == OP_OR2 or op == OP_MOV:
                    third = buf[pos]
                    fourth = buf[pos + 1]
                    if (third | fourth) < 0x80:
                        pos += 2
                    else:
                        third, pos = read_varint(buf, pos)
                        fourth, pos = read_varint(buf, pos)
                if not keep_shadow:
                    n_filtered += 1
                    continue
                if op == OP_OR2:
                    append((
                        R_OR2, frame_serial, table[dst_id],
                        None if third == 0 else table[third - 1],
                        None if fourth == 0 else table[fourth - 1],
                    ))
                elif op == OP_MOV:
                    append((
                        R_MOV, frame_serial, table[dst_id], third,
                        None if fourth == 0 else table[fourth - 1],
                    ))
                else:
                    append((R_SET0 if op == OP_SET0 else R_DEFAULT,
                            frame_serial, table[dst_id]))

            elif op == OP_STR:
                length, pos = read_varint(buf, pos)
                table.append(buf[pos:pos + length].decode("utf-8"))
                pos += length

            elif op == OP_PUSH:
                tid, pos = read_varint(buf, pos)
                entry_id, pos = read_varint(buf, pos)
                n_pushes += 1
                append((R_PUSH, tid, None if entry_id == 0 else table[entry_id - 1]))

            elif op == OP_POP:
                frame_serial, pos = read_varint(buf, pos)
                tid, pos = read_varint(buf, pos)
                append((R_POP, frame_serial, tid))

            elif op == OP_SUMMARY:
                totals = []
                for _ in range(6):  # base cycles .. heap peak, event/access counts
                    value, pos = read_varint(buf, pos)
                    totals.append(value)
                append((R_SUMMARY, *totals[:4]))
                saw_summary = True

            else:
                raise TraceFormatError(f"unknown opcode {op} at offset {start}")
    except (IndexError, UnicodeDecodeError):
        raise TraceFormatError(
            f"truncated or corrupt trace record at payload offset {start}"
        ) from None
    if pos > end:
        raise TraceFormatError(f"truncated trace record at payload offset {start}")
    return records, n_events, n_pushes, n_filtered, saw_summary


class ReplayState:
    """One replay in progress: the attach surface and the stream state
    (live frames, pending program ``mem_cycles``, bound sites) that
    threads through one record list, or through the slices of a
    partitioned trace in order."""

    def __init__(self, analyses: Sequence[object],
                 cache_config: Optional[CacheConfig] = None) -> None:
        vm = self.vm = ReplayVM(cache_config)
        attachables = [materialize(source) for source in analyses]
        vm.track_shadow = any(a.needs_shadow for a in attachables)
        for attachable in attachables:
            attachable.attach(vm)
        vm.hooks.bound = True
        #: [after][hooked kind] -> {decoded site: bound fire}
        self._sites = tuple({kind: {} for kind in table}
                            for table in (vm.hooks.before, vm.hooks.after))
        #: serial -> (shadow dict, tid, contributed a backtrace entry)
        self.frames: Dict[int, tuple] = {}
        self.next_serial = 0
        self.mem_cycles = 0
        self.saw_summary = False

    def run(self, records: Sequence[tuple]) -> None:
        """Fire one list of decoded records through the analyses."""
        vm = self.vm
        profile = vm.profile
        cache_access = vm.cache.access
        track_shadow = vm.track_shadow
        bt_stacks = vm._bt_stacks
        hooks = (vm.hooks.before, vm.hooks.after)
        sites = self._sites
        frames = self.frames
        next_serial = self.next_serial
        mem_cycles = self.mem_cycles

        for rec in records:
            tag = rec[0]

            if tag == R_ACCESS:
                mem_cycles += cache_access(rec[1], rec[2])

            elif tag == R_EVENT:
                bound = sites[rec[1]].get(rec[2])
                if bound is not None:
                    site = rec[7]
                    fire = bound.get(site)
                    if fire is None:
                        fire = bound[site] = bind_site(
                            vm, hooks[rec[1]][rec[2]], rec[2], *site)
                    # Flush program mem_cycles accumulated so far: handler
                    # bodies bill metadata traffic into the same profile.
                    profile.mem_cycles += mem_cycles
                    mem_cycles = 0
                    tid = rec[3]
                    vm._bt_top = rec[8]
                    vm._bt_tid = tid
                    fire(tid, frames[rec[4]][0], rec[5], rec[6])

            elif tag == R_OR2:
                if track_shadow:
                    shadow = frames[rec[1]][0]
                    meta = shadow.get(rec[3], 0) if rec[3] is not None else 0
                    if rec[4] is not None:
                        meta |= shadow.get(rec[4], 0)
                    shadow[rec[2]] = meta
                    profile.instr_cycles += _SHADOW_PROP_CYCLES

            elif tag == R_SET0:
                if track_shadow:
                    frames[rec[1]][0][rec[2]] = 0

            elif tag == R_DEFAULT:
                if track_shadow:
                    frames[rec[1]][0].setdefault(rec[2], 0)

            elif tag == R_MOV:
                if track_shadow:
                    value = 0
                    if rec[4] is not None:
                        value = frames[rec[3]][0].get(rec[4], 0)
                    frames[rec[1]][0][rec[2]] = value

            elif tag == R_PUSH:
                tid, entry = rec[1], rec[2]
                frames[next_serial] = ({}, tid, entry is not None)
                if entry is not None:
                    bt_stacks.setdefault(tid, []).append(entry)
                next_serial += 1

            elif tag == R_POP:
                _, _, has_entry = frames.pop(rec[1])
                if has_entry:
                    bt_stacks[rec[2]].pop()

            else:  # R_SUMMARY
                profile.base_cycles += rec[1]
                profile.instructions += rec[2]
                profile.heap_peak_bytes = rec[4]
                self.saw_summary = True

        self.next_serial = next_serial
        self.mem_cycles = mem_cycles

    def finish(self) -> Tuple[Profile, Reporter]:
        """The replayed ``(profile, reporter)``, once the summary was seen."""
        if not self.saw_summary:
            raise TraceFormatError("trace has no summary record (truncated?)")
        profile = self.vm.profile
        profile.mem_cycles += self.mem_cycles
        profile.cache = self.vm.cache.stats
        # The attached runtimes refer to the replay VM; dropping its hook
        # table leaves nothing it owns pointing back at it.
        self.vm.hooks.release()
        return profile, self.vm.reporter


def settle_trace(
    trace: TraceReader,
    analysis_sets: Sequence[Sequence[object]],
    cache_config: Optional[CacheConfig] = None,
) -> List[Tuple[Profile, Reporter, float]]:
    """Replay one trace through several independent analysis sets at once.

    Each set gets its own :class:`ReplayState` and equals
    ``TraceReplayer(trace).replay(analyses)``.  Each segment's payload
    slice is decoded once, seeded from the string-table prefix and last
    access address in its snapshot, fired through every state, then
    dropped, so at most one segment of decoded records is alive.
    Returns ``(profile, reporter, seconds)`` per set, ``seconds`` being
    that set's own attach and settle time, without the shared decode.
    """
    states, seconds = [], []
    for analyses in analysis_sets:
        started = time.perf_counter()
        states.append(ReplayState(analyses, cache_config))
        seconds.append(time.perf_counter() - started)
    strings = trace.meta["string_table"]
    payload = trace.payload
    pos = 0
    for entry in trace.segments:
        snapshot = entry["snapshot"]
        records = decode(payload[pos:pos + entry["ulen"]],
                         strings[:snapshot["n_strings"]],
                         snapshot["last_address"])[0]
        pos += entry["ulen"]
        for index, state in enumerate(states):
            started = time.perf_counter()
            state.run(records)
            seconds[index] += time.perf_counter() - started
    return [(*state.finish(), spent) for state, spent in zip(states, seconds)]


class TraceReplayer:
    """Replays one trace through one or more attachable analyses.

    Reuse one instance to replay several analyses over the same trace:
    the decoded record list is built lazily and cached.
    """

    def __init__(self, trace: Union[TraceReader, bytes]) -> None:
        self.trace = trace if isinstance(trace, TraceReader) else TraceReader(trace)
        self._records: Optional[List[tuple]] = None

    @property
    def records(self) -> List[tuple]:
        if self._records is None:
            self._records = decode(self.trace.payload)[0]
        return self._records

    def replay(
        self,
        analyses: Sequence[object],
        cache_config: Optional[CacheConfig] = None,
    ) -> Tuple[Profile, Reporter]:
        """Fire the recorded event stream through ``analyses``.

        Returns ``(profile, reporter)`` exactly as an inline
        ``run_instrumented`` call would have.
        """
        state = ReplayState(analyses, cache_config)
        state.run(self.records)
        return state.finish()

"""Trace recording: capture one full instrumentation event stream.

A :class:`TraceRecorder` is an *attachable* in the same sense as an
analysis (``needs_shadow`` + ``attach(vm)``), but instead of consuming
events it records every join point the VM can fire — all nine
instruction kinds, before and after, plus every function boundary — so
the resulting trace is a superset of what any analysis would observe
inline.  Alongside events it captures:

* the program's cache-access stream (by wrapping ``vm.cache.access``),
  in exact interleaved order with events, because metadata traffic from
  a replayed analysis pollutes the same simulated cache the program
  uses — ordering is what makes replayed ``mem_cycles`` bit-identical;
* the local-metadata (shadow register) dataflow, via the interpreter's
  :class:`~repro.vm.events.ExecutionTracer` hook, so replayed handlers
  observe exactly the ``$X.m`` values they would have seen inline even
  though replay never touches the IR;
* per-event backtrace-top entries (only when they differ from the event
  location) plus frozen caller entries at frame pushes, so
  ``alda_assert`` reports replay with identical backtraces;
* a run summary (base cycles, instruction count, uninstrumented memory
  cycles, heap peak) — the denominator of every overhead figure, for
  free, since a recording run *is* a plain run cost-wise.

Recording runs with ``track_shadow=True`` regardless of the future
consumer, because the dataflow must be in the trace for analyses that
need it; replay simply skips shadow records when the attached analyses
do not.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.instructions import INSTRUMENTABLE_KINDS
from repro.vm.events import ExecutionTracer
from repro.vm.interpreter import Interpreter
from repro.vm.profile import Profile
from repro.workloads.base import Workload

from repro.trace.format import DEFAULT_SEGMENT_TARGET, TraceWriter

#: Interpreter-level pseudo-calls that fire ``func:`` events without
#: being module functions or libc builtins.
PSEUDO_FUNCTIONS = ("spawn", "join", "global_addr", "mutex_lock", "mutex_unlock")


class TraceRecorder(ExecutionTracer):
    """Attachable that streams the full event trace into a TraceWriter."""

    name = "trace-recorder"
    needs_shadow = True

    def __init__(self, writer: TraceWriter) -> None:
        self._writer = writer
        #: id(frame.shadow) -> trace frame serial, live frames only
        self._serials: Dict[int, int] = {}

    # -- ExecutionTracer callbacks -------------------------------------
    def frame_push(self, shadow, tid, caller_shadow=None, caller_entry="") -> None:
        serial = self._writer.frame_push(tid, caller_entry or None)
        self._serials[id(shadow)] = serial

    def frame_pop(self, shadow, tid) -> None:
        serial = self._serials.pop(id(shadow))
        self._writer.frame_pop(serial, tid)

    def shadow_set0(self, shadow, reg) -> None:
        self._writer.shadow_set0(self._serials[id(shadow)], reg)

    def shadow_or2(self, shadow, dst, lhs, rhs) -> None:
        self._writer.shadow_or2(self._serials[id(shadow)], dst, lhs, rhs)

    def shadow_mov(self, dst_shadow, dst, src_shadow, src) -> None:
        self._writer.shadow_mov(
            self._serials[id(dst_shadow)], dst, self._serials[id(src_shadow)], src
        )

    def shadow_default(self, shadow, reg) -> None:
        self._writer.shadow_default(self._serials[id(shadow)], reg)

    # -- event capture -------------------------------------------------
    def _make_callback(self, vm: Interpreter, after: bool):
        event = self._writer.event
        new_site = self._writer.site
        serials = self._serials
        bt_entry = vm._bt_entry

        def bind_site(kind, operand_regs, result_reg, sizes, result_size, loc):
            site = new_site(operand_regs, result_reg, sizes, result_size, loc)

            def record(tid, shadow, ops, result, seq):
                # The top entry of ``vm.backtrace(1)``, without the tuple.
                thread = vm._current_thread
                if thread is not None and thread.frames:
                    top = bt_entry(thread.frames[-1])
                else:
                    top = loc
                event(after, kind, tid, serials[id(shadow)], ops, result, site, top)
            return record

        def callback(ctx):  # the reference interpreter's context path
            bind_site(ctx.kind, ctx.operand_regs, ctx.result_reg, ctx.sizes,
                      ctx.result_size, ctx.loc)(ctx.tid, ctx.shadow_regs, ctx.ops,
                                                ctx.result, ctx.seq)

        callback.bind_site = bind_site
        # The recorder is pure observation: bill nothing to the profile.
        callback.dispatch_cycles = 0
        return callback

    def attach(self, vm: Interpreter) -> "TraceRecorder":
        vm.set_tracer(self)

        # Wrap the shared cache so every program access lands in the
        # stream, in order (libc builtins included: they all go through
        # vm.cache.access).
        real_access = vm.cache.access
        writer = self._writer

        def recording_access(address, size=8):
            writer.access(address, size)
            return real_access(address, size)

        vm.cache.access = recording_access

        before = self._make_callback(vm, after=False)
        after = self._make_callback(vm, after=True)
        for kind in sorted(INSTRUMENTABLE_KINDS):
            vm.hooks.add_instruction("before", kind, before)
            vm.hooks.add_instruction("after", kind, after)
        names = set(vm.module.functions)
        names.update(vm._builtins)
        names.update(PSEUDO_FUNCTIONS)
        for name in sorted(names):
            vm.hooks.add_function("before", name, before)
            vm.hooks.add_function("after", name, after)
        return self

    def finish(self, profile: Profile) -> dict:
        """Write the run summary and finalize the trace; returns meta."""
        self._writer.summary(
            base_cycles=profile.base_cycles,
            instructions=profile.instructions,
            mem_cycles=profile.mem_cycles,
            heap_peak_bytes=profile.heap_peak_bytes,
        )
        return self._writer.close()


def record_workload(
    workload: Workload,
    scale: int,
    fileobj,
    meta: Optional[dict] = None,
    backend: str = "compiled",
    segment_target_bytes: int = DEFAULT_SEGMENT_TARGET,
) -> dict:
    """Record one workload execution into ``fileobj``; returns trace meta.

    The recording run is cost-equivalent to a plain (uninstrumented)
    run: hooks bill zero dispatch and the recorder performs no metadata
    traffic, so the summary's ``base_cycles + mem_cycles`` is exactly
    the overhead denominator ``run_plain`` would have produced.

    ``backend`` selects the VM dispatch strategy; both produce
    byte-identical traces (the recorder hooks force the compiled
    backend's general paths, so every access and event is captured in
    the same order).

    ``segment_target_bytes`` is the uncompressed size at which the
    writer starts a new segment (see :mod:`repro.trace.format`); it
    moves the cuts but never the payload bytes or the digest.
    """
    full_meta = {"workload": workload.name, "scale": scale}
    full_meta.update(meta or {})
    writer = TraceWriter(fileobj, full_meta, segment_target_bytes=segment_target_bytes)
    vm = Interpreter(
        workload.make_module(scale),
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=True,
        backend=backend,
    )
    recorder = TraceRecorder(writer)
    recorder.attach(vm)
    profile = vm.run()
    return recorder.finish(profile)

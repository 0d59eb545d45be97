"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps each layer's entry points, as the loaded modules
see them, with a timing span.  Nothing under ``src/`` knows about it:
the wrappers replace module and class attributes in this process only,
so the untraced runs that give the end-to-end metrics execute the
program unchanged.

A span's *self* time is its duration minus the time of the spans it
encloses; per layer the tracer sums self time and counts calls.  An
``Interpreter.run`` span takes its layer from the nearest enclosing
caller (``run_plain``, ``run_instrumented`` or ``record_workload``),
and the recorder's encoding runs inside it, so it cannot be split off.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Interpreter.run layer per enclosing span
_VM_PARENTS = {"vm.setup.plain": "vm.plain", "vm.setup.instrumented": "vm.instrumented",
               "trace.record": "vm.record"}


class Tracer:
    """A span stack plus per-layer self time, call counts and values."""

    def __init__(self) -> None:
        self._stack = []  # [layer, start, child seconds]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(int)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def vm_layer(self) -> str:
        for layer, _start, _child in reversed(self._stack):
            if layer in _VM_PARENTS:
                return _VM_PARENTS[layer]
        return "vm.other"

    def timed(self, fn, layer, after=None):
        """``fn`` wrapped in a span; ``layer`` may be a callable of the tracer.
        ``after(result, args)`` records values from what ``fn`` returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer(self) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args)
            return result

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every workload's code path."""
    import repro.compiler.pipeline as pipeline
    import repro.exec.pool  # noqa: F401 - loads the batch path's bindings
    import repro.harness.figures  # noqa: F401 - loads the figure bindings
    import repro.harness.runner as runner
    import repro.trace.recorder as recorder
    from repro.trace.replayer import TraceReplayer
    from repro.trace.store import TraceStore
    from repro.vm.interpreter import Interpreter

    for module, attr, layer in (
        (pipeline, "compile_analysis", "compiler.compile"),
        (runner, "run_plain", "vm.setup.plain"),
        (runner, "run_instrumented", "vm.setup.instrumented"),
        (recorder, "record_workload", "trace.record"),
    ):
        original = getattr(module, attr)
        _rebind(original, tracer.timed(original, layer))

    def count_profile(profile, _args) -> None:
        tracer.values["vm.instructions"] += profile.instructions
        tracer.values["vm.handler_calls"] += profile.handler_calls

    Interpreter.run = tracer.timed(Interpreter.run, Tracer.vm_layer, count_profile)

    decode = TraceReplayer.records.fget

    @functools.wraps(decode)
    def records(replayer):
        if replayer._records is not None:  # decoded once per replayer
            return replayer._records
        tracer.enter("trace.decode")
        try:
            result = decode(replayer)
        finally:
            tracer.exit()
        tracer.values["trace.records"] += len(result)
        tracer.values["trace.bytes"] += len(replayer.trace.payload)
        return result

    TraceReplayer.records = property(records)
    TraceReplayer.replay = tracer.timed(TraceReplayer.replay, "trace.settle")
    for attr, layer in (("_read_trace_verified", "store.read_verify"),
                        ("get_or_record", "store.open"),
                        ("load_result", "store.result_io"),
                        ("store_result", "store.result_io"),
                        ("ingest", "store.ingest")):
        setattr(TraceStore, attr, tracer.timed(getattr(TraceStore, attr), layer))

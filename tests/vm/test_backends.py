"""Differential tests: reference vs closure-compiled backend.

The contract (see ``src/repro/vm/compile.py``) is *bit-identical
observable state*: every :class:`~repro.vm.profile.Profile` field (cycle
counters, cache stats, event counts, metadata bytes), every report
(message, location, backtrace), and the recorded trace bytes must match
between ``Interpreter(module, backend="reference")`` and the default
compiled backend.  These tests sweep every bundled workload against
every bundled analysis spec, so any semantic drift in the generated code
fails loudly here before it can skew a figure.
"""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.exec.pool import ANALYSIS_SPECS, build_analysis
from repro.vm import Interpreter
from repro.workloads import ALL

SPECS = ["plain"] + sorted(ANALYSIS_SPECS)


def _observe(workload, spec: str, backend: str):
    """Run one workload/spec pair; return everything observable."""
    module = workload.make_module(1)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=(spec != "plain"),
        backend=backend,
    )
    if spec != "plain":
        build_analysis(spec).attach(vm)
    profile = vm.run()
    return dataclasses.asdict(profile), list(vm.reporter), vm._fire_seq


@pytest.mark.parametrize("name", sorted(ALL))
def test_profiles_bit_identical(name):
    """All analysis specs on one workload: profiles, reports, event seq."""
    workload = ALL[name]
    for spec in SPECS:
        reference = _observe(workload, spec, "reference")
        compiled = _observe(workload, spec, "compiled")
        assert reference[0] == compiled[0], f"{name}/{spec}: profile differs"
        assert reference[1] == compiled[1], f"{name}/{spec}: reports differ"
        assert reference[2] == compiled[2], f"{name}/{spec}: event seq differs"


def test_figure3_table_identical_across_backends():
    from repro.harness.figures import figure3

    reference = figure3(backend="reference")
    compiled = figure3(backend="compiled")
    assert reference.rows == compiled.rows
    assert reference.summary == compiled.summary


def test_figure4_table_identical_across_backends():
    from repro.harness.figures import figure4

    reference = figure4(backend="reference")
    compiled = figure4(backend="compiled")
    assert reference.rows == compiled.rows
    assert reference.summary == compiled.summary


def test_recorded_trace_bytes_identical():
    """The recorder wraps cache.access and hooks everything; the compiled
    backend must drive it through the same accesses and events, in the
    same order, yielding byte-identical trace files.  Partitioned replay
    coverage rides on this: both backends produce the same v2 container,
    so one replay covers both."""
    from repro.trace import record_workload

    workload = ALL["radix"]
    streams = {}
    for backend in ("reference", "compiled"):
        buffer = io.BytesIO()
        record_workload(workload, 1, buffer, backend=backend)
        streams[backend] = buffer.getvalue()
    assert streams["reference"] == streams["compiled"]


def test_compile_cache_hit_on_identical_module_text():
    from repro.vm.compile import (
        clear_compile_cache,
        compile_cache_stats,
        compile_module,
        ir_digest,
    )

    clear_compile_cache()
    first = ALL["radix"].make_module(1)
    second = ALL["radix"].make_module(1)  # distinct objects, same text
    assert first is not second
    compile_module(first)
    assert compile_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
    cached = compile_module(second)
    stats = compile_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert cached.digest == ir_digest(second)


@pytest.mark.parametrize("backend", ["jit", "bytecode"])
def test_unknown_backend_rejected(backend):
    module = ALL["radix"].make_module(1)
    with pytest.raises(ValueError, match="backend"):
        Interpreter(module, backend=backend)


def test_backend_survives_exceptions_identically():
    """A faulting program must raise the same error with the same
    profile totals on both backends (the raising instruction is
    counted)."""
    from repro.errors import MemoryFault
    from repro.ir import parse_module

    text = """
module faulting

func main() {
entry:
  %p = const 0
  %v = load [%p], 8
  ret %v
}
"""
    outcomes = {}
    for backend in ("reference", "compiled"):
        vm = Interpreter(parse_module(text), backend=backend)
        with pytest.raises(MemoryFault):
            vm.run()
        outcomes[backend] = (vm.profile.instructions, vm.profile.base_cycles)
    assert outcomes["reference"] == outcomes["compiled"]

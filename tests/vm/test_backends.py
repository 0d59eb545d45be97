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
    from repro.obs import PROCESS
    from repro.vm import compile as compile_mod

    compile_mod._MEMO.clear()
    before = PROCESS.subsystems()["vm.compile"]
    first = ALL["radix"].make_module(1)
    second = ALL["radix"].make_module(1)  # distinct objects, same text
    assert first is not second
    compile_mod.compile_module(first)
    stats = PROCESS.subsystems()["vm.compile"]
    assert stats["hits"] - before["hits"] == 0
    assert stats["misses"] - before["misses"] == 1
    assert stats["entries"] == 1
    cached = compile_mod.compile_module(second)
    stats = PROCESS.subsystems()["vm.compile"]
    assert stats["hits"] - before["hits"] == 1
    assert stats["misses"] - before["misses"] == 1
    assert cached.digest == compile_mod.ir_digest(second)


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


_PAST_ARITY = """
address := pointer
seen = map(address, int64)
onFree(address a, address b) { seen[a] = 1; }
insert before func free call onFree($1, $3)
"""


@pytest.mark.parametrize("backend", ["compiled", "reference", "replay"])
def test_operand_past_call_arity_is_a_typed_error(backend):
    """``$3`` on ``free`` (one argument) passes the checker, which allows
    ``$1..$8`` on every call; the run fails with a typed error naming
    the insert, the function and its argument count."""
    from repro.compiler import compile_analysis
    from repro.errors import InsertOperandError
    from repro.harness.figures import fig3_workloads
    from repro.harness.runner import run_instrumented
    from repro.trace import TraceReplayer, record_workload

    workload = ALL[sorted(fig3_workloads())[0]]
    analysis = compile_analysis(_PAST_ARITY)
    message = (r"^insert before func free call onFree\(\$1, \$3\): reads \$3, "
               r"but free is called with 1 argument\(s\)$")
    with pytest.raises(InsertOperandError, match=message):
        if backend == "replay":
            buffer = io.BytesIO()
            record_workload(workload, 1, buffer)
            TraceReplayer(buffer.getvalue()).replay([analysis])
        else:
            run_instrumented(workload, [analysis], backend=backend)


def test_operand_metadata_past_call_arity_reads_zero():
    """``$N.m`` past the operand count keeps reading 0, on both backends."""
    from repro.compiler import compile_analysis
    from repro.harness.runner import run_instrumented

    source = """
address := pointer
label := int64
seen = map(address, label)
onFree(address a, label m) { seen[a] = m + 1; }
insert before func free call onFree($1, $3.m)
"""
    workload = ALL["bzip2"]
    profiles = [run_instrumented(workload, [compile_analysis(source)],
                                 backend=backend)[0]
                for backend in ("compiled", "reference")]
    assert dataclasses.asdict(profiles[0]) == dataclasses.asdict(profiles[1])
    assert profiles[0].events.get("func:free", 0) > 0


# ----------------------------------------------------------------------
# every shipped analysis: direct path vs reference, inline vs replay
# ----------------------------------------------------------------------
def _shipped_analyses():
    """Analysis name -> factory, for every analysis the repository ships
    that ``ANALYSIS_SPECS`` does not already build."""
    from repro.analyses import sslsan, strict_alias, zlibsan
    from repro.analyses.extras import EXTRAS

    shipped = {"sslsan": sslsan.compile_, "strict_alias": strict_alias.compile_,
               "zlibsan": zlibsan.compile_}
    shipped.update({name: module.compile_ for name, module in EXTRAS.items()})
    return shipped


#: (analysis, workload) cells: every spec and shipped analysis on a
#: single-threaded, a multi-threaded and a server workload; the library
#: sanitizers on the bug variants that drive their libraries.
_LIBRARY_WORKLOADS = {"sslsan": ("memcached_tls_leak", "nginx_tls_shutdown"),
                      "zlibsan": ("ffmpeg_zstream", "ffmpeg_zlib_ok")}
MATRIX = [(name, workload) for name in sorted(ANALYSIS_SPECS)
          + sorted(_shipped_analyses())
          for workload in _LIBRARY_WORKLOADS.get(name, ("bzip2", "radix", "memcached"))]


def _matrix_workload(name):
    from repro.workloads.bugs import WORKLOADS as BUGS

    return ALL[name] if name in ALL else BUGS[name]


def _matrix_analysis(name):
    if name in ANALYSIS_SPECS:
        return build_analysis(name)
    return _shipped_analyses()[name]()


@pytest.fixture
def touches(monkeypatch):
    """Every ``CostMeter.touch(address, size)``, in order."""
    from repro.vm.profile import CostMeter

    log = []
    touch = CostMeter.touch

    def logged(self, address, size=8):
        log.append((address, size))
        touch(self, address, size)

    monkeypatch.setattr(CostMeter, "touch", logged)
    return log


@pytest.fixture(scope="module")
def matrix_traces():
    from repro.trace import record_workload

    traces = {}
    for name in sorted({workload for _, workload in MATRIX}):
        buffer = io.BytesIO()
        record_workload(_matrix_workload(name), 1, buffer)
        traces[name] = buffer.getvalue()
    return traces


@pytest.mark.parametrize("analysis,workload", MATRIX)
def test_direct_path_matches_reference_and_replay(analysis, workload, touches,
                                                  matrix_traces, monkeypatch):
    """Touch by touch, the direct event path (compiled VM), the reference
    interpreter's EventContext path and record→replay do the same
    metadata work and end with the same profile, reports and event
    count."""
    from repro.runtime.metadata import MetadataSpace
    from repro.trace import TraceReplayer
    from repro.trace.replayer import ReplayState

    # Each run lays its metadata out from the same base address.
    first_space = MetadataSpace._fresh_count
    observed = {}
    for backend in ("reference", "compiled"):
        monkeypatch.setattr(MetadataSpace, "_fresh_count", first_space)
        source = _matrix_workload(workload)
        attachable = _matrix_analysis(analysis)
        vm = Interpreter(
            source.make_module(1),
            extern=source.make_extern(),
            input_lines=list(source.input_lines),
            track_shadow=attachable.needs_shadow,
            backend=backend,
        )
        attachable.attach(vm)
        profile = vm.run()
        observed[backend] = (dataclasses.asdict(profile), list(vm.reporter),
                             vm._fire_seq, list(touches))
        touches.clear()
    monkeypatch.setattr(MetadataSpace, "_fresh_count", first_space)
    state = ReplayState([_matrix_analysis(analysis)])
    state.run(TraceReplayer(matrix_traces[workload]).records)
    profile, reporter = state.finish()
    observed["replay"] = (dataclasses.asdict(profile), list(reporter),
                          state.vm._fire_seq, list(touches))

    reference = observed["reference"]
    assert reference[2] > 0, f"{analysis}/{workload}: no event fired"
    for path in ("compiled", "replay"):
        for i, part in enumerate(("profile", "reports", "event seq", "touches")):
            assert observed[path][i] == reference[i], (
                f"{analysis}/{workload}: {path} {part} differs from reference")

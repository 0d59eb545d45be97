"""Lifetime census: every run path leaves no cyclic garbage of its own.

A VM, a replay state and an analysis runtime own the run's whole state:
program heap, cache simulator, metadata columns.  Nothing they own may
point back at them, so reference counting frees a run as soon as the
caller drops it, instead of when the cycle collector next runs.  Each
test runs one path with the collector off, then asks the collector what
only it could have freed: no object whose type lives in ``repro.*`` may
be among it.

Analyses are compiled and the trace recorded before the measured window:
compiled analyses are memoized per process, and the compiler's own
checker is not run state.
"""

from __future__ import annotations

import gc
import io
import types
from collections import Counter

import pytest

import repro.compiler.pipeline as pipeline
import repro.exec.pool as pool_mod
import repro.harness.figures as figures
from repro.baselines import HandTunedEraser, HandTunedMSan
from repro.exec.pool import build_analysis
from repro.harness.runner import measure_overhead, run_plain
from repro.serve.tasks import replay_digest
from repro.trace import TraceReader, TraceStore, record_workload
from repro.trace.replayer import TraceReplayer, settle_trace
from repro.workloads import ALL

WORKLOADS = ("bzip2", "fft")  # single-threaded, and two threads with a join


def _cyclic_repro_garbage(run) -> Counter:
    """``repro.*`` objects that only the cycle collector frees after ``run()``."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = gc.garbage[:]
    gc.garbage.clear()
    return Counter(type(obj).__qualname__ for obj in garbage
                   if type(obj).__module__.split(".")[0] == "repro")


@pytest.fixture(scope="module")
def compiled():
    return {spec: build_analysis(spec) for spec in ("msan.alda", "eraser.full")}


@pytest.fixture(scope="module")
def traces():
    traces = {}
    for name in WORKLOADS:
        buffer = io.BytesIO()
        record_workload(ALL[name], 1, buffer)
        traces[name] = buffer.getvalue()
    return traces


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("backend", ["compiled", "reference"])
def test_run_plain(workload, backend):
    assert not _cyclic_repro_garbage(lambda: run_plain(ALL[workload], backend=backend))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("analysis", ["msan.alda", "HandTunedMSan",
                                      "eraser.full", "HandTunedEraser"])
def test_measure_overhead(compiled, workload, analysis):
    source = {"HandTunedMSan": HandTunedMSan,
              "HandTunedEraser": HandTunedEraser}.get(analysis) or compiled[analysis]
    assert not _cyclic_repro_garbage(lambda: measure_overhead(ALL[workload], source))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_workload(workload):
    assert not _cyclic_repro_garbage(
        lambda: record_workload(ALL[workload], 1, io.BytesIO()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_settle_trace(compiled, traces, workload):
    reader = TraceReader(traces[workload])
    sets = [[compiled["msan.alda"]], [compiled["eraser.full"], HandTunedEraser]]
    assert not _cyclic_repro_garbage(lambda: settle_trace(reader, sets))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_replayer_replay(compiled, traces, workload):
    assert not _cyclic_repro_garbage(
        lambda: TraceReplayer(traces[workload]).replay([compiled["eraser.full"]]))


def test_serve_replay_digest(compiled, tmp_path):
    store = TraceStore(tmp_path)
    reader = store.get_or_record(ALL["fft"], 1)
    store.ingest(store.trace_path(ALL["fft"], 1).read_bytes())
    payload = {"root": str(tmp_path), "digest": reader.digest, "spec": "eraser.full"}
    assert not _cyclic_repro_garbage(lambda: replay_digest(payload))


def _reachable(root) -> Counter:
    """Types of every object reachable from ``root`` through containers
    and instances (modules, classes, functions and code are not walked:
    they reach every module's globals)."""
    opaque = (types.ModuleType, type, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType)
    seen, stack, found = set(), [root], Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        found[type(obj).__qualname__] += 1
        stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture
def two_fig3_workloads(monkeypatch):
    monkeypatch.setattr(figures, "fig3_workloads",
                        lambda: {name: ALL[name] for name in WORKLOADS})


def test_figure_call(compiled, two_fig3_workloads):
    data = {}
    assert not _cyclic_repro_garbage(lambda: data.update(fig=figures.figure3()))
    assert list(data["fig"].rows) == list(WORKLOADS)


def test_second_figure_call_compiles_nothing(two_fig3_workloads, monkeypatch):
    figures.figure3()
    compiles = []

    def counting(*args, **kwargs):
        compiles.append(args)
        return generate_module(*args, **kwargs)

    generate_module = pipeline.generate_module
    monkeypatch.setattr(pipeline, "generate_module", counting)
    figures.figure3()
    assert compiles == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_memo_keeps_no_run_state(compiled, traces, workload):
    replayer = TraceReplayer(traces[workload])
    for spec in ("msan.handtuned", "eraser.handtuned", "msan.alda"):
        profile, _reporter = replayer.replay([build_analysis(spec)])
        assert profile.handler_calls > 0
    assert build_analysis("msan.handtuned") is not build_analysis("msan.handtuned")
    reachable = _reachable(pool_mod._COMPILED)
    assert reachable["CompiledAnalysis"] >= 1
    assert reachable["CacheSim"] == 0

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
from collections import Counter

import pytest

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

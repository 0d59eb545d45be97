"""Replay equivalence: replaying a trace reproduces inline runs exactly."""

import io

import pytest

from repro.analyses import eraser, msan, sslsan
from repro.baselines import HandTunedEraser, HandTunedMSan
from repro.harness.runner import run_instrumented
from repro.trace import TraceReader, TraceReplayer, record_workload
from repro.workloads import ALL
from repro.workloads.bugs import WORKLOADS as BUG_WORKLOADS


def _trace(workload, scale=1):
    buffer = io.BytesIO()
    record_workload(workload, scale, buffer)
    return TraceReader(buffer.getvalue())


def _assert_equivalent(workload, analysis_source, trace=None):
    """One inline run vs one replay: every profile field plus reports."""
    inline_profile, inline_reporter = run_instrumented(workload, [analysis_source])
    trace = trace or _trace(workload)
    replay_profile, replay_reporter = TraceReplayer(trace).replay([analysis_source])

    assert replay_profile.cycles == inline_profile.cycles
    assert replay_profile.base_cycles == inline_profile.base_cycles
    assert replay_profile.mem_cycles == inline_profile.mem_cycles
    assert replay_profile.instr_cycles == inline_profile.instr_cycles
    assert replay_profile.instructions == inline_profile.instructions
    assert replay_profile.handler_calls == inline_profile.handler_calls
    assert replay_profile.metadata_ops == inline_profile.metadata_ops
    assert replay_profile.metadata_bytes == inline_profile.metadata_bytes
    assert replay_profile.heap_peak_bytes == inline_profile.heap_peak_bytes
    assert replay_profile.events == inline_profile.events
    assert replay_profile.cache == inline_profile.cache
    assert list(replay_reporter) == list(inline_reporter)


# The acceptance bar: bit-identical replay for Fig. 3 (MSan) and
# Fig. 4 (Eraser), compiled and hand-tuned, on representative workloads.
@pytest.mark.parametrize("name", ["fft", "bzip2"])
def test_replay_matches_inline_msan(name):
    workload = ALL[name]
    trace = _trace(workload)
    _assert_equivalent(workload, msan.compile_(), trace)
    _assert_equivalent(workload, HandTunedMSan, trace)


@pytest.mark.parametrize("name", ["fft", "lu_c"])
def test_replay_matches_inline_eraser(name):
    workload = ALL[name]
    trace = _trace(workload)
    _assert_equivalent(workload, eraser.compile_(), trace)
    _assert_equivalent(workload, HandTunedEraser, trace)


def test_replay_reproduces_reports_and_backtraces():
    """A buggy workload: alda_assert reports must replay with identical
    messages, locations, and backtraces."""
    workload = BUG_WORKLOADS["memcached_tls_leak"]
    compiled = sslsan.compile_()
    _, inline_reporter = run_instrumented(workload, [compiled])
    inline_reports = list(inline_reporter)
    assert inline_reports, "expected the bug workload to produce reports"

    _, replay_reporter = TraceReplayer(_trace(workload)).replay([compiled])
    assert list(replay_reporter) == inline_reports


def test_replay_multiple_analyses_together():
    workload = ALL["fft"]
    sources = [msan.compile_(), eraser.compile_()]
    inline_profile, _ = run_instrumented(workload, sources)
    replay_profile, _ = TraceReplayer(_trace(workload)).replay(sources)
    assert replay_profile.cycles == inline_profile.cycles
    assert replay_profile.events == inline_profile.events


def test_replayer_is_reusable():
    """One replayer, many replays: decode caching must not leak state."""
    workload = ALL["fft"]
    replayer = TraceReplayer(_trace(workload))
    first, _ = replayer.replay([eraser.compile_()])
    second, _ = replayer.replay([eraser.compile_()])
    third, _ = replayer.replay([HandTunedMSan])
    assert first.cycles == second.cycles
    inline, _ = run_instrumented(workload, [HandTunedMSan])
    assert third.cycles == inline.cycles


def test_replay_without_shadow_skips_shadow_costs():
    """Eraser needs no shadow plane: replay must mirror inline, which
    bills zero shadow propagation when track_shadow is off."""
    workload = ALL["fft"]
    inline_profile, _ = run_instrumented(workload, [HandTunedEraser])
    replay_profile, _ = TraceReplayer(_trace(workload)).replay([HandTunedEraser])
    assert replay_profile.instr_cycles == inline_profile.instr_cycles

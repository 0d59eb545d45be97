"""Tests for the batch executor."""

import dataclasses
import tempfile

import pytest

from repro.exec import pool as pool_mod
from repro.exec import (
    ANALYSIS_SPECS,
    JobSpec,
    JobResult,
    analysis_fingerprint,
    build_analysis,
    run_batch,
)
from repro.baselines import HandTunedMSan
from repro.harness.runner import measure_overhead
from repro.trace import TraceReplayer, TraceStore
from repro.trace import recorder as recorder_mod
from repro.trace import store as store_mod
from repro.trace.replayer import settle_trace
from repro.workloads import ALL


JOBS = [
    JobSpec("bzip2", "msan.alda", "ALDAcc"),
    JobSpec("bzip2", "msan.handtuned", "LLVM"),
    JobSpec("fft", "eraser.full", "ALDAcc-full"),
]


def test_registry_builds_every_spec():
    for spec in ANALYSIS_SPECS:
        attachable = build_analysis(spec)
        assert hasattr(attachable, "attach")
        assert hasattr(attachable, "needs_shadow")


def test_fingerprints_unique_and_stable():
    prints = {spec: analysis_fingerprint(spec) for spec in ANALYSIS_SPECS}
    assert len(set(prints.values())) == len(prints)
    assert analysis_fingerprint("msan.alda") == prints["msan.alda"]


def test_unknown_spec_rejected():
    with pytest.raises(KeyError):
        build_analysis("nope.missing")
    with pytest.raises(KeyError):
        run_batch([JobSpec("bzip2", "nope.missing")])


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_batch([JobSpec("no_such_workload", "msan.alda")])


def test_run_batch_matches_inline(tmp_path):
    results = run_batch(JOBS, store=tmp_path)
    assert [r.label for r in results] == ["ALDAcc", "LLVM", "ALDAcc-full"]
    for job, result in zip(JOBS, results):
        inline = measure_overhead(
            ALL[job.workload], build_analysis(job.spec), label=job.label
        )
        assert result.baseline_cycles == inline.baseline_cycles
        assert result.instrumented_cycles == inline.instrumented_cycles
        assert result.overhead == inline.overhead
        assert result.metadata_bytes == inline.profile.metadata_bytes
        assert not result.cached


def test_run_batch_result_cache(tmp_path):
    first = run_batch(JOBS, store=tmp_path)
    second = run_batch(JOBS, store=tmp_path)
    assert all(not r.cached for r in first)
    assert all(r.cached for r in second)
    for a, b in zip(first, second):
        assert a.instrumented_cycles == b.instrumented_cycles
        assert a.baseline_cycles == b.baseline_cycles


def test_run_batch_parallel_equals_serial(tmp_path):
    serial = run_batch(JOBS, processes=1, store=tmp_path / "a")
    parallel = run_batch(JOBS, processes=2, store=tmp_path / "b")
    for a, b in zip(serial, parallel):
        assert a.workload == b.workload and a.label == b.label
        assert a.instrumented_cycles == b.instrumented_cycles
        assert a.baseline_cycles == b.baseline_cycles


def test_run_batch_records_each_workload_once(tmp_path):
    run_batch(JOBS, store=tmp_path)
    store = TraceStore(tmp_path)
    traces = list(store.root.glob("*.trace"))
    assert len(traces) == 2  # bzip2 + fft, not one per job


def test_run_batch_without_store_records_no_trace(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_batch without a store recorded a trace")

    for module in (recorder_mod, store_mod):
        monkeypatch.setattr(module, "record_workload", refuse)
    monkeypatch.setattr(store_mod.TraceStore, "__init__", refuse)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    results = run_batch(JOBS)
    assert not list(tmp_path.iterdir())
    monkeypatch.undo()
    traced = run_batch(JOBS, store=tmp_path)
    for inline, replayed in zip(results, traced):
        assert dataclasses.replace(inline, wall_seconds=0) == \
            dataclasses.replace(replayed, wall_seconds=0)


def test_job_result_serialization():
    result = JobResult(
        workload="w", spec="s", label="l", scale=1,
        baseline_cycles=100, instrumented_cycles=250,
        metadata_bytes=7, n_reports=0, wall_seconds=0.5,
    )
    as_dict = result.to_dict()
    assert as_dict["overhead"] == 2.5
    assert as_dict["workload"] == "w"
    assert not as_dict["cached"]


@pytest.fixture
def settle_calls(monkeypatch):
    """Spec lists each settle_trace call of the batch executor settled."""
    calls = []

    def spy(trace, analysis_sets, cache_config=None):
        calls.append(len(analysis_sets))
        return settle_trace(trace, analysis_sets, cache_config)

    monkeypatch.setattr(pool_mod, "settle_trace", spy)
    return calls


def test_warm_batch_reads_no_trace(tmp_path):
    store = TraceStore(tmp_path)
    cold = run_batch(JOBS, store=store)
    before = store.integrity_stats()
    warm = run_batch(JOBS, store=store)
    after = store.integrity_stats()
    # The warm batch reads one cached result per distinct (workload,
    # spec); the traces' payloads stay unread.
    distinct = {(job.workload, job.spec) for job in JOBS}
    assert after["verified_trace_reads"] == before["verified_trace_reads"]
    assert (after["verified_result_reads"] - before["verified_result_reads"]
            == len(distinct))
    assert after["corrupt_detected"] == before["corrupt_detected"]
    assert warm == [dataclasses.replace(result, cached=True) for result in cold]


def test_segment_settle_equals_replay_for_every_spec(tmp_path):
    reader = TraceStore(tmp_path).get_or_record(
        ALL["fft"], 1, segment_target_bytes=16 * 1024)
    assert len(reader.segments) >= 5
    specs = list(ANALYSIS_SPECS)
    settled = settle_trace(reader, [[build_analysis(spec)] for spec in specs])
    replayer = TraceReplayer(reader)
    for spec, (profile, reporter, seconds) in zip(specs, settled):
        expected, expected_reporter = replayer.replay([build_analysis(spec)])
        assert profile.cycles == expected.cycles, spec
        assert profile.events == expected.events, spec
        assert profile.metadata_bytes == expected.metadata_bytes, spec
        assert dataclasses.asdict(profile) == dataclasses.asdict(expected), spec
        assert list(reporter) == list(expected_reporter), spec
        assert seconds > 0


def test_repeated_handtuned_spec_settles_once(tmp_path, settle_calls):
    jobs = [JobSpec("bzip2", "msan.handtuned", "LLVM"),
            JobSpec("bzip2", "msan.handtuned", "LLVM-again")]
    first, second = run_batch(jobs, store=tmp_path)
    assert settle_calls == [1]
    inline = measure_overhead(ALL["bzip2"], HandTunedMSan)
    for result in (first, second):
        assert result.instrumented_cycles == inline.instrumented_cycles
        assert result.metadata_bytes == inline.profile.metadata_bytes
        assert result.n_reports == len(inline.reports)
    assert (first.label, second.label) == ("LLVM", "LLVM-again")


def test_partly_cached_group_settles_only_misses(tmp_path, settle_calls):
    run_batch([JobSpec("bzip2", "msan.alda")], store=tmp_path)
    assert settle_calls == [1]
    cached, fresh = run_batch(
        [JobSpec("bzip2", "msan.alda"), JobSpec("bzip2", "eraser.full")],
        store=tmp_path)
    assert settle_calls == [1, 1]
    assert cached.cached and not fresh.cached
    inline = measure_overhead(ALL["bzip2"], build_analysis("eraser.full"))
    assert fresh.instrumented_cycles == inline.instrumented_cycles

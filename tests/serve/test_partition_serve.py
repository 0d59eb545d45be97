"""RUN_PARTITIONED through the daemon: bit-correct records, admission
gating, and monolithic fallback when a partition fault fires."""

import pytest

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.exec.pool import build_analysis
from repro.serve.client import ServeClient
from repro.trace import TraceReader, TraceReplayer


@pytest.fixture(autouse=True)
def _no_plan():
    faultline.clear()
    yield
    faultline.clear()


def _inline(blob, spec):
    profile, reporter = TraceReplayer(TraceReader(blob)).replay(
        [build_analysis(spec)]
    )
    return profile, list(reporter)


def test_partitioned_serve_matches_inline(make_server, fft_trace):
    digest, blob, plain_cycles = fft_trace
    profile, reports = _inline(blob, "eraser.full")
    handle = make_server(partition_shards=4, partition_min_records=1)
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    record = response["result"]
    assert record["instrumented_cycles"] == profile.cycles
    assert record["metadata_bytes"] == profile.metadata_bytes
    assert record["n_reports"] == len(reports)
    assert record["baseline_cycles"] == plain_cycles
    # The record advertises the partitioned path and the stats frame
    # exposes both the counter and the subsystem namespace.
    assert record["partition_shards"] >= 1
    assert snap["counters"]["partitioned_replays"] == 1
    assert snap["counters"]["partition_attempts"] == 1
    assert snap["subsystems"]["partition"]["replays"] >= 1
    assert snap["config"]["partition_shards"] == 4


def test_partitioned_result_lands_in_cache(make_server, fft_trace):
    digest, blob, _plain = fft_trace
    handle = make_server(partition_shards=4, partition_min_records=1)
    with ServeClient(handle.address) as client:
        cold = client.submit("uaf.alda", trace_bytes=blob)
        hit = client.submit("uaf.alda", digest=digest)
    assert not cold["cached"] and hit["cached"]
    assert hit["result"]["instrumented_cycles"] == \
        cold["result"]["instrumented_cycles"]


def test_fault_falls_back_to_monolithic(make_server, fft_trace):
    """An armed merge fault must not surface to the client: the request
    is answered bit-correctly by the monolithic path and only the
    fallback counter betrays the detour."""
    _digest, blob, _plain = fft_trace
    profile, reports = _inline(blob, "eraser.full")
    handle = make_server(partition_shards=4, partition_min_records=1)
    faultline.install(FaultPlan(seed=11, points={
        "partition.merge.corrupt": FaultSpec(probability=1.0, max_fires=1),
    }))
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    record = response["result"]
    assert record["instrumented_cycles"] == profile.cycles
    assert record["n_reports"] == len(reports)
    assert "partition_shards" not in record
    assert snap["counters"]["partition_fallbacks"] == 1
    assert snap["counters"]["partition_fallback_PartitionMergeError"] == 1
    assert snap["counters"].get("partitioned_replays", 0) == 0


def test_small_traces_skip_partitioning(make_server, fft_trace):
    """Below ``partition_min_records`` the scheduler never attempts the
    partitioned path — no attempt counter, plain monolithic record."""
    _digest, blob, _plain = fft_trace
    handle = make_server(partition_shards=4, partition_min_records=10**9)
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    assert "partition_shards" not in response["result"]
    assert snap["counters"].get("partition_attempts", 0) == 0


def test_partitioning_disabled_by_default(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    assert "partition_shards" not in response["result"]
    assert snap["config"]["partition_shards"] == 1
    assert snap["counters"].get("partition_attempts", 0) == 0

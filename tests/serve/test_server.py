"""End-to-end daemon tests: correctness, caching, single-flight, BUSY."""

import threading

import pytest

from repro.exec.pool import build_analysis
from repro.serve.client import RequestFailed, ServeClient, ServerBusy
from repro.trace import TraceReader, TraceReplayer

from tests.serve.conftest import make_slow_builder, needs_fork


def test_ping(make_server):
    handle = make_server()
    with ServeClient(handle.address) as client:
        assert client.ping()


def test_replay_matches_inline(make_server, fft_trace):
    """The served result is the inline replay result, number for number."""
    digest, blob, plain_cycles = fft_trace
    profile, reporter = TraceReplayer(TraceReader(blob)).replay(
        [build_analysis("eraser.full")]
    )
    handle = make_server()
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
    record = response["result"]
    assert not response["cached"]
    assert record["trace_digest"] == digest
    assert record["workload"] == "fft"
    assert record["baseline_cycles"] == plain_cycles
    assert record["instrumented_cycles"] == profile.cycles
    assert record["metadata_bytes"] == profile.metadata_bytes
    assert record["n_reports"] == len(list(reporter))


def test_cache_hit_and_digest_only(make_server, fft_trace):
    digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        cold = client.submit("eraser.full", trace_bytes=blob)
        assert not cold["cached"]
        # Same trace by digest only: zero trace bytes on the wire.
        hit = client.submit("eraser.full", digest=digest)
        assert hit["cached"]
        assert hit["result"]["instrumented_cycles"] == \
            cold["result"]["instrumented_cycles"]
        snap = client.stats()
    assert snap["counters"]["cache_hits"] == 1
    assert snap["counters"]["cache_misses"] == 1
    assert snap["cache_hit_rate"] == 0.5


def test_unknown_digest_rejected(make_server):
    handle = make_server()
    with ServeClient(handle.address) as client:
        with pytest.raises(RequestFailed) as exc_info:
            client.submit("eraser.full", digest="f" * 64)
    assert exc_info.value.code == "UNKNOWN_TRACE"


def test_digest_first_uploads_once(make_server, fft_trace):
    digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        client.submit_digest_first("eraser.full", digest, blob)
        client.submit_digest_first("msan.alda", digest, blob)
        snap = client.stats()
    assert snap["counters"]["traces_ingested"] == 1


@needs_fork
def test_single_flight_dedupes_concurrent_identical(make_server, fft_trace,
                                                    inject_spec):
    digest, blob, _plain = fft_trace
    spec = inject_spec("test.slow", make_slow_builder(0.4))
    handle = make_server(workers=2, queue_capacity=8)
    with ServeClient(handle.address) as seeder:
        seeder.submit("msan.alda", trace_bytes=blob)  # ingest the trace

    results, errors = [], []

    def one_request():
        try:
            with ServeClient(handle.address) as client:
                results.append(client.submit(spec, digest=digest))
        except Exception as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [threading.Thread(target=one_request) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(results) == 4
    cycles = {r["result"]["instrumented_cycles"] for r in results}
    assert len(cycles) == 1  # everyone saw the same execution
    with ServeClient(handle.address) as client:
        snap = client.stats()
    # 4 identical concurrent requests -> 1 execution, 3 joins.
    assert snap["counters"]["single_flight_hits"] == 3


@needs_fork
def test_backpressure_busy_not_unbounded(make_server, fft_trace, inject_spec):
    """With capacity K, the K+1st distinct concurrent request gets BUSY."""
    digest, blob, _plain = fft_trace
    specs = [inject_spec(f"test.slow{i}", make_slow_builder(1.0))
             for i in range(4)]
    handle = make_server(workers=1, queue_capacity=1)
    with ServeClient(handle.address) as seeder:
        seeder.submit("msan.alda", trace_bytes=blob)

    outcomes = []
    lock = threading.Lock()

    def one_request(spec):
        try:
            with ServeClient(handle.address) as client:
                client.submit(spec, digest=digest)
            with lock:
                outcomes.append("ok")
        except ServerBusy as exc:
            assert exc.capacity == 1
            with lock:
                outcomes.append("busy")

    threads = [threading.Thread(target=one_request, args=(spec,))
               for spec in specs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert outcomes.count("ok") >= 1
    assert outcomes.count("busy") >= 1  # the excess was rejected, not queued
    with ServeClient(handle.address) as client:
        snap = client.stats()
    assert snap["counters"]["busy_total"] == outcomes.count("busy")
    assert snap["config"]["queue_capacity"] == 1


def test_stats_frame_shape(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    assert snap["gauges"]["workers_alive"] == 2
    assert snap["gauges"]["queue_depth"] == 0
    assert snap["counters"]["results_total"] == 1
    latency = snap["histograms"]["request_latency_ms"]
    for percentile_key in ("p50", "p95", "p99"):
        assert latency[percentile_key] > 0
    assert snap["config"]["workers"] == 2
    # Per-subsystem counters live in one namespaced block; the
    # top-level compile_cache key is a legacy alias of vm.compile.
    subsystems = snap["subsystems"]
    assert snap["compile_cache"] == subsystems["vm.compile"]
    assert set(subsystems["vm.compile"]) == {"hits", "misses", "entries"}
    staticpass = subsystems["staticpass"]
    for key in ("mask_cache_hits", "mask_cache_misses", "masks_cached",
                "sites_considered", "sites_elided"):
        assert isinstance(staticpass[key], int)
    import json

    json.dumps(snap)  # STATS payload must stay JSON-able end to end


def test_graceful_shutdown_via_frame(make_server, fft_trace):
    _digest, blob, _plain = fft_trace
    handle = make_server()
    with ServeClient(handle.address) as client:
        client.submit("eraser.full", trace_bytes=blob)
        client.request_shutdown()
    handle._thread.join(10.0)
    assert not handle._thread.is_alive()


def test_server_mode_cli_flag_parses():
    """`python -m repro.harness figN --server` is wired through argparse."""
    import argparse

    from repro.harness.__main__ import main

    with pytest.raises((SystemExit, argparse.ArgumentError)):
        main(["fig4", "--server"])  # missing value: argparse error, not crash

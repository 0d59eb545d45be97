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


def test_cache_hits_stay_on_the_event_loop(make_server, fft_trace,
                                          monkeypatch):
    """After a spec's first request, a hit makes no executor call: the
    fingerprint is memoized and the result read is one verified file
    read on the loop."""
    digest, blob, _plain = fft_trace
    handle = make_server(workers=0)
    with ServeClient(handle.address) as client:
        client.submit("eraser.full", trace_bytes=blob)
        loop = handle._loop
        calls = []
        real = loop.run_in_executor
        monkeypatch.setattr(loop, "run_in_executor",
                            lambda *args: calls.append(args) or real(*args))
        loads = []
        real_load = handle.server.store.load_result
        monkeypatch.setattr(handle.server.store, "load_result",
                            lambda key: loads.append(key) or real_load(key))
        for _ in range(50):
            assert client.submit("eraser.full", digest=digest)["cached"]
        snap = client.stats()
    assert calls == []
    assert len(loads) == 50  # every hit still reads and verifies the file
    assert snap["counters"]["cache_hits"] == 50


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


def test_concurrent_digest_first_clients_upload_once(make_server, fft_trace):
    """Probes that miss a trace while its first upload is pending wait
    for that upload instead of each uploading the trace again."""
    digest, blob, plain_cycles = fft_trace
    handle = make_server()
    specs = ["eraser.full", "msan.alda", "eraser.ds_only", "eraser.full"]
    barrier = threading.Barrier(len(specs))
    clients = [ServeClient(handle.address) for _ in specs]
    results, errors = [], []

    def one_request(client, spec):
        try:
            with client:
                client.ping()  # connected before the barrier
                barrier.wait()
                results.append(client.submit_digest_first(spec, digest, blob))
        except Exception as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [threading.Thread(target=one_request, args=pair)
               for pair in zip(clients, specs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(results) == len(specs)
    assert all(r["result"]["baseline_cycles"] == plain_cycles for r in results)
    assert sum(client.uploads for client in clients) == 1
    with ServeClient(handle.address) as client:
        snap = client.stats()
    assert snap["counters"]["traces_ingested"] == 1


def test_digest_first_probes_are_not_errors(make_server, fft_trace):
    """The ``UNKNOWN_TRACE`` answer to a digest-first probe is a protocol
    step, upon which the client uploads: it has its own counter and
    leaves ``errors_total`` at zero."""
    digest, blob, _plain = fft_trace
    handle = make_server()
    for spec in ("eraser.full", "msan.alda"):
        with ServeClient(handle.address) as client:
            client.submit_digest_first(spec, digest, blob)
    with ServeClient(handle.address) as client:
        counters = client.stats()["counters"]
    assert counters.get("errors_total", 0) == 0
    assert counters["unknown_trace_total"] >= 1
    assert counters["traces_ingested"] == 1


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
    # Process-wide counters live in one block, grouped by subsystem;
    # the legacy top-level compile_cache alias is gone.
    subsystems = snap["subsystems"]
    assert "compile_cache" not in snap
    assert {"vm.compile", "staticpass", "partition", "fuzz"} <= set(subsystems)
    assert set(subsystems["vm.compile"]) == {"hits", "misses", "entries"}
    staticpass = subsystems["staticpass"]
    for key in ("mask_cache_hits", "mask_cache_misses", "mask_cache_entries",
                "interproc_cache_hits", "interproc_cache_misses",
                "interproc_cache_entries", "sites_considered", "sites_elided"):
        assert isinstance(staticpass[key], int)
    assert "fallbacks" not in subsystems["partition"]
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

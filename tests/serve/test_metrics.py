"""Metrics layer unit tests."""

from repro.obs import Histogram, MetricsRegistry
from repro.serve.metrics import render_snapshot


def test_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("requests").inc()
    registry.counter("requests").inc(4)
    registry.gauge("depth").set(7)
    registry.gauge("depth").dec(2)
    snap = registry.snapshot()
    assert snap["counters"]["requests"] == 5
    assert snap["gauges"]["depth"] == 5
    assert registry.counter("requests") is registry.counter("requests")


def test_histogram_percentiles_monotonic():
    registry = MetricsRegistry()
    hist = registry.histogram("latency")
    for value in range(1, 101):  # 1..100 ms uniform
        hist.observe(float(value))
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["min"] == 1.0 and summary["max"] == 100.0
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
    # log-bucket estimation: p50 of uniform 1..100 lands near 50
    assert 30 <= summary["p50"] <= 70
    assert summary["p99"] >= 80


def test_histogram_empty_and_single():
    hist = Histogram(lock=__import__("threading").Lock())
    assert hist.summary() == {"count": 0}
    assert hist.percentile(99) == 0.0
    hist.observe(5.0)
    summary = hist.summary()
    assert summary["count"] == 1
    assert abs(summary["p50"] - 5.0) < 5.0


def test_cache_hit_rate_derived():
    registry = MetricsRegistry()
    assert "cache_hit_rate" not in registry.snapshot()
    registry.counter("cache_hits").inc(3)
    registry.counter("cache_misses").inc(1)
    assert registry.snapshot()["cache_hit_rate"] == 0.75


def test_snapshot_is_json_able_and_renders():
    import json

    registry = MetricsRegistry()
    registry.counter("requests_total").inc()
    registry.gauge("queue_depth").set(2)
    registry.histogram("request_latency_ms").observe(1.25)
    snap = registry.snapshot()
    json.dumps(snap)
    text = render_snapshot(snap)
    assert "counter requests_total: 1" in text
    assert "gauge queue_depth: 2" in text
    assert "histogram request_latency_ms" in text


def test_render_snapshot_subsystem_block():
    snap = {
        "uptime_seconds": 1.0,
        "subsystems": {
            "vm.compile": {"hits": 3, "misses": 1, "entries": 1},
            "staticpass": {"mask_cache_hits": 2, "sites_elided": 9},
        },
    }
    text = render_snapshot(snap)
    assert "vm.compile: entries=1 hits=3 misses=1" in text
    assert "staticpass: mask_cache_hits=2 sites_elided=9" in text
    assert "compile_cache" not in text


def test_render_health_prints_both_verified_read_counts():
    text = render_snapshot({"health": {"store": {
        "verified_trace_reads": 2, "verified_result_reads": 5,
        "corrupt_detected": 0, "quarantined": 1,
    }}})
    assert ("store: verified_trace_reads=2 verified_result_reads=5 "
            "corrupt_detected=0 quarantined=1") in text

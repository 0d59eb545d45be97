"""Retry policy, circuit breaker, and client-side resilience tests."""

import random
import socket
import threading
import types

import pytest

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.serve.client import (
    CircuitOpenError,
    RetriesExhausted,
    ServeClient,
    ServerBusy,
)
from repro.serve.config import ResilienceConfig
from repro.serve.resilience import CircuitBreaker, RetryPolicy

from .conftest import needs_fork  # noqa: F401 (reexported fixture marker)

# breaker_threshold == max_attempts so one fully-failed request opens
# the breaker exactly as its retries exhaust (not mid-loop).
FAST = ResilienceConfig(max_attempts=4, backoff_base=0.01, backoff_max=0.05,
                        retry_budget=5.0, breaker_threshold=4,
                        breaker_reset=0.2)


@pytest.fixture(autouse=True)
def _no_plan():
    faultline.clear()
    yield
    faultline.clear()


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_delays_grow_and_respect_max_attempts():
    config = ResilienceConfig(max_attempts=5, backoff_base=0.1,
                              backoff_factor=2.0, backoff_max=10.0,
                              backoff_jitter=0.0, retry_budget=1000.0)
    delays = list(RetryPolicy(config).delays())
    assert delays == [0.1, 0.2, 0.4, 0.8]  # max_attempts - 1 sleeps


def test_backoff_max_caps_each_sleep():
    config = ResilienceConfig(max_attempts=6, backoff_base=1.0,
                              backoff_factor=10.0, backoff_max=2.0,
                              backoff_jitter=0.0, retry_budget=1000.0)
    assert max(RetryPolicy(config).delays()) == 2.0


def test_budget_stops_retries_early():
    config = ResilienceConfig(max_attempts=100, backoff_base=1.0,
                              backoff_factor=1.0, backoff_max=1.0,
                              backoff_jitter=0.0, retry_budget=3.5)
    delays = list(RetryPolicy(config).delays())
    assert len(delays) == 3  # a 4th sleep would exceed the budget
    assert sum(delays) <= 3.5


def test_jitter_stays_within_fraction_and_is_seeded():
    config = ResilienceConfig(max_attempts=20, backoff_base=1.0,
                              backoff_factor=1.0, backoff_max=1.0,
                              backoff_jitter=0.5, retry_budget=1000.0)
    first = list(RetryPolicy(config, seed=7).delays())
    second = list(RetryPolicy(config, seed=7).delays())
    assert first == second  # reproducible schedule
    assert all(0.5 <= delay <= 1.0 for delay in first)  # (1 - jitter) floor
    assert len(set(first)) > 1  # actually randomized


def _eager_delays(config, rng):
    """The schedule given by an RNG seeded when the policy is built."""
    delays, backoff, spent = [], config.backoff_base, 0.0
    for _ in range(config.max_attempts - 1):
        delay = min(backoff, config.backoff_max)
        floor = delay * (1.0 - config.backoff_jitter)
        delay = floor + rng.random() * (delay - floor)
        if spent + delay > config.retry_budget:
            break
        spent += delay
        delays.append(delay)
        backoff *= config.backoff_factor
    return delays


def test_lazy_rng_keeps_every_seeded_sequence():
    config = ResilienceConfig(max_attempts=8, backoff_base=0.05,
                              backoff_max=2.0, backoff_jitter=0.5,
                              retry_budget=3.0)
    for seed in range(21):
        rng = random.Random(seed)
        policy = RetryPolicy(config, seed=seed)
        assert list(policy.delays()) == _eager_delays(config, rng)
        # a second schedule continues the same stream
        assert list(policy.delays()) == _eager_delays(config, rng)


def test_no_rng_until_the_first_retry(monkeypatch):
    from repro.serve import resilience

    built = []
    monkeypatch.setattr(resilience, "random", types.SimpleNamespace(
        Random=lambda seed: built.append(seed) or random.Random(seed)))
    policy = RetryPolicy(ResilienceConfig(), seed=3)
    delays = policy.delays()
    assert built == []  # a request that succeeds first time builds none
    next(delays)
    next(delays)
    assert built == [3]  # one RNG, kept on the policy


def test_single_attempt_means_no_sleeps():
    config = ResilienceConfig(max_attempts=1)
    assert list(RetryPolicy(config).delays()) == []


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_trips_after_threshold():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0,
                             clock=clock)
    assert breaker.state == CircuitBreaker.CLOSED
    for _ in range(2):
        breaker.record_failure()
        assert breaker.allow()
    breaker.record_failure()  # third consecutive failure
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.trips == 1


def test_success_resets_the_failure_count():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED  # never 2 consecutive


def test_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                             clock=clock)
    breaker.record_failure()
    assert not breaker.allow()
    clock.now = 5.0
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # everyone else still rejected
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_failed_probe_reopens_immediately():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=5, reset_timeout=5.0,
                             clock=clock)
    for _ in range(5):
        breaker.record_failure()
    clock.now = 5.0
    assert breaker.allow()
    breaker.record_failure()  # probe failed: open again, timer restarted
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.trips == 2
    clock.now = 10.0
    assert breaker.allow()


def test_snapshot_is_jsonable():
    snap = CircuitBreaker().snapshot()
    assert snap["state"] == "closed"
    assert set(snap) >= {"state", "consecutive_failures", "trips"}


# ----------------------------------------------------------------------
# client retry behavior against a live server
# ----------------------------------------------------------------------
def test_busy_fault_is_retried_to_success(make_server, fft_trace):
    digest, blob, _ = fft_trace
    handle = make_server()
    # Fire BUSY on the first two requests, then behave.
    faultline.install(FaultPlan(seed=5, points={
        "serve.busy": FaultSpec(probability=1.0, max_fires=2),
    }))
    client = ServeClient(handle.address, resilience=FAST, retry_seed=1)
    with client:
        response = client.submit_digest_first("eraser.full", digest, blob)
    assert response["result"]["instrumented_cycles"] > 0
    assert client.retry_stats["busy_retried"] == 2
    assert client.retry_stats["retries"] >= 2


def test_conn_reset_fault_is_retried_to_success(make_server, fft_trace):
    digest, blob, _ = fft_trace
    handle = make_server()
    faultline.install(FaultPlan(seed=5, points={
        "serve.conn.reset": FaultSpec(probability=1.0, max_fires=1),
    }))
    client = ServeClient(handle.address, resilience=FAST, retry_seed=1)
    with client:
        response = client.submit_digest_first("eraser.full", digest, blob)
    assert response["result"]["instrumented_cycles"] > 0
    assert client.retry_stats["transport_retried"] >= 1


def test_without_resilience_busy_raises_through(make_server, fft_trace):
    digest, blob, _ = fft_trace
    handle = make_server()
    faultline.install(FaultPlan(seed=5, points={
        "serve.busy": FaultSpec(probability=1.0, max_fires=1),
    }))
    with ServeClient(handle.address) as client:  # legacy fail-fast client
        with pytest.raises(ServerBusy):
            client.submit_digest_first("eraser.full", digest, blob)


def _dead_listener():
    """A socket that accepts and immediately resets every connection."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()

    def shutdown():
        stop.set()
        sock.close()

    return f"127.0.0.1:{sock.getsockname()[1]}", shutdown


def test_retries_exhausted_is_typed():
    address, shutdown = _dead_listener()
    try:
        client = ServeClient(address, timeout=2.0, resilience=FAST,
                             retry_seed=0)
        with pytest.raises(RetriesExhausted) as excinfo:
            client.submit("eraser.full", digest=None, trace_bytes=b"")
        assert excinfo.value.attempts == FAST.max_attempts
        assert client.retry_stats["attempts"] == FAST.max_attempts
    finally:
        shutdown()


def test_breaker_opens_after_repeated_transport_failures():
    address, shutdown = _dead_listener()
    try:
        client = ServeClient(address, timeout=2.0, resilience=FAST,
                             retry_seed=0)
        with pytest.raises(RetriesExhausted):
            client.submit("eraser.full")  # 4 attempts >= threshold 3
        with pytest.raises(CircuitOpenError):
            client.submit("eraser.full")  # no attempt at all
        assert client.retry_stats["breaker_rejections"] == 1
    finally:
        shutdown()


def test_unknown_trace_not_retried_without_bytes(make_server):
    handle = make_server()
    client = ServeClient(handle.address, resilience=FAST)
    from repro.serve.client import RequestFailed

    with client:
        with pytest.raises(RequestFailed) as excinfo:
            client.submit("eraser.full", digest="0" * 64)
    assert excinfo.value.code == "UNKNOWN_TRACE"
    assert client.retry_stats["retries"] == 0  # definitive, not transient


def test_run_batch_survives_busy_storm(make_server):
    # figureN(server=...) must not abort on transient BUSY.
    from repro.exec.pool import JobSpec, run_batch

    handle = make_server()
    faultline.install(FaultPlan(seed=9, points={
        "serve.busy": FaultSpec(probability=1.0, max_fires=3),
    }))
    results = run_batch([
        JobSpec("fft", "eraser.full", "eraser", 1),
        JobSpec("fft", "eraser.ds_only", "ds-only", 1),
    ], server=handle.address)
    assert len(results) == 2
    assert all(r.instrumented_cycles > 0 for r in results)


def test_stats_snapshot_has_health_block(make_server):
    handle = make_server()
    with ServeClient(handle.address) as client:
        snap = client.stats()
    health = snap["health"]
    assert health["degraded"] is False
    assert health["breaker"]["state"] == "closed"
    assert health["pool"]["size"] == 2
    assert health["faultline"] == {"installed": False}
    assert "verified_trace_reads" in health["store"]
    assert "verified_result_reads" in health["store"]
    assert "quarantined" in health["store"]
    assert snap["config"]["resilience"]["max_attempts"] >= 1


def test_open_breaker_replays_inline_with_a_live_pool(make_server, fft_trace):
    """With the scheduler's breaker open, a live pool is bypassed and the
    request is answered inline, number for number."""
    from repro.exec.pool import build_analysis
    from repro.trace import TraceReader, TraceReplayer

    digest, blob, plain_cycles = fft_trace
    profile, reporter = TraceReplayer(TraceReader(blob)).replay(
        [build_analysis("eraser.full")]
    )
    handle = make_server(resilience=ResilienceConfig(breaker_reset=600.0))
    breaker = handle.server.scheduler.breaker
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    with ServeClient(handle.address) as client:
        response = client.submit("eraser.full", trace_bytes=blob)
        snap = client.stats()
    record = response["result"]
    assert not response["cached"]
    assert record["trace_digest"] == digest
    assert record["baseline_cycles"] == plain_cycles
    assert record["instrumented_cycles"] == profile.cycles
    assert record["metadata_bytes"] == profile.metadata_bytes
    assert record["n_reports"] == len(list(reporter))
    health = snap["health"]
    assert health["inline_replays"] >= 1
    assert health["degraded"] is True
    assert health["pool"]["alive"] == 2


def test_render_snapshot_includes_health(make_server):
    from repro.serve.metrics import render_snapshot

    handle = make_server()
    with ServeClient(handle.address) as client:
        text = render_snapshot(client.stats())
    assert "health: degraded=false" in text
    assert "breaker: state=closed" in text
    assert "faultline: not installed" in text
